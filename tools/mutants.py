"""Check that the kernel tests kill each listed mutation of the kernels.

Each mutation is a named, exact text substitution (file, old, new) in
``src/transgerm``.  For each one, in turn, the tool copies ``src``,
``tests`` and ``pyproject.toml`` to a temporary directory, applies the
substitution there and runs

    pytest tests/test_series_model.py tests/test_kernel_oracles.py \
        tests/test_support.py tests/test_gps.py -x -q

on the copy under a timeout of TIMEOUT_S seconds.  A run that fails or
times out kills the mutant; a run that passes lets it survive.  The
checkout itself is never edited.

Before any mutant runs, every ``old`` text must occur exactly once in its
file, so a refactor that changes one must update the list and can never
skip an entry silently; every mutated file must compile, so that no mutant
is killed by a syntax error in place of a test; and the unmutated copy must
pass, so a kill is the mutation's doing.  Prints each mutant's outcome and
time, and exits 1 when a text is not found exactly once, a mutated file
does not compile, the unmutated copy fails, or a mutant survives.

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
TESTS = ("tests/test_series_model.py", "tests/test_kernel_oracles.py",
         "tests/test_support.py", "tests/test_gps.py")
TIMEOUT_S = 60


class Mutation(NamedTuple):
    name: str
    file: str  # under src/transgerm
    old: str
    new: str


MUTATIONS = (
    Mutation("map keep read at the source's vector", "series.py",
             "k[0](add(v, k[1]))", "k[0](v)"),
    Mutation("map folded q replaced by the new one", "series.py",
             "add(d, delta)), r * q", "add(d, delta)), q"),
    Mutation("product square rule's factor 2 dropped", "series.py",
             "n + n if square and k != j else n,", "n,"),
    Mutation("invert ended-stream guard dropped", "series.py",
             "if r is not None:  # f has not ended", "if True:"),
    Mutation("invert seeded remainder term skipped", "series.py",
             "for t in head[first:]]", "for t in head[first + 1:]]"),
    Mutation("invert pair pushed at (i+2, j)", "series.py",
             "            i += 1\n", "            i += 2\n"),
    Mutation("invert remainder sign flipped", "series.py",
             "e = -t[1] * inv_a", "e = t[1] * inv_a"),
    Mutation("heap sum inline add doubled", "series.py",
             "n += p\n", "n += p + p\n"),
    # the successor is labelled (i, j) in place of (i+1, j), so when it pops
    # its own successor lies at the vector being summed and _heap_sum's
    # inner loop never ends: the timeout kills this one
    Mutation("invert pair labelled (i, j) for (i+1, j)", "series.py",
             "w), i, j, r[1] * p", "w), i - 1, j, r[1] * p"),
    # the kernel's successor protocol: the first entry at v, pushed over
    # and left in the heap, is summed twice (done at both sites, the inner
    # loop would never leave v and the heap would grow without bound); a
    # product that returns (0, j+1) as the successor drops every (i+1, j)
    Mutation("heapreplace done as a plain heappush", "series.py",
             "\n        replace(heap, e) if",
             "\n        heapq.heappush(heap, e) if"),
    Mutation("product returns (0, j+1) and drops (i+1, j)", "series.py",
             "push(heap, (add(ta[0], tb[0]), 0, k,\n"
             "                                n + n if square else n, "
             "ta[2] * tb[2]))",
             "return (add(ta[0], tb[0]), 0, k,\n"
             "                                n + n if square else n, "
             "ta[2] * tb[2])"),
    Mutation("unrolled adder drops its last coordinate", "support.py",
             "for i in range(arity)) + \")\")",
             "for i in range(arity - 1)) + \")\")"),
    # the universe merge stream, its membership search and the gps
    # product's read of its factor
    Mutation("merge advances only the first head equal to the least",
             "support.py",
             "\n                    heads[i] = add(out[at[i]], gens[i])\n",
             "\n                    heads[i] = add(out[at[i]], gens[i])\n"
             "                    break\n"),
    Mutation("merge reads each copy one point behind", "support.py",
             "add(out[at[i]], gens[i])", "add(out[at[i] - 1], gens[i])"),
    # a points head that never advanced would repeat its point forever, and
    # a consumer that scans a stream by grade, as compose_ps does, would
    # grow without bound before any assertion; this one never starts it
    Mutation("merge drops every point after the first", "support.py",
             "    heads += itertools.islice(rest, 1)\n", ""),
    Mutation("membership searches from the least point only", "support.py",
             "for p in self.points if by_lead else ():",
             "for p in self.points[:1] if by_lead else ():"),
    Mutation("gps product reads its factor without the membership test",
             "gps.py",
             "                        if not b_in(w):\n"
             "                            continue\n", ""),
    # the universe intern table and the compose oracle
    Mutation("intern table blind to its memo size", "support.py",
             "len(u._known) + len(u._pts)", "len(u._pts)"),
    Mutation("intern bound ignores the stored points", "support.py",
             "len(u._known) + len(u._pts)", "len(u._known)"),
    # the shared point stream and the series readers by index
    Mutation("point stream restarts without skipping the stored points",
             "support.py", "_merge(self.points, self.gens), i, None)",
             "_merge(self.points, self.gens), 0, None)"),
    Mutation("sum_numeric reads one item past the stored end",
             "series.py",
             "n < len(items) else get(n)) is not None:\n        v, c = t",
             "n <= len(items) else get(n)) is not None:\n        v, c = t"),
    # the prefix pull of a read to a cutoff, the box memo of a shape and
    # the gps product's choice of the factor it walks
    Mutation("prefix pull reads one item past its cut", "support.py",
             "not items or items[-1][0] <= cut)",
             "len(items) < 2 or items[-2][0] <= cut)"),
    Mutation("prefix pull reads one item past its limit", "support.py",
             "while len(items) <= limit and (",
             "while len(items) <= limit + 1 and ("),
    Mutation("box memo answers with another bound's box", "support.py",
             "hit = self._boxes.get(bound)",
             "hit = next(iter(self._boxes.values()), None)"),
    Mutation("intern bound ignores the stored boxes", "support.py",
             "len(u._pts) + u._boxed", "len(u._pts)"),
    Mutation("gps product walks the factor of lex-smaller generators",
             "gps.py", "ga[0] < gb[0]", "ga[0] > gb[0]"),
    Mutation("compose oracle adds p without rescaling to the common "
             "denominator", "gps.py",
             "n * (t // k) + s * (d // k)", "n * (t // k) + s"),
    Mutation("compose oracle keeps nu = 0 at every grade", "gps.py",
             "p_memo.get(nu) if nu or not dv else (0, 1)", "p_memo.get(nu)"),
    # the one build of a coefficient from its int pair, and the sites that
    # hand it the pair
    Mutation("frac skips its gcd", "support.py",
             "g = math.gcd(n, d)", "g = 1"),
    Mutation("geometric oracle powers only the numerator", "gps.py",
             "frac(rn ** k, rd ** k)", "frac(rn ** k, rd)"),
    Mutation("conv passes frac its first denominator, unsummed", "gps.py",
             "n, d = n * (q // g) + p * (d // g), d // g * q",
             "n, d = n * (q // g) + p * (d // g), d"),
    Mutation("heap sum passes frac its first denominator, unsummed",
             "series.py",
             "n, d = n * (q // g) + p * (d // g), d // g * q",
             "n, d = n * (q // g) + p * (d // g), d"),
)


def check(mutations: Sequence[Mutation]) -> list[str]:
    """One line per mutation whose old text its file does not hold exactly
    once, or whose mutated file does not compile."""
    out = []
    for m in mutations:
        text = (ROOT / "src" / "transgerm" / m.file).read_text()
        n = text.count(m.old)
        if n != 1:
            out.append(f"{m.name}: old text found {n} times in {m.file}, "
                       f"expected once")
            continue
        try:
            compile(text.replace(m.old, m.new), m.file, "exec")
        except SyntaxError as exc:
            out.append(f"{m.name}: mutated {m.file} does not compile: {exc}")
    return out


def run(m: Optional[Mutation]) -> tuple[str, float]:
    """The tests on a copy of the tree with m applied (none when m is None):
    ("passed", "failed" or "timed out", seconds)."""
    with tempfile.TemporaryDirectory(prefix="transgerm-mutant-") as tmp:
        copy = Path(tmp)
        for d in ("src", "tests"):
            shutil.copytree(ROOT / d, copy / d,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if m is not None:
            path = copy / "src" / "transgerm" / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", *TESTS, "-x", "-q",
                 "-p", "no:cacheprovider"],
                cwd=copy, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
            outcome = "failed" if proc.returncode else "passed"
        except subprocess.TimeoutExpired:
            outcome = "timed out"
        return outcome, time.perf_counter() - start


def main(mutations: Sequence[Mutation] = MUTATIONS) -> int:
    problems = check(mutations)
    for line in problems:
        print(line)
    if problems:
        return 1
    outcome, secs = run(None)
    print(f"unmutated: {outcome} in {secs:.1f} s")
    if outcome != "passed":
        return 1
    survivors = 0
    for m in mutations:
        outcome, secs = run(m)
        survived = outcome == "passed"
        survivors += survived
        verdict = "SURVIVED" if survived else f"killed ({outcome})"
        print(f"{m.name}: {verdict} in {secs:.1f} s")
    print(f"{len(mutations) - survivors} of {len(mutations)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
