"""One workload in a fresh, single-threaded process: set-up, then a closed loop.

Started by run.py, never imported by it.  It builds the workload's inputs
from the seed, then runs whole rounds of queries, one in flight at a time,
until ``--seconds`` have passed, at least specs.MIN_SAMPLES queries ran and
the rounds make whole cycles of seeded values (specs.CYCLE), or until
HARD_STOP times ``--seconds``.
One JSON line per query goes to stdout after its timing ends; between
queries, at most every HOST_EVERY_S, a line gives the time of a fixed
reference computation (see run.scaled_latencies); a last line summarises
the process.

Outcomes: a TransgermError is a refusal, tallied by ``code``; any other
exception, RecursionError included, or hitting the per-query wall-clock
cap, is a failure, tallied by type.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import specs  # noqa: E402  (benchmark module, beside this file)

HARD_STOP = 1.5  # stop after this many times --seconds, whole cycles or not
HOST_EVERY_S = 0.005  # least time between two runs of host_reference


class QueryTimeout(Exception):
    """The per-query wall-clock cap fired."""


def _on_alarm(signum, frame):
    raise QueryTimeout(f"query exceeded {specs.QUERY_CAP_S} s")


def host_reference() -> float:
    """Seconds for a fixed piece of pure-Python work that shares nothing
    with transgerm (best of three): how fast the host runs right now."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc, seen = Q(0), {}
        for i in range(300):
            acc += Q(i % 7, 1 + i % 5)
            seen[(i % 13, i % 11)] = acc
        best = min(best, time.perf_counter() - t0)
    return best


def load_transgerm():
    import transgerm.errors
    import transgerm.germ
    import transgerm.gps
    import transgerm.scale
    import transgerm.series
    import transgerm.support
    return sys.modules["transgerm"]


# -- workloads ---------------------------------------------------------------


def build_germ(G, spec):
    x, lg = G.g_x(), G.g_logk(1)
    acc = G.ZERO
    for c, a, b, ex in spec:
        m = G.g_mul(G.g_pow(x, Q(a)), G.g_pow(lg, Q(b)))
        if ex is not None:
            m = G.g_mul(m, G.g_exp(build_germ(G, ex)))
        acc = G.g_add(acc, G.g_scale(m, Q(c)))
    return acc


def plain_germ(g) -> list:
    return [[str(c), [[k, str(r)] for k, r in m.powers],
             plain_germ(m.expart) if m.expart is not None else None]
            for c, m in g.terms]


class GermAlgebra:
    def __init__(self, tg, seed: int):
        G = self.G = tg.germ
        self.scale = tg.scale
        self.pool = {t: [build_germ(G, s) for s in specs_]
                     for t, specs_ in specs.germ_pool(seed).items()}
        self.chain = [build_germ(G, s) for s in specs.CHAIN]
        x = G.g_x()
        self.inners = {"x^2": G.g_pow(x, Q(2)), "exp": G.g_exp(x),
                       "log": G.g_logk(1)}

    def run(self, q):
        G = self.G
        kind = q["kind"]
        if kind == "make-scale":
            gens = [G.g_scale(self.chain[k], Q(c)) for k, c in q["gens"]]
            return self.scale.make_scale(gens)
        f = self.pool[q["rung"]][q["f"]]
        if kind == "compare":
            return G.compare(f, self.pool[q["rung"]][q["g"]])
        if kind == "derivative":
            return G.derivative(f)
        if kind == "power":
            return G.g_pow(f, Q(q["q"]))
        if kind == "compose":
            return G.compose_exact(f, self.inners[q["inner"]])
        raise ValueError(kind)

    def plain(self, q, res):
        """(answer, exact terms delivered, provenance length)"""
        if q["kind"] == "compare":
            return [res.relation, res.same_archimedean_class,
                    res.comparable], 0, 0
        if q["kind"] == "make-scale":
            gens = [plain_germ(g) for g in res.generators]
            return gens, sum(len(g) for g in gens), 0
        return plain_germ(res), len(res.terms), 0


class LaurentExpand:
    def __init__(self, tg, seed: int):
        self.tg = tg
        G, mk = tg.germ, tg.scale.make_scale
        x, lg = G.g_x(), G.g_logk(1)
        self.scales = {1: mk([x]), "log": mk([lg]), 2: mk([x, lg])}

    def run(self, q):
        gps, S = self.tg.gps, self.tg.series
        body, n = q["body"], q["n"]
        if body == "geometric-x":
            sc, b = self.scales[1], gps.geometric_in(1, (1,), Q(q["r"]))
        elif body == "geometric-log":
            sc, b = self.scales["log"], gps.geometric_in(1, (1,), Q(q["r"]))
        elif body == "product":
            sc = self.scales[2]
            b = (gps.geometric_in(2, (1, 0), Q(q["r"]))
                 * gps.geometric_in(2, (0, 1), Q(q["r2"])))
        elif body == "compose-ps":
            sc = self.scales[2]
            g = gps.from_terms(2, {(1, 0): Q(q["p"]), (0, 1): Q(q["q"])})
            b = gps.compose_ps(lambda k: Q(1), g)
        else:
            raise ValueError(body)
        f = S.make_laurent(sc, sc.unit(), b)
        cut = sc.monomial([n] if sc.arity == 1 else [0, n])
        terms = f.terms_to_cutoff(cut)
        return terms, S.order_type(f, budget=n), f

    def plain(self, q, res):
        terms, ot, f = res
        exact = str(ot.exact) if ot.exact is not None else None
        ans = {"terms": specs.plain_terms(terms),
               "order_type": [ot.bound_exponent, exact, ot.witnessed_terms]}
        return ans, len(ans["terms"]), len(f.provenance)


class InvertPipeline:
    def __init__(self, tg, seed: int):
        self.tg = tg
        G = tg.germ
        x, lg = G.g_x(), G.g_logk(1)
        self.gens = {1: [x], 2: [x, lg]}
        self.inners = {"exp": G.g_exp(x), "log": lg}
        self.kept = None  # the last arity-1 pipeline series, for retruncate

    def _pipeline(self, q):
        tg = self.tg
        gps, S = tg.gps, tg.series
        sc = tg.scale.make_scale(self.gens[q["arity"]])
        if q["arity"] == 1:
            body = gps.from_terms(1, {(0,): Q(q["a"]), (1,): Q(q["b"])})
        else:
            body = gps.from_terms(2, {(0, 0): Q(q["a"]), (0, 1): Q(q["b"]),
                                      (1, 0): Q(q["c"])})
        f = S.make_laurent(sc, sc.unit(), body)
        return S.compose_right(S.invert(f), self.inners[q["inner"]])

    def _cut(self, g, n):
        return g.scale.monomial([n] if g.scale.arity == 1 else [0, n])

    def run(self, q):
        S = self.tg.series
        kind = q["kind"]
        if kind == "pipeline":
            self.kept = None
            g = self._pipeline(q)
            cut = self._cut(g, q["n"])
            t = S.truncate(g, cut)
            val = S.sum_numeric(g, q["x"], cut)
            if q["arity"] == 1:
                self.kept = g
            return t, val, g
        if kind == "retruncate":
            g = self.kept if self.kept is not None else self._pipeline(q)
            return S.truncate(g, self._cut(g, q["n"])), None, g
        if kind == "square":
            sc = self.tg.scale.make_scale(self.gens[1])
            body = self.tg.gps.from_terms(1, {(0,): 1, (1,): Q(q["r"])})
            f = S.make_laurent(sc, sc.unit(), body)
            for _ in range(q["k"]):
                f = f * f
            return S.truncate(f, sc.monomial([2 ** q["k"]])), None, f
        if kind == "refusal":
            sc = self.tg.scale.make_scale(self.gens[2])
            f = S.from_terms(sc, {(0, 0): 1, (0, 1): -Q(q["u"]),
                                  (1, 0): Q(q["w"])})
            return S.invert(f).terms_to_cutoff(sc.monomial([1, 0]),
                                               budget=q["budget"])
        raise ValueError(kind)

    def plain(self, q, res):
        t, val, g = res
        ans = {"terms": specs.plain_terms(t.iter_terms())}
        if val is not None:
            ans["sum"] = list(val)
        return ans, len(ans["terms"]), len(g.provenance)


WORKLOAD_CLASSES = {"germ-algebra": GermAlgebra,
                    "laurent-expand": LaurentExpand,
                    "invert-pipeline": InvertPipeline}


# -- the loop ------------------------------------------------------------------


def run_query(wl, q, TransgermError, tracer=None) -> dict:
    frame = tracer.enter(tracer.name_id("query")) if tracer else None
    signal.setitimer(signal.ITIMER_REAL, specs.QUERY_CAP_S)
    t0 = time.perf_counter()
    try:
        res = wl.run(q)
        outcome, detail = "answered", None
    except TransgermError as exc:
        outcome, detail, res = "refused", exc.code, None
    except Exception as exc:  # a failure: RecursionError, timeout, ...
        outcome, detail, res = "failed", type(exc).__name__, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    latency = time.perf_counter() - t0
    if frame is not None:
        tracer.exit(frame)
    rec = {"q": q, "outcome": outcome, "detail": detail, "latency_s": latency,
           "answer": None, "terms": 0, "provenance_chars": 0}
    if outcome == "answered":
        rec["answer"], rec["terms"], rec["provenance_chars"] = wl.plain(q, res)
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "smoke"),
                    required=True)
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    host_before = host_reference()
    t0 = time.perf_counter()
    tg = load_transgerm()
    wl = WORKLOAD_CLASSES[args.workload](tg, args.seed)
    setup_s = time.perf_counter() - t0
    out = sys.stdout
    if args.mode == "setup":
        out.write(json.dumps({"type": "end", "setup_s": setup_s,
                              "host_s": [host_before, host_reference()]})
                  + "\n")
        return 0

    TransgermError = tg.errors.TransgermError
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.mode == "smoke":
        return smoke(tg, wl, args, TransgermError)

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer
        tracer = Tracer(tg)
        tracer.install()

    busy = 0.0
    count = rounds = 0
    start = time.perf_counter()
    last_ref = -math.inf
    while True:
        for slot, q in enumerate(
                specs.round_queries(args.workload, args.seed, rounds)):
            if time.perf_counter() - last_ref >= HOST_EVERY_S:
                out.write(json.dumps({"type": "host",
                                      "s": host_reference()}) + "\n")
                last_ref = time.perf_counter()
            rec = run_query(wl, q, TransgermError, tracer)
            busy += rec["latency_s"]
            rec["round"], rec["slot"] = rounds, slot
            out.write(json.dumps(rec) + "\n")
            count += 1
        rounds += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= args.seconds and count >= specs.MIN_SAMPLES
                and rounds % specs.CYCLE[args.workload] == 0) \
                or elapsed >= HARD_STOP * max(args.seconds, 1.0):
            break
    out.write(json.dumps({"type": "host", "s": host_reference()}) + "\n")

    loop_wall = time.perf_counter() - start
    # read before the probe, which is no part of the loop
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    end = {"type": "end", "setup_s": setup_s, "busy_s": busy, "rounds": rounds,
           "loop_wall_s": loop_wall, "peak_rss_mb": peak_rss_mb,
           "budget": tg.series.DEFAULT_BUDGET,
           "recursion_limit": sys.getrecursionlimit(),
           "python": sys.version.split()[0]}
    if tracer is not None:
        tracer.uninstall()
        end["layers"] = tracer.layer_metrics()
        if args.spans_out:
            tracer.write_spans(Path(args.spans_out))
    end["probe"] = None
    if args.workload == "laurent-expand":  # untraced, after the loop's numbers
        end["probe"] = run_query(wl, specs.probe_query(), TransgermError)
        end["probe"].pop("answer")
    out.write(json.dumps(end) + "\n")
    return 0


def smoke(tg, wl, args, TransgermError) -> int:
    """Round 0 untraced, then traced on freshly built inputs: both answer
    lists, whether the online self times agree with the raw spans, and
    whether every wrapped attribute is the original object again."""
    from tracing import Tracer, self_times_from_spans

    qs = specs.round_queries(args.workload, args.seed, 0)
    if args.workload == "laurent-expand":
        qs = [q for q in qs if q["rung"] <= 32]
    plain = [run_query(wl, q, TransgermError) for q in qs]
    tracer = Tracer(tg)
    before = tracer.snapshot()
    tracer.install()
    wl = WORKLOAD_CLASSES[args.workload](tg, args.seed)
    traced = [run_query(wl, q, TransgermError, tracer) for q in qs]
    tracer.uninstall()
    names = [tracer.names[i] for i in tracer.span_name]
    from_spans = self_times_from_spans(names, tracer.span_parent,
                                       tracer.span_start, tracer.span_end)
    online = {tracer.names[i]: s for i, s in tracer.self_s.items()}
    agree = tracer.dropped == 0 and all(
        math.isclose(from_spans.get(k, 0.0), v, rel_tol=1e-6, abs_tol=1e-9)
        for k, v in online.items())
    sys.stdout.write(json.dumps({
        "type": "smoke", "plain": plain, "traced": traced,
        "restored": tracer.originals_restored(before),
        "self_time_agrees": agree,
        "layers": tracer.layer_metrics()}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
