"""The transgerm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload laurent-expand --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/transgerm``.  Each workload
runs in fresh, single-threaded Python processes (worker.py) as a closed
loop: one query in flight at a time, a seeded query stream.  This process
never imports transgerm; it checks every answer with oracle.py, prints the
run record, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median of
SETUP_REPS set-up-only processes, each timing its import of transgerm and
the building of the workload's inputs up to the first query; the rest
come from one process that runs the loop for ``--seconds``.  ``--trace 1``
reports the per-layer metrics: it runs the loop untraced for half the time
and traced for the other half, in two fresh processes, and reports the
tracing overhead between them.

Every round of a loop asks the same kinds of query at the same rungs, with
seeded values.  Latency percentiles (Harrell-Davis estimates), throughput
and growth are taken over every query of the loop, each time scaled to a
fixed host speed (scaled_latencies).  Every query goes through its oracle
and counts in ``attempted`` and ``failed``.

Workloads, and why each was chosen:

- germ-algebra: compare, derivative, cube, exact composition and make_scale
  on seeded exp-depth <= 2 germs.  germ and scale do all the work; support,
  gps and series none.  It isolates mono_cmp with its global comparison
  cache and g_mul, and is the bypass workload for support or series changes.
- laurent-expand: make_laurent over gps bodies (geometric series on (x) and
  (log x), a product of two geometric series and 1/(1 - p X0 - q X1) on
  (x, log x)) truncated at depth n, plus order_type.  Support membership
  and the gps coefficient oracles dominate; germ is idle.  After the loop
  one probe query expands past depth 1000, where the seed raises
  RecursionError; its outcome is in the run record.
- invert-pipeline: validate a scale, make_laurent on a finite body, invert,
  compose_right with exp x or log x, truncate at depth n and sum_numeric,
  on arity 1 and 2; plus re-truncation of an expanded series, repeated
  squaring with shared subterms, and arity-2 inversions truncated at m[1,0]
  with budget 20 or 50, whose answer is CutoffTooDeep.  The series stream
  kernels dominate; support membership is nearly idle.  At the default
  budget that arity-2 query runs about 40 s to a RecursionError at the seed,
  too long for a loop, so the small budgets stand for it: refusal time
  grows steeply with the budget through the same chained products.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import specs  # noqa: E402

SETUP_REPS = 15
# Times are reported in units of the host reference (worker.host_reference)
# times HOST_REF_S, the reference's time on a 2-vCPU Intel Xeon host at its
# fastest (0.55-0.63 ms): they read as ms there, and do not move with the
# load other tenants put on a shared host.
HOST_REF_S = 0.0006
RUN_DEADLINE_S = 170.0  # the whole run, children included

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p90_ms", "ms", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("terms_per_s", "1/s", "higher"),
    ("growth_exponent", "slope", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# reported in the run record with the end-to-end metrics; they are 0 on
# most workloads, so they take no bound and travel with the traced run
OUTCOMES = (("failed_frac", "ratio", "lower"), ("refused_frac", "ratio", "lower"))
PER_LAYER = (
    ("germ.mono_cmp.calls", "count", "lower"),
    ("germ.mono_cmp.self_ms", "ms", "lower"),
    ("germ.cmp_cache.hit_ratio", "ratio", "higher"),
    ("germ.cmp_cache.entries", "count", "lower"),
    ("germ.g_mul.calls", "count", "lower"),
    ("germ.g_mul.self_ms", "ms", "lower"),
    ("germ.derivative.self_ms", "ms", "lower"),
    ("germ.compose_exact.self_ms", "ms", "lower"),
    ("scale.make_scale.self_ms", "ms", "lower"),
    ("support.contains.calls", "count", "lower"),
    ("support.contains.self_ms", "ms", "lower"),
    ("support.lex_stream.points", "count", "lower"),
    ("support.box_points.calls", "count", "lower"),
    ("support.box_points.points", "count", "lower"),
    ("support.box_points.self_ms", "ms", "lower"),
    ("gps.coeff.calls", "count", "lower"),
    ("gps.coeff.self_ms", "ms", "lower"),
    ("gps.coeff.repeat_ratio", "ratio", "lower"),
    ("series.stream.calls", "count", "lower"),
    ("series.stream.self_ms", "ms", "lower"),
    ("series.points_pulled", "count", "lower"),
    ("series.nonzero_terms", "count", "higher"),
    ("series.useful_ratio", "ratio", "higher"),
    ("series.invert.self_ms", "ms", "lower"),
    ("series.compose_right.self_ms", "ms", "lower"),
    ("series.sum_numeric.self_ms", "ms", "lower"),
    ("series.provenance_chars", "chars", "lower"),
    ("query.self_ms", "ms", "lower"),
    ("errors.cutoff-too-deep.count", "count", "lower"),
    ("errors.RecursionError.count", "count", "lower"),
) + OUTCOMES + (
    ("trace.query_p50_ms", "ms", "lower"),
    ("trace.overhead_p50_ms", "ms", "lower"),
)


# -- children ------------------------------------------------------------------


def worker_env() -> dict:
    env = dict(os.environ)
    # series.DEFAULT_BUDGET reads it at import; the benchmark uses the default
    env.pop("TRANSGERM_BUDGET", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode: str, seconds: float, deadline: float,
               spans_out: str | None = None) -> list[dict]:
    """The JSON lines of one fresh workload process."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--mode", mode]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    left = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=worker_env(),
                          cwd=ROOT, timeout=left)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    if not lines or lines[-1].get("type") != "end":
        raise RuntimeError(f"{mode} process printed no summary")
    return lines


# -- metrics -------------------------------------------------------------------


def scaled_latencies(lines: list[dict]) -> list[tuple]:
    """(query record, latency in s scaled to the reference host).

    Another tenant of the machine can slow every process on it by up to 2x,
    for a fraction of a second or for minutes.  The workload process times
    a fixed pure-Python reference computation between queries (worker.
    host_reference), so each query's latency is multiplied by HOST_REF_S
    over the mean of the references just before and just after it.  Every
    query is kept."""
    out, pending, before = [], [], None
    for x in lines:
        if x.get("type") == "host":
            local = x["s"] if before is None else (before + x["s"]) / 2
            out += [(r, r["latency_s"] * HOST_REF_S / local) for r in pending]
            pending, before = [], x["s"]
        elif "q" in x:
            pending.append(x)
    return out


def quantile(vals: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density, taken at the
    midpoints of their n intervals.  Where the latencies of several kinds
    of query meet, it is steadier than any one order statistic."""
    xs = sorted(vals)
    n = len(xs)
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    logw = [a * math.log((i + 0.5) / n) + b * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logw)
    w = [math.exp(v - top) for v in logw]
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


def growth(scaled: list[tuple]) -> tuple[float, dict]:
    """Mean over the workload's ladders of the log-log slope of median
    latency against rung n, each ladder over the rungs it answered."""
    rung_s = defaultdict(lambda: defaultdict(list))
    for r, lat in scaled:
        q = r["q"]
        if q.get("ladder") and r["outcome"] == "answered":
            rung_s[q["ladder"]][q["rung"]].append(lat)
    slopes, rung_ms = {}, {}
    for ladder, by_rung in rung_s.items():
        pts = {n: statistics.median(v) * 1e3 for n, v in sorted(by_rung.items())}
        rung_ms[ladder] = {n: [ms, len(by_rung[n])] for n, ms in pts.items()}
        if len(pts) >= 2:
            xs = [math.log(n) for n in pts]
            ys = [math.log(v) for v in pts.values()]
            mx, my = statistics.fmean(xs), statistics.fmean(ys)
            slopes[ladder] = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                              / sum((x - mx) ** 2 for x in xs))
    slope = statistics.fmean(slopes.values()) if slopes else float("nan")
    return slope, {"ladder_slopes": slopes,
                   "ladder_rung_ms_and_samples": rung_ms}


def loop_metrics(lines: list[dict], verdicts: dict) -> dict:
    """End-to-end numbers of one loop, over every query it ran.  A failed
    query ranks as slowest: at least the per-query cap.  Throughput is per
    second of (scaled) query time."""
    scaled = scaled_latencies(lines)
    ranked = [max(lat, specs.QUERY_CAP_S) if r["outcome"] == "failed" else lat
              for r, lat in scaled]
    ok = [r for r, _ in scaled if verdicts[id(r)] is None]
    busy = sum(lat for _, lat in scaled)
    p90 = quantile(ranked, 0.9)
    slope, rungs = growth(scaled)
    return {
        "query_p50_ms": quantile(ranked, 0.5) * 1e3,
        "query_p90_ms": p90 * 1e3,
        "queries_per_s": len(ok) / busy,
        "terms_per_s": sum(r["terms"] for r in ok) / busy,
        "growth_exponent": slope,
        "peak_rss_mb": lines[-1]["peak_rss_mb"],
        "failed_frac": 1 - len(ok) / len(scaled),
        "refused_frac": sum(r["outcome"] == "refused" for r in ok)
        / len(scaled),
        "_samples": {"queries": len(scaled),
                     "beyond_p90": sum(v > p90 for v in ranked)},
        "_growth": rungs,
    }


def judge(oracle, lines: list[dict]) -> dict:
    """Every query of a loop, answered or not, through its oracle."""
    return {id(r): oracle.check(r) for r in lines if "q" in r}


def outcome_counts(recs: list[dict]) -> dict:
    c = Counter()
    for r in recs:
        if r["outcome"] != "answered":
            c[f"errors.{r['detail']}.count"] += 1
    return dict(c)


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "transgerm" / "__init__.py").is_file():
        print(f"no transgerm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from oracle import Oracle

    deadline = time.monotonic() + RUN_DEADLINE_S
    oracle = Oracle(args.workload, args.seed)
    record: dict = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit_id(), "nproc": os.cpu_count(),
        "pythonhashseed": worker_env()["PYTHONHASHSEED"]}
    metrics: dict = {}
    if args.trace == 0:
        setups = [run_worker(args, "setup", 0.0, deadline)
                  for _ in range(SETUP_REPS)]
        loops = [run_worker(args, "run", args.seconds, deadline)]
    else:
        half = args.seconds / 2
        spans = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}.spans"
        loops = [run_worker(args, "run", half, deadline),
                 run_worker(args, "trace", half, deadline, str(spans))]
    verdicts = [judge(oracle, lines) for lines in loops]
    measured = [loop_metrics(lines, v) for lines, v in zip(loops, verdicts)]
    first = measured[0]
    if args.trace == 0:
        # import and build, scaled by the references timed around them
        setup_s = [lines[-1]["setup_s"] * HOST_REF_S
                   / statistics.fmean(lines[-1]["host_s"])
                   for lines in setups]
        metrics["setup_s"] = statistics.median(setup_s)
        record["setup_s_samples"] = setup_s
        for name, _, _ in END_TO_END[1:]:
            metrics[name] = first[name]
    else:
        traced, t_loop = loops[1], measured[1]
        t_end = traced[-1]
        t_recs = [r for r in traced if "q" in r]
        metrics.update(t_end["layers"])
        probe = [t_end["probe"]] if t_end["probe"] else []
        for name, _, _ in PER_LAYER:
            if name.startswith("errors."):
                metrics[name] = outcome_counts(t_recs + probe).get(name, 0)
        metrics["series.provenance_chars"] = max(
            (r["provenance_chars"] for r in t_recs), default=0)
        metrics["failed_frac"] = t_loop["failed_frac"]
        metrics["refused_frac"] = t_loop["refused_frac"]
        metrics["trace.query_p50_ms"] = t_loop["query_p50_ms"]
        metrics["trace.overhead_p50_ms"] = \
            t_loop["query_p50_ms"] - first["query_p50_ms"]
        record["self_ms"] = {k: v for k, v in t_end["layers"].items()
                             if k.endswith(".self_ms")}
        record["spans"] = {"file": str(spans.relative_to(ROOT)),
                           "count": t_end["layers"]["trace.spans"],
                           "dropped": t_end["layers"]["trace.spans_dropped"]}

    # the oracle rejects failures as well as wrong answers
    problems = [f"{r['q']['kind']}: {v[id(r)]}"
                for lines, v in zip(loops, verdicts)
                for r in lines if "q" in r and v[id(r)] is not None]
    attempted = sum(len(v) for v in verdicts)
    end = loops[0][-1]
    record.update({
        "python": end["python"], "budget": end["budget"],
        "recursion_limit": end["recursion_limit"],
        "host_best_s": min(x["s"] for lines in loops for x in lines
                           if x.get("type") == "host"),
        "rounds": [lines[-1]["rounds"] for lines in loops],
        "busy_s": [lines[-1]["busy_s"] for lines in loops],
        "loop_wall_s": [lines[-1]["loop_wall_s"] for lines in loops],
        "samples": first["_samples"],
        "growth": first["_growth"],
        "failed_frac": first["failed_frac"],
        "refused_frac": first["refused_frac"],
        "outcomes": outcome_counts([r for r in loops[0] if "q" in r]),
        "probe": loops[-1][-1]["probe"],
        "oracle": {"checked": attempted, "rejected": len(problems),
                   "first_rejected": problems[:5],
                   "gruntz_checked": oracle.gruntz_checked,
                   "gruntz_skipped": oracle.gruntz_skipped,
                   "gruntz_s": oracle.gruntz_s},
    })

    table = END_TO_END + OUTCOMES if args.trace == 0 else PER_LAYER
    units = {name: unit for name, unit, _ in table}
    shown = dict(metrics)
    if args.trace == 0:
        shown.update({k: first[k] for k, _, _ in OUTCOMES})
    for name, unit, _ in table:
        print(f"{name:32s} {shown[name]:>16.6g} {unit}")
    print("record " + json.dumps(record))
    names = [n for n, _, _ in (END_TO_END if args.trace == 0 else PER_LAYER)]
    result = {"correct": not problems,
              "attempted": attempted, "failed": len(problems),
              "metrics": {n: {"value": metrics[n], "unit": units[n]}
                          for n in names}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
