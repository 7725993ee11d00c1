"""The benchmark's own tests.

    python3 -m pytest perfbench

They run a few queries per workload, untraced and traced, and check the
answers with the oracles, the wrappers' removal, the printed metric names
against BENCHMARK.json, and the refusal to run without the library sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import specs  # noqa: E402
from oracle import Oracle  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=cwd, env=run.worker_env(),
                          timeout=175)


@pytest.mark.parametrize("workload", specs.WORKLOADS)
def test_traced_and_untraced_answers_agree_and_pass_oracles(workload):
    p = _run(str(BENCH / "worker.py"), "--workload", workload, "--seed", "1",
             "--mode", "smoke")
    assert p.returncode == 0, p.stderr
    out = json.loads(p.stdout.splitlines()[-1])
    assert out["restored"], "wrappers left installed"
    assert out["self_time_agrees"], "online self times differ from the spans"

    def strip(rec):
        return {k: rec[k] for k in ("q", "outcome", "detail", "answer")}

    assert [strip(r) for r in out["plain"]] == \
        [strip(r) for r in out["traced"]]
    oracle = Oracle(workload, 1)
    for rec in out["plain"]:
        if rec["outcome"] != "failed":
            assert oracle.check(rec) is None, rec["q"]


def test_every_query_counts_and_a_failure_ranks_slowest():
    def q(outcome, latency):
        return {"q": {"kind": "square"}, "outcome": outcome, "detail": None,
                "latency_s": latency, "terms": 3}

    ref = run.HOST_REF_S
    lines = [{"type": "host", "s": ref}, q("answered", 0.3),
             {"type": "host", "s": 3 * ref}, q("answered", 0.2),
             q("failed", 0.1), {"type": "host", "s": ref},
             {"type": "end", "peak_rss_mb": 1.0}]
    scaled = run.scaled_latencies(lines)
    assert [lat for _, lat in scaled] == pytest.approx([0.15, 0.1, 0.05])
    recs = [r for r, _ in scaled]
    m = run.loop_metrics(lines, {id(r): None for r in recs[:2]}
                         | {id(recs[2]): "failed"})
    # the failure's 0.05 s counts as the cap, far above the answered 0.15 s
    assert m["query_p90_ms"] > 0.8 * specs.QUERY_CAP_S * 1e3
    assert m["queries_per_s"] == pytest.approx(2 / 0.3)
    assert m["failed_frac"] == pytest.approx(1 / 3)


@pytest.mark.parametrize("workload", specs.WORKLOADS)
def test_rounds_repeat_after_a_cycle(workload):
    def rotated(rnd):  # make_scale's generators are drawn afresh each round
        return [{k: v for k, v in q.items() if k != "gens"}
                for q in specs.round_queries(workload, 7, rnd)]

    n = specs.CYCLE[workload]
    assert rotated(3) == rotated(3 + n) != rotated(4)


def test_quantile_of_a_uniform_sample():
    xs = list(range(1001))
    assert run.quantile(xs, 0.5) == pytest.approx(500, abs=0.5)
    assert run.quantile(xs, 0.9) == pytest.approx(900, abs=1.0)
    assert run.quantile([7.0], 0.9) == 7.0


def test_metric_tables_match_benchmark_json():
    bench = _bench_json()
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in bench[key]] \
            == list(table)
    assert [w["name"] for w in bench["workloads"]] == list(specs.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_the_declared_ones(trace):
    p = _run("perfbench/run.py", "--workload", "germ-algebra", "--seed", "1",
             "--seconds", "1", "--trace", trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= specs.MIN_SAMPLES
    key = "end_to_end" if trace == "0" else "per_layer"
    declared = {m["name"]: m["unit"] for m in _bench_json()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(NAME.fullmatch(k) for k in declared)


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _run("perfbench/run.py", "--workload", "germ-algebra", "--seed", "1",
             "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
