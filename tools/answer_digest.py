"""Print one sha256 per benchmark workload over the answers of its queries.

Loads perfbench/specs.py and perfbench/worker.py by path (it edits neither)
and runs rounds 0 .. R-1 of seed S of each workload through the transgerm in
this checkout's ``src``, one query at a time, as the benchmark's workers do.
The digest covers, for every query in order, the query itself, its outcome,
its refusal code and its plain answer (``worker.plain``: every coefficient
as an exact string).  Timings are not part of it.

Two checkouts that print the same line for a workload gave the same answers
to every query of it, so a performance change shows that it moved no
coefficient by running, at the parent and at the change,

    python tools/answer_digest.py --seed 1101

and comparing the lines.  ``--rounds`` defaults to each workload's cycle
(specs.CYCLE), the rounds after which every seeded value has recurred.

A query whose outcome is ``failed`` (an exception that is no
TransgermError) makes the run exit 1, after it names the first such query
of each workload on stderr.  The benchmark's own oracle checks skip failed
queries, so this is the check that every query of the benchmark still
answers or refuses with a typed error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import signal
import sys
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    """perfbench/<name>.py as module ``name``; worker.py imports specs by
    that name, so specs is loaded first."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def digest(specs, worker, tg, workload: str, seed: int, rounds: int
           ) -> tuple[str, int, Optional[dict]]:
    """(sha256 hex, number of queries, the record of the first failed query
    or None) over rounds 0 .. rounds-1."""
    wl = worker.WORKLOAD_CLASSES[workload](tg, seed)
    h = hashlib.sha256()
    count = 0
    failed = None
    for rnd in range(rounds):
        for q in specs.round_queries(workload, seed, rnd):
            rec = worker.run_query(wl, q, tg.errors.TransgermError)
            line = [q, rec["outcome"], rec["detail"], rec["answer"]]
            h.update(json.dumps(line, sort_keys=True).encode() + b"\n")
            count += 1
            if failed is None and rec["outcome"] == "failed":
                failed = rec
    return h.hexdigest(), count, failed


def main(argv=None) -> int:
    specs = load("specs")
    worker = load("worker")
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int)
    args = ap.parse_args(argv)
    tg = worker.load_transgerm()
    signal.signal(signal.SIGALRM, worker._on_alarm)  # the per-query cap
    status = 0
    for workload in specs.WORKLOADS:
        rounds = args.rounds or specs.CYCLE[workload]
        hexdigest, count, failed = digest(specs, worker, tg, workload,
                                          args.seed, rounds)
        print(f"{workload} seed {args.seed} rounds {rounds} "
              f"queries {count} sha256 {hexdigest}")
        if failed is not None:
            print(f"{workload}: query {json.dumps(failed['q'], sort_keys=True)}"
                  f" failed with {failed['detail']}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
