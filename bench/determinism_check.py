"""The benchmark's own determinism check.

    python3 -m pytest -q bench/determinism_check.py

For each workload at one seed, two traced repetitions must give identical
exact per-layer counters (tracing.EXACT) and identical sha256 digests of
series.csv, events.jsonl and report.json, and an untraced repetition must
give the same digests: tracing may not change what the program computes.
The file name keeps it out of the repository's default test collection; it
takes about half a minute.
"""

import shutil

import pytest

from run import RESULTS, WORKLOADS, load_spec, run_rep
from tracing import EXACT

SEED = 3


@pytest.mark.parametrize("workload", [w["name"] for w in load_spec()["workloads"]])
def test_traced_repetitions_repeat_exactly(workload):
    out = RESULTS / f"determinism-{workload}"
    try:
        plain = run_rep(WORKLOADS / f"{workload}.yaml", SEED, False, out)
        first = run_rep(WORKLOADS / f"{workload}.yaml", SEED, True, out)
        second = run_rep(WORKLOADS / f"{workload}.yaml", SEED, True, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for rec in (plain, first, second):
        assert rec["failures"] == []
    assert first["missing"] == []
    assert first["digests"] == second["digests"] == plain["digests"]
    assert {k: first["layers"][k] for k in EXACT} == {k: second["layers"][k] for k in EXACT}
