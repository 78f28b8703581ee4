"""The chainbalance benchmark: simulator workloads timed from the host.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The load is a closed batch: each workload
is a fixed packet schedule (workloads/NAME.yaml, traffic drawn from --seed)
simulated as fast as the host allows. One repetition is one fresh, single
threaded process doing the `chainbalance run` path (bench/worker.py);
repetitions run one at a time until --seconds have passed, and every figure
is the median over the repetitions.

Host speed on a shared machine drifts by 20-30% over minutes, more than any
bound worth having. So each repetition also times a fixed pure-Python
kernel right before and right after its timed work (worker.reference_seconds),
and every time the benchmark reports is in reference seconds: host seconds
scaled by REFERENCE_S / the kernel's time, i.e. seconds on a host that runs
the kernel in REFERENCE_S. The unscaled host figures are in the metadata line.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  packets_per_s  simulated packets carried by NetSim.run() per second
  wall_s         seconds for build Scenario + simulate + write outputs
  setup_s        seconds from process start to a constructed NetSim
  peak_rss_mb    ru_maxrss of the repetition's process

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics (bench/tracing.py), plus the tracing overhead: traced wall
time / untraced wall time.

Every repetition's outputs are checked (bench/worker.py) and their sha256
digests must agree across the run; a repetition that raises, times out or
fails a check counts as failed. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it records the run's metadata. The exit code is 0 only when every check held,
and 2 when the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import EXACT

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = BENCH / "workloads"
RESULTS = ROOT / ".bench_out"
# far above any repetition here (2-5 s); a hung simulation fails instead of
# stalling the run
REP_TIMEOUT_S = 60.0
# the reference kernel's two timings on a nominal host; a round figure near
# their median on a 2-core Xeon VM at 2.1 GHz with Python 3.11
REFERENCE_S = 0.25


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_rep(workload: Path, seed: int, trace: bool, out: Path) -> dict:
    """One repetition in its own process; its record, with setup_s added."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", str(workload),
        "--seed", str(seed), "--trace", "1" if trace else "0", "--out", str(out),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"failures": [f"timed out after {REP_TIMEOUT_S:.0f} s"]}
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"failures": [f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}"]}
    if proc.returncode != 0 and not record.get("failures"):
        record.setdefault("failures", []).append(f"worker exited {proc.returncode}")
    if "built_at" in record:
        record["setup_s"] = record["built_at"] - spawned
    return record


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def scale(rec: dict) -> float:
    """Factor from this repetition's host seconds to reference seconds."""
    return REFERENCE_S / rec["reference_s"]


def summarize(reps: list[tuple[bool, dict]], trace: bool) -> tuple[dict, dict, list[str]]:
    """Median metrics over the good repetitions, the unscaled host figures,
    and the run's problems."""
    problems = [f for _, rec in reps for f in rec.get("failures", [])]
    good = [(traced, rec) for traced, rec in reps if not rec.get("failures")]
    plain = [rec for traced, rec in good if not traced]
    traced = [rec for is_traced, rec in good if is_traced]
    if len({json.dumps(rec["digests"], sort_keys=True) for _, rec in good}) > 1:
        problems.append("output digests differ between repetitions")
    if not plain or (trace and not traced):
        problems.append("no repetition completed")
        return {}, {}, problems

    median = statistics.median
    metrics = {
        "packets_per_s": median(r["packets"] / (r["sim_s"] * scale(r)) for r in plain),
        "wall_s": median(r["wall_s"] * scale(r) for r in plain),
        "setup_s": median(r["setup_s"] * scale(r) for r in plain),
        "peak_rss_mb": median(r["rss_kb"] / 1024 for r in plain),
    }
    host = {
        "packets_per_s": median(r["packets"] / r["sim_s"] for r in plain),
        "wall_s": median(r["wall_s"] for r in plain),
        "setup_s": median(r["setup_s"] for r in plain),
        "reference_s": median(r["reference_s"] for r in plain),
    }
    if trace:
        for name in EXACT:
            if len({r["layers"][name] for r in traced}) > 1:
                problems.append(f"exact counter {name} differs between repetitions")
        for name in traced[0]["layers"]:
            # every layer figure that is not an exact count is a time
            metrics[name] = median(
                r["layers"][name] * (1 if name in EXACT else scale(r)) for r in traced
            )
        metrics["bench.tracing_overhead"] = (
            median(r["wall_s"] * scale(r) for r in traced) / metrics["wall_s"]
        )
    return metrics, host, problems


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chainbalance" / "__init__.py").is_file():
        print(f"error: no chainbalance package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS / f"{args.workload}.yaml"
    trace = bool(args.trace)

    out = RESULTS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    reps: list[tuple[bool, dict]] = []
    deadline = time.monotonic() + args.seconds
    try:
        while True:
            # traced runs alternate untraced and traced repetitions, so the
            # tracing overhead compares neighbours in time
            traced = trace and len(reps) % 2 == 1
            began = time.monotonic()
            reps.append((traced, run_rep(workload, args.seed, traced, out)))
            ended = time.monotonic()
            # start another repetition only if at least half of it would
            # fall before the deadline, so a run overshoots by under half a
            # repetition
            if ended + (ended - began) / 2 >= deadline and (not trace or len(reps) >= 2):
                break
    finally:
        shutil.rmtree(out, ignore_errors=True)

    metrics, host, problems = summarize(reps, trace)
    failed = sum(1 for _, rec in reps if rec.get("failures"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }

    first = next((rec for _, rec in reps if "digests" in rec), {})
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_commit": git_commit(), "machine": machine(),
        "host": host,
        "packets": first.get("packets"), "sessions": first.get("sessions"),
        "buckets": first.get("buckets"),
        "events": metrics.get("netsim.events"),
        "error_rate": failed / len(reps),
        "tracing_overhead": metrics.get("bench.tracing_overhead"),
        "digests": first.get("digests"),
        "problems": problems,
        "repetitions": [
            {k: rec.get(k) for k in ("wall_s", "sim_s", "setup_s", "reference_s", "rss_kb")}
            | {"traced": t}
            for t, rec in reps
        ],
    }
    RESULTS.mkdir(exist_ok=True)
    detail = dict(meta, metrics=metrics, spans=[rec.get("spans") for t, rec in reps if t])
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )

    for name, entry in result["metrics"].items():
        print(f"{args.workload} {name} {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload} error_rate {meta['error_rate']:.6g} ratio "
          f"({failed} of {len(reps)} repetitions failed)")
    for problem in problems:
        print(f"{args.workload} problem: {problem}")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
