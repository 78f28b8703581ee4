"""One repetition of a workload in a fresh process: the `chainbalance run` path.

    python3 bench/worker.py --workload FILE --seed N --trace 0|1 --out DIR

Builds the Scenario from the workload file, constructs the NetSim, simulates
and writes series.csv, events.jsonl and report.json through
``cli.write_outputs``, exactly as ``chainbalance run FILE --seed N`` does.
It then checks the outputs and prints one JSON line. With ``--trace 1`` the
line also carries the per-layer figures of ``tracing.layer_metrics``.

The program is imported from ``src/`` of the checkout this file sits in and
nowhere else; without it the worker exits with an error.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BAND = 0.10  # the CLI's default convergence band
OUTPUT_FILES = ("series.csv", "events.jsonl", "report.json")


def import_program():
    """Import the chainbalance modules from this checkout's src/."""
    if not (SRC / "chainbalance" / "__init__.py").is_file():
        raise SystemExit(f"error: no chainbalance package under {SRC}")
    sys.path.insert(0, str(SRC))
    import chainbalance
    from chainbalance import balancer, cli, control, hashing, netsim, rebalance, scenario, traffic

    if Path(chainbalance.__file__).resolve().parent != SRC / "chainbalance":
        raise SystemExit(f"error: chainbalance imported from {chainbalance.__file__}")
    return {
        "balancer": balancer, "cli": cli, "control": control, "hashing": hashing,
        "netsim": netsim, "rebalance": rebalance, "scenario": scenario, "traffic": traffic,
    }


class _Node:
    __slots__ = ("links", "count")

    def __init__(self):
        self.links = {}
        self.count = 0

    def handle(self, key):
        self.count += 1
        return self.links.get(key & 7)


def reference_seconds(steps: int = 120_000) -> float:
    """Host seconds for a fixed pure-Python kernel shaped like event dispatch:
    heap pushes and pops, dict lookups and method calls on small objects.

    It uses nothing from the program, so its time tracks only how fast the
    host runs Python at that moment.
    """
    started = time.perf_counter()
    nodes = [_Node() for _ in range(8)]
    for i, node in enumerate(nodes):
        for port in range(8):
            node.links[port] = nodes[(i + port) & 7]
    heap, node = [], nodes[0]
    for seq in range(steps):
        heapq.heappush(heap, [seq * 1e-3 + (seq % 7) * 1e-4, seq, node])
        if len(heap) > 40:
            _, key, target = heapq.heappop(heap)
            node = target.handle(key) or node
    return time.perf_counter() - started


def expected_input(traffic) -> tuple[int, int]:
    """Packets and bytes the workload's traffic profile injects, by definition:
    each session is its request and its response, each cut into packet_size
    chunks."""
    response = traffic.bytes_per_session - traffic.request_bytes
    per_session = (
        math.ceil(traffic.request_bytes / traffic.packet_size)
        + math.ceil(response / traffic.packet_size)
    )
    return traffic.sessions * per_session, traffic.sessions * traffic.bytes_per_session


def check_outputs(sim, scenario, result) -> list[str]:
    """Every way this run's outputs can be wrong; empty when they are right."""
    failures = []
    if not result.clean:
        failures.append(f"run not clean: {len(result.anomalies)} anomalies, "
                        f"leftover {result.leftover_bytes} bytes")
    if result.injected_bytes != result.delivered_bytes + result.dropped_bytes:
        failures.append("injected bytes != delivered + dropped")
    _, expected_bytes = expected_input(scenario.traffic)
    if result.injected_bytes != expected_bytes:
        failures.append(f"injected {result.injected_bytes} bytes, expected {expected_bytes}")
    master = sim.master_agent.balancer.buckets
    slave = sim.slave_agent.balancer.buckets
    if not result.vectors_equal or master != slave:
        failures.append("master and slave bucket vectors differ")
    committed = sum(1 for e in result.events if e["event"].startswith("committed_"))
    if committed != len(scenario.actions):
        failures.append(f"{committed} of {len(scenario.actions)} actions committed")
    return failures


def run_once(workload: Path, seed: int, trace: bool, out: Path) -> dict:
    modules = import_program()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(modules)
    netsim, cli, scenario_mod = modules["netsim"], modules["cli"], modules["scenario"]

    started = time.perf_counter()
    scenario = scenario_mod.parse_scenario(workload).with_seed(seed)
    parsed = time.perf_counter()
    sim = netsim.NetSim(scenario)
    built_at, built = time.monotonic(), time.perf_counter()
    # host-speed probes right before and after the timed work (run.py)
    reference_s = reference_seconds()
    simulating = time.perf_counter()
    result = sim.run()
    simulated = time.perf_counter()
    cli.write_outputs(result, out, BAND)
    written = time.perf_counter()
    reference_s += reference_seconds()

    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in OUTPUT_FILES}
    packets, _ = expected_input(scenario.traffic)
    record = {
        "failures": check_outputs(sim, scenario, result),
        "built_at": built_at,
        "wall_s": (built - started) + (written - simulating),
        "sim_s": simulated - simulating,
        "reference_s": reference_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "packets": packets,
        "sessions": scenario.traffic.sessions,
        "buckets": scenario.bucket_count,
        "digests": digests,
    }
    if tracer is not None:
        run = {
            "parse_s": parsed - started,
            "write_s": written - simulated,
            "queue_drops": sum(1 for e in result.events if e["event"] == "drop"),
            "messages": len(result.message_trace),
            "divergences": result.divergences,
            "sessions": len(result.session_starts),
            "output_bytes": sum((out / name).stat().st_size for name in OUTPUT_FILES),
        }
        record["layers"] = tracing.layer_metrics(tracer, run)
        record["spans"] = tracer.span_rows()
        record["missing"] = tracer.missing
        if tracer.packets != packets:
            record["failures"].append(
                f"generated {tracer.packets} packets, expected {packets}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    try:
        record = run_once(args.workload, args.seed, bool(args.trace), args.out)
    except Exception:
        # a raising run is a failed run; the parent counts it
        record = {"failures": ["raised: " + traceback.format_exc(limit=3)]}
    print(json.dumps(record))
    return 0 if not record["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
