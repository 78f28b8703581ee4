"""Smoke tests for the scripts under tools/: each must still run against src/."""

import hashlib
import json
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

from chainbalance import cli

ROOT = Path(__file__).resolve().parent.parent


def run_microbench(*args):
    # one timed repetition (about two seconds); the figures themselves are noise
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "microbench.py"), "--repeat", "1", *args],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


FIGURES = {
    "python", "missing", "map_packet_hit_us", "map_packet_miss_us", "map_by_hash_hit_us",
    "map_by_hash_miss_us", "build_buckets_ms",
    "build_buckets_again_ms", "codec_round_trip_us", "event_dispatch_us",
    "arrival_dispatch_us", "transmit_us", "crossing_us", "booked_crossing_us",
    "capacity_crossing_us", "chain_counter_ns", "generate_traffic_ms", "client_draw_us",
    "hash_key_us",
}


def test_microbench_runs_and_reports_every_figure():
    figures = run_microbench()
    assert set(figures) == FIGURES
    assert figures["missing"] == {}
    for name in ("build_buckets_ms", "build_buckets_again_ms"):
        assert set(figures[name]) == {"1024", "65536"}
    assert set(figures["codec_round_trip_us"]) == {"allocation_commit_prepare", "stats_ack"}
    assert figures["map_packet_hit_us"] > 0 and figures["map_packet_miss_us"] > 0
    assert figures["map_by_hash_hit_us"] > 0 and figures["map_by_hash_miss_us"] > 0
    assert figures["event_dispatch_us"] > 0 and figures["chain_counter_ns"] > 0
    assert figures["transmit_us"] > 0 and figures["arrival_dispatch_us"] > 0
    assert figures["crossing_us"] > 0 and figures["capacity_crossing_us"] > 0
    assert figures["booked_crossing_us"] > 0
    assert set(figures["generate_traffic_ms"]) == {"long-flows", "short-flows", "capacity-drain"}
    assert all(ms > 0 for ms in figures["generate_traffic_ms"].values())
    assert set(figures["client_draw_us"]) == {"randrange", "getrandbits"}
    assert all(us > 0 for us in figures["client_draw_us"].values())
    assert figures["hash_key_us"] > 0


def copied_src(tmp_path, **appended):
    """A copy of this checkout's chainbalance, with `appended[module]`
    written at the end of each module named."""
    shutil.copytree(ROOT / "src" / "chainbalance", tmp_path / "chainbalance")
    for module, text in appended.items():
        with open(tmp_path / "chainbalance" / f"{module}.py", "a") as source:
            source.write(f"\n\n{text}\n")
    return str(tmp_path)


def test_microbench_prints_null_for_an_api_another_checkout_lacks(tmp_path):
    # a checkout from before the packed session key, whose map_packet takes a
    # packet, without traffic.SERVER, and whose NetSim has no arrival loop of
    # its own: the figures that call any of them print null and name what
    # the checkout lacks, and every other figure is timed. The arrival loop's
    # figure maps each arrival by its key's hash, so it lacks that map too
    src = copied_src(
        tmp_path,
        balancer="def map_packet(self, packet):\n    return None\n\n\n"
                 "Balancer.map_packet = map_packet",
        traffic="del SERVER",
        netsim="del NetSim._run_arrivals",
    )
    figures = run_microbench("--src", src)
    assert set(figures) == FIGURES
    assert figures["missing"] == {
        "map_packet_hit_us": ["balancer.Balancer.map_packet(key, size, now)"],
        "map_packet_miss_us": ["balancer.Balancer.map_packet(key, size, now)"],
        **dict.fromkeys(("map_by_hash_hit_us", "map_by_hash_miss_us"), [
            "balancer.Balancer.map_packet(key, size, now, key_hash)",
            "balancer.Balancer.map_packet(key, size, now)",
        ]),
        "client_draw_us": ["traffic.SERVER"],
        "arrival_dispatch_us": [
            "netsim.NetSim._run_arrivals(packets, start)",
            "balancer.Balancer.map_packet(key, size, now, key_hash)",
        ],
    }
    assert all(figures[name] is None for name in figures["missing"])
    assert all(figures[name] is not None for name in FIGURES - set(figures["missing"]))


def test_microbench_raises_an_error_of_the_timed_code_under_src(tmp_path):
    # a fault inside a checkout's code, under an API the checkout has, is
    # raised, never printed as a missing figure
    src = copied_src(
        tmp_path,
        hashing="def hash_key(key):\n    raise TypeError('a fault in hash_key')",
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "microbench.py"), "--repeat", "1", "--src", src],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode != 0
    assert "TypeError: a fault in hash_key" in done.stderr


def test_digests_prints_every_output_of_every_seed(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digests.py"), "static-1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in done.stdout.splitlines()]
    assert [(name, seed, file) for name, seed, file, _ in lines] == [
        ("static-1", str(seed), file)
        for seed in range(1, 6) for file in ("series.csv", "events.jsonl", "report.json")
    ]
    # the digests are those of what `chainbalance run` writes
    scenario = resources.files("chainbalance") / "scenarios" / "static-1.yaml"
    assert cli.main(["run", str(scenario), "--seed", "2", "--out", str(tmp_path)]) == 0
    assert [digest for _, seed, file, digest in lines if seed == "2"] == [
        hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
        for file in ("series.csv", "events.jsonl", "report.json")
    ]


# the thirteen SPANS targets the program no longer has (ROADMAP item 1); any
# other name here means a change broke a name bench/tracing.py wraps. The
# balancer node's handler went when the master's one data-path event became
# NetSim._master_arrival, `inject` when the arrival loop took over its map
# and send, and `route` when the switch rules moved into the tests' model of
# the testbed (tests/topology.py)
DEAD_SPANS = {
    "netsim.NetSim._arrive", "netsim.SwitchNode.handle", "netsim.canonical_key",
    "balancer.canonical_key", "netsim.encode_message", "netsim.decode_message",
    "netsim.HostNode.handle", "netsim.NfInstance.handle",
    "netsim.NfInstance._depart", "netsim.NetSim.note_nf", "netsim.BalancerNode.handle",
    "netsim.NetSim.inject", "netsim.route",
}


def run_worker(workload, trace, out):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"),
         "--workload", str(ROOT / "bench" / "workloads" / f"{workload}.yaml"),
         "--seed", "1", "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout)


def test_bench_worker_runs_every_workload(tmp_path):
    # the benchmark imports names from the program; a refactor that drops
    # one fails the worker's run or its output checks
    for workload in ("long-flows", "short-flows", "capacity-drain"):
        assert run_worker(workload, 0, tmp_path / workload)["failures"] == []
    traced = run_worker("long-flows", 1, tmp_path / "traced")
    assert traced["failures"] == []
    assert set(traced["missing"]) <= DEAD_SPANS
