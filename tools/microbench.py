"""Per-call micro-timings of the balancer, bucket-vector and control-codec layers.

    python3 tools/microbench.py [--src DIR] [--repeat N]

Prints one JSON object of best-of-N timings:

- ``map_packet_hit_us`` / ``map_packet_miss_us``: one ``Balancer.map_packet``
  call for a session already in the table / a new session (L=1024). Each
  call passes a session key packed beforehand, as the simulator's balancer
  nodes do.
- ``build_buckets_ms[L]``: one ``build_buckets`` call for a 3-chain allocation
  at a generation not built before, which fills and shuffles the slots, and
  ``build_buckets_again_ms[L]`` for a second build of the same generation, as
  the slave does after the master: a cache hit that reuses the first build's
  shuffled index and only checks the allocation and packs the table.
- ``codec_round_trip_us``: one ``encode_message`` + ``decode_message`` round
  trip, as the control transport makes per message, for a 5-chain
  ``allocation_commit`` prepare and for a stats ``ack`` carrying a 5-chain
  traffic window.
- ``event_dispatch_us``: one ``EventLoop.schedule`` plus the dispatch of a
  no-op callback, with at most 64 events pending, as in the simulator.
- ``arrival_dispatch_us``: one entry of the arrival stream that
  ``EventLoop.run`` merges with its heap, dispatched to a no-op callback,
  in streams of 64 with one heap entry pending beyond them; this is how
  the loop brings in each planned packet (``NetSim.inject``).
- ``transmit_us``: one data-path send, ``NetSim.transmit`` along the
  client's compiled two-link walk to a no-op handler, plus the dispatch of
  the arrival it pushes, with at most 64 sends pending. It times the push
  and dispatch of a send that ends in an event.
- ``crossing_us``: one send from the slave with a chain's reverse tag,
  ``NetSim.transmit`` along the slave's compiled walk through a passthrough
  NF, until the master gets the packet (a no-op handler), dispatches
  included, with at most 64 sends pending. The simulator is not run, so
  the master holds no session record and its arrival takes a heap entry:
  this is the way from one balancer through an NF to the other that a
  reverse packet the master cannot settle at the send takes.
- ``booked_crossing_us``: the same send when the master's record of the
  session holds the chain: the master's arrival is booked at the send and
  the packet counted delivered to the client, with no heap entry, as for
  every settled reverse packet.
- ``capacity_crossing_us``: the ``crossing_us`` send through a capacity NF
  (15 MB/s, a 64-packet queue that the 64 pending sends fill without a
  drop), until the master gets the packet.
- ``generate_traffic_ms[workload]``: one ``generate_traffic`` call and one
  iteration of the plan it returns, the whole packet schedule of each
  ``bench/workloads`` profile at seed 1. The plan is planned as it is
  iterated, so building it alone costs next to nothing; timing the
  iteration too keeps a ``--src`` comparison with a checkout whose plan is
  a list fair.
- ``chain_counter_ns``: one ``dict[ChainId]`` get plus set, the per-chain
  byte accounting that ``Balancer.map_packet`` does per packet.

``--src`` imports chainbalance from another checkout's ``src`` directory, so
two versions can be timed by the same script on the same host. That
checkout must expose the API this script calls (``Balancer.map_packet(key,
size, now)``, ``canonical_key`` returning bytes, ``engine.EventLoop``, the
control codec, ``EventLoop.run(until, arrivals)``, ``NetSim.transmit(walk,
packet, now)`` and the ``Walk`` of ``NetSim.walks`` and
``BalancerNode.sends``); a checkout from before an API change needs the
script from its own tree. Wall-clock figures are noisy; compare runs made
back to back, never gate on them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seconds(fn):
    """Wall time of one call of fn()."""
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding chainbalance")
    parser.add_argument("--repeat", type=int, default=7, help="timed repetitions per figure")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from chainbalance import cli, netsim
    from chainbalance.balancer import Balancer
    from chainbalance.control import (
        ControlMessage, alloc_to_wire, decode_message, encode_message, window_to_wire,
    )
    from chainbalance.engine import EventLoop
    from chainbalance.hashing import ChainId, Endpoint, HashParams, build_buckets, canonical_key
    from chainbalance.rebalance import TrafficWindow
    from chainbalance.scenario import parse_scenario
    from chainbalance.traffic import PlannedPacket, generate_traffic

    chains = [ChainId(2, 3), ChainId(4, 5), ChainId(6, 7)]
    server = Endpoint.parse("10.9.9.9", 80)
    calls = 20_000
    keys = []
    for i in range(calls):
        client = Endpoint(bytes((10, 0, i >> 8 & 0xFF, i & 0xFF)), 1024 + i % 60_000)
        keys.append(canonical_key(client, server))

    def balancer():
        params = HashParams(seed=7, bucket_count=1024)
        b = Balancer("master", params, session_timeout=60.0)
        b.install(b.stage_allocation([(chains[0], 342), (chains[1], 341), (chains[2], 341)], 0))
        return b

    warm = balancer()
    for key in keys:
        warm.map_packet(key, 100, 1.0)

    def hits():
        for key in keys:
            warm.map_packet(key, 100, 1.0)

    fresh = []

    def misses():
        b = fresh.pop()
        for key in keys:
            b.map_packet(key, 100, 1.0)

    hit_s = min(seconds(hits) for _ in range(args.repeat))
    fresh.extend(balancer() for _ in range(args.repeat))
    miss_s = min(seconds(misses) for _ in range(args.repeat))

    out = {
        "python": sys.version.split()[0],
        "map_packet_hit_us": round(1e6 * hit_s / calls, 3),
        "map_packet_miss_us": round(1e6 * miss_s / calls, 3),
        "build_buckets_ms": {},
        "build_buckets_again_ms": {},
    }
    generation = itertools.count(1)
    for length in (1024, 65536):
        params = HashParams(seed=11, bucket_count=length)
        third = length // 3
        alloc = [(chains[0], third), (chains[1], length - 2 * third), (chains[2], third)]
        first, again = [], []
        for _ in range(args.repeat):
            build = functools.partial(build_buckets, alloc, params, next(generation))
            first.append(seconds(build))
            again.append(seconds(build))
        out["build_buckets_ms"][length] = round(1e3 * min(first), 3)
        out["build_buckets_again_ms"][length] = round(1e3 * min(again), 3)

    five = [ChainId(2 * i + 2, 2 * i + 3) for i in range(5)]
    prepare = {"phase": "prepare", "generation": 3,
               "alloc": alloc_to_wire([(c, 13107) for c in five]), "drain": None}
    window = window_to_wire(TrafficWindow(5.0, {c: 1_234_567 for c in five}))
    messages = {
        "allocation_commit_prepare": ControlMessage("allocation_commit", prepare, "master", 17),
        "stats_ack": ControlMessage(
            "ack", {"ok": True, "error": "", "window": window}, "slave", 0, reply_to=17
        ),
    }
    trips = 10_000

    def round_trips(msg):
        for _ in range(trips):
            decode_message(encode_message(msg))

    out["codec_round_trip_us"] = {}
    for label, msg in messages.items():
        best = min(seconds(functools.partial(round_trips, msg)) for _ in range(args.repeat))
        out["codec_round_trip_us"][label] = round(1e6 * best / trips, 3)

    batches, pending = 300, 64

    def dispatches():
        loop = EventLoop()
        noop = lambda: None
        for _ in range(batches):
            at = loop.now
            for i in range(1, pending + 1):
                loop.schedule(at + i * 1e-6, noop)
            loop.run()

    best = min(seconds(dispatches) for _ in range(args.repeat))
    out["event_dispatch_us"] = round(1e6 * best / (batches * pending), 3)

    noop = lambda *args: None

    def arrival_dispatches(streams):
        loop = EventLoop()
        loop.schedule(math.inf, noop)  # one entry pending, as the merge meets it
        for stream in streams:
            loop.run(until=1.0, arrivals=stream)

    # a fresh loop and prebuilt streams per repetition: 64 no-op arrivals a
    # stream, 1 us apart, each stream after the one before
    best = min(seconds(functools.partial(arrival_dispatches, [
        [((b * pending + i) * 1e-6, noop, ()) for i in range(pending)] for b in range(batches)
    ])) for _ in range(args.repeat))
    out["arrival_dispatch_us"] = round(1e6 * best / (batches * pending), 3)

    sim = netsim.NetSim(cli.bundled_scenario("static-1"))
    planned = PlannedPacket(0.0, 0, keys[0], 100, False)
    # the compiled walk with a no-op at its end: the send's push and dispatch only
    to_noop = sim.walks[("client", 1, ())]._replace(handle=noop)

    def sends():
        for _ in range(batches):
            for _ in range(pending):
                sim.transmit(to_noop, planned, sim.loop.now)
            sim.loop.run()

    best = min(seconds(sends) for _ in range(args.repeat))
    out["transmit_us"] = round(1e6 * best / (batches * pending), 3)

    def crossing_sim(**nf):
        # a fresh run per repetition keeps the sends' times within the horizon
        sim = netsim.NetSim(dataclasses.replace(cli.bundled_scenario("static-1"), **nf))
        walk = sim.nodes["lb2"].sends[sim.scenario.chains[0]]
        return sim, walk._replace(onward=walk.onward._replace(handle=noop))

    def crossings(sim, walk):
        for _ in range(batches):
            for _ in range(pending):
                sim.transmit(walk, planned, sim.loop.now)
            sim.loop.run()

    best = min(seconds(functools.partial(crossings, *crossing_sim()))
               for _ in range(args.repeat))
    out["crossing_us"] = round(1e6 * best / (batches * pending), 3)

    def booked_sim():
        sim, walk = crossing_sim()
        s = sim.scenario
        master = sim.master_agent.balancer = Balancer(
            "master", HashParams(s.hash_seed, s.bucket_count), s.session_timeout)
        master.reconcile(planned.key, walk.nf.chain, 0.0)  # the record the master holds
        return sim, walk

    best = min(seconds(functools.partial(crossings, *booked_sim()))
               for _ in range(args.repeat))
    out["booked_crossing_us"] = round(1e6 * best / (batches * pending), 3)
    capacity = dict(nf_mode="capacity", nf_capacity=15e6, nf_queue_limit=pending)
    best = min(seconds(functools.partial(crossings, *crossing_sim(**capacity)))
               for _ in range(args.repeat))
    out["capacity_crossing_us"] = round(1e6 * best / (batches * pending), 3)

    counters = dict.fromkeys(chains, 0)
    sequence = [chains[i % len(chains)] for i in range(calls)]

    def count_bytes():
        for chain in sequence:
            counters[chain] = counters.get(chain, 0) + 100

    best = min(seconds(count_bytes) for _ in range(args.repeat))
    out["chain_counter_ns"] = round(1e9 * best / calls, 1)

    def plan_packets(traffic):
        for _ in generate_traffic(traffic, 1):
            pass

    out["generate_traffic_ms"] = {}
    for path in sorted((ROOT / "bench" / "workloads").glob("*.yaml")):
        traffic = parse_scenario(path).traffic
        best = min(seconds(functools.partial(plan_packets, traffic)) for _ in range(args.repeat))
        out["generate_traffic_ms"][path.stem] = round(1e3 * best, 3)
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
