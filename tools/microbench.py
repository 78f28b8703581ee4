"""Per-call micro-timings of the balancer, bucket-vector and control-codec layers.

    python3 tools/microbench.py [--src DIR] [--repeat N]

Prints one JSON object of best-of-N timings:

- ``map_packet_hit_us`` / ``map_packet_miss_us``: one ``Balancer.map_packet``
  call for a session already in the table / a new session (L=1024). Each
  call passes a session key packed beforehand, and the balancer hashes the
  key of a new session, as a library caller's does.
- ``map_by_hash_hit_us`` / ``map_by_hash_miss_us``: the same calls passing
  the key's ``hash_key`` too, computed beforehand, as the simulator passes
  the hash its traffic plan computed once per session; a miss maps by it.
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
- ``arrival_dispatch_us``: one planned packet's arrival in the simulator's
  arrival loop (``NetSim._run_arrivals``), which times it off the plan,
  merges it with the event loop's heap and maps it at its first balancer,
  the master, by a table hit, after the balancers' handshake; the send on
  is a no-op in place of ``NetSim.transmit``. Plans of 64 forward packets
  of one session, with one heap entry pending beyond the horizon: this is
  how a run brings in each planned packet.
- ``transmit_us``: one data-path send from the master on a chain,
  ``NetSim.transmit`` along the master's walk for it (the one a run takes,
  from ``NetSim._first_balancer``) through a passthrough NF and on through
  the slave's pop to the server, which counts the packet delivered: the
  least a send costs, with no event.
- ``crossing_us``: one send from the slave on a chain, ``NetSim.transmit``
  along the slave's walk for it through a passthrough NF, until the master
  gets the packet (a no-op in place of the master's handler), dispatches
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
- ``client_draw_us``: one new client of the traffic plan, drawn and packed
  into its session key with ``SERVER``, in the two ways a plan can: with
  ``randrange``, ``Endpoint`` and ``canonical_key`` (``randrange``), and with
  ``getrandbits`` and rejection, packed straight into bytes
  (``getrandbits``, timing a copy of ``traffic.TrafficPlan``'s inlined draw).
- ``hash_key_us``: one ``hash_key`` call on a session key.

``--src`` imports chainbalance from another checkout's ``src`` directory, so
two versions can be timed by the same script on the same host. Before a
figure is timed, the names it calls are looked up (``ROWS``): each class and
function, and the leading parameter names of those whose signature has
changed, such as ``Balancer.map_packet(key, size, now, key_hash)``,
``NetSim._run_arrivals(packets, start)`` and ``NetSim.transmit(walk, packet,
now)``. A figure whose names the other checkout lacks prints ``null``, and
``missing`` maps its name to those names; without ``--src`` the script exits
naming them. An error raised while a figure is timed is raised, so a fault
in either checkout is never taken for a missing API. Wall-clock figures are
noisy; compare runs made back to back, never gate on them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import math
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seconds(fn):
    """Wall time of one call of fn()."""
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


CHAINS = ((2, 3), (4, 5), (6, 7))
CALLS = 20_000  # calls per timed batch of the per-call figures
BATCHES, PENDING = 300, 64  # event batches, and the events each holds


def session_keys(count, third_octet=0):
    """`count` distinct session keys of clients 10.0.x.y with one server."""
    from chainbalance.hashing import Endpoint, canonical_key

    server = Endpoint.parse("10.9.9.9", 80)
    return [canonical_key(Endpoint(bytes((10, third_octet, i >> 8 & 0xFF, i & 0xFF)),
                                   1024 + i % 60_000), server)
            for i in range(count)]


def map_packet_figures(repeat, by_hash=False):
    from chainbalance.balancer import Balancer
    from chainbalance.hashing import ChainId, HashParams, hash_key

    chains = [ChainId(*chain) for chain in CHAINS]
    keys = session_keys(CALLS)
    # each call's arguments after the key's, hashed beforehand if by_hash
    rest = [(100, 1.0, hash_key(key)) if by_hash else (100, 1.0) for key in keys]
    calls = list(zip(keys, rest))

    def balancer():
        params = HashParams(seed=7, bucket_count=1024)
        b = Balancer("master", params, session_timeout=60.0)
        b.install(b.stage_allocation([(chains[0], 342), (chains[1], 341), (chains[2], 341)], 0))
        return b

    warm = balancer()
    for key, args in calls:
        warm.map_packet(key, *args)

    def hits():
        for key, args in calls:
            warm.map_packet(key, *args)

    fresh = []

    def misses():
        b = fresh.pop()
        for key, args in calls:
            b.map_packet(key, *args)

    hit_s = min(seconds(hits) for _ in range(repeat))
    fresh.extend(balancer() for _ in range(repeat))
    miss_s = min(seconds(misses) for _ in range(repeat))
    return round(1e6 * hit_s / CALLS, 3), round(1e6 * miss_s / CALLS, 3)


def build_buckets_figures(repeat):
    from chainbalance.hashing import ChainId, HashParams, build_buckets

    chains = [ChainId(*chain) for chain in CHAINS]
    first_ms, again_ms = {}, {}
    generation = itertools.count(1)
    for length in (1024, 65536):
        params = HashParams(seed=11, bucket_count=length)
        third = length // 3
        alloc = [(chains[0], third), (chains[1], length - 2 * third), (chains[2], third)]
        first, again = [], []
        for _ in range(repeat):
            build = functools.partial(build_buckets, alloc, params, next(generation))
            first.append(seconds(build))
            again.append(seconds(build))
        first_ms[length] = round(1e3 * min(first), 3)
        again_ms[length] = round(1e3 * min(again), 3)
    return first_ms, again_ms


def codec_round_trip_us(repeat):
    from chainbalance.control import (
        ControlMessage, alloc_to_wire, decode_message, encode_message, window_to_wire,
    )
    from chainbalance.hashing import ChainId
    from chainbalance.rebalance import TrafficWindow

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

    figures = {}
    for label, msg in messages.items():
        best = min(seconds(functools.partial(round_trips, msg)) for _ in range(repeat))
        figures[label] = round(1e6 * best / trips, 3)
    return figures


def event_dispatch_us(repeat):
    from chainbalance.engine import EventLoop

    def dispatches():
        loop = EventLoop()
        noop = lambda: None
        for _ in range(BATCHES):
            at = loop.now
            for i in range(1, PENDING + 1):
                loop.schedule(at + i * 1e-6, noop)
            loop.run()

    best = min(seconds(dispatches) for _ in range(repeat))
    return round(1e6 * best / (BATCHES * PENDING), 3)


def noop(*args):
    return None


def arrival_dispatch_us(repeat):
    from chainbalance import cli, netsim
    from chainbalance.control import ClusterConfig

    planned = planned_packet()

    def arrival_sim():
        sim = netsim.NetSim(cli.bundled_scenario("static-1"))
        s = sim.scenario
        # the handshake as NetSim.run makes it first, through the management
        # system, which installs both balancers' first bucket vector
        sim.ms.handshake(ClusterConfig(s.hash_seed, s.bucket_count, s.session_timeout,
                                       s.chains), on_done=noop)
        sim.loop.run()
        session = planned.session
        # the session's record, so that every timed map is a table hit
        sim.master_agent.balancer.map_packet(session.key, planned.size, 0.0, session.key_hash)
        sim.transmit = noop
        sim.loop.schedule(math.inf, noop)  # one entry pending, as the merge meets it
        return sim

    def arrival_dispatches(sim, plans):
        for plan in plans:
            sim._run_arrivals(iter(plan), 0.0)

    # a fresh simulator and prebuilt plans per repetition: 64 packets a plan,
    # planned 1 us apart from the handshake's end on, each plan after the
    # one before
    best = min(seconds(functools.partial(arrival_dispatches, arrival_sim(), [
        [planned._replace(time=0.01 + (b * PENDING + i) * 1e-6) for i in range(PENDING)]
        for b in range(BATCHES)
    ])) for _ in range(repeat))
    return round(1e6 * best / (BATCHES * PENDING), 3)


def planned_packet():
    """A forward packet of one session, in the shape the imported checkout
    plans: carrying its session's record, or its id and key flat."""
    from chainbalance import traffic

    key = session_keys(1)[0]
    if "session" in traffic.PlannedPacket._fields:
        return traffic.PlannedPacket(0.0, traffic.Session(0, key), 100, False)
    return traffic.PlannedPacket(0.0, 0, key, 100, False)


def transmit_us(repeat):
    from chainbalance import cli, netsim

    sim = netsim.NetSim(cli.bundled_scenario("static-1"))
    planned = planned_packet()
    to_server = sim._first_balancer[0][1][sim.scenario.chains[0]]  # the master's send

    def sends():
        for _ in range(BATCHES * PENDING):
            sim.transmit(to_server, planned, 0.0)

    best = min(seconds(sends) for _ in range(repeat))
    return round(1e6 * best / (BATCHES * PENDING), 3)


def crossing_sim(**nf):
    """A fresh simulator and the slave's walk to the master through the
    first chain's NF, with a no-op at its end."""
    from chainbalance import cli, netsim

    # a fresh run per repetition keeps the sends' times within the horizon
    sim = netsim.NetSim(dataclasses.replace(cli.bundled_scenario("static-1"), **nf))
    sim._master_arrival = noop
    return sim, sim._first_balancer[1][1][sim.scenario.chains[0]]  # the slave's send


def crossings_us(repeat, make_sim):
    planned = planned_packet()

    def crossings(sim, walk):
        for _ in range(BATCHES):
            for _ in range(PENDING):
                sim.transmit(walk, planned, sim.loop.now)
            sim.loop.run()

    best = min(seconds(functools.partial(crossings, *make_sim())) for _ in range(repeat))
    return round(1e6 * best / (BATCHES * PENDING), 3)


def booked_sim():
    """`crossing_sim` with a master that holds the session's record."""
    from chainbalance.balancer import Balancer
    from chainbalance.hashing import HashParams

    sim, walk = crossing_sim()
    s = sim.scenario
    master = sim.master_agent.balancer = Balancer(
        "master", HashParams(s.hash_seed, s.bucket_count), s.session_timeout)
    master.reconcile(session_keys(1)[0], walk.nf.chain, 0.0)  # the record the master holds
    return sim, walk


def capacity_sim():
    return crossing_sim(nf_mode="capacity", nf_capacity=15e6, nf_queue_limit=PENDING)


def chain_counter_ns(repeat):
    from chainbalance.hashing import ChainId

    chains = [ChainId(*chain) for chain in CHAINS]
    counters = dict.fromkeys(chains, 0)
    sequence = [chains[i % len(chains)] for i in range(CALLS)]

    def count_bytes():
        for chain in sequence:
            counters[chain] = counters.get(chain, 0) + 100

    best = min(seconds(count_bytes) for _ in range(repeat))
    return round(1e9 * best / CALLS, 1)


def generate_traffic_ms(repeat):
    from chainbalance.scenario import parse_scenario
    from chainbalance.traffic import generate_traffic

    def plan_packets(traffic):
        for _ in generate_traffic(traffic, 1):
            pass

    figures = {}
    for path in sorted((ROOT / "bench" / "workloads").glob("*.yaml")):
        traffic = parse_scenario(path).traffic
        best = min(seconds(functools.partial(plan_packets, traffic)) for _ in range(repeat))
        figures[path.stem] = round(1e3 * best, 3)
    return figures


def client_draw_us(repeat):
    from chainbalance.hashing import Endpoint, canonical_key
    from chainbalance.traffic import SERVER

    server = SERVER.address + SERVER.port.to_bytes(2, "big")

    def by_randrange(rng):
        randrange = rng.randrange
        for _ in range(CALLS):
            address = bytes([10, 0, randrange(256), 1 + randrange(254)])
            port = randrange(1024, 65536)
            canonical_key(Endpoint(address, port), SERVER)

    def by_getrandbits(rng):
        # a copy of traffic.TrafficPlan._windows' draw, which is inlined
        # there; tests/test_traffic.py checks that one against randrange
        getrandbits = rng.getrandbits
        for _ in range(CALLS):
            a = getrandbits(9)
            while a >= 256:
                a = getrandbits(9)
            b = getrandbits(8)
            while b >= 254:
                b = getrandbits(8)
            port = getrandbits(16)
            while port >= 64512:
                port = getrandbits(16)
            port += 1024
            bytes((10, 0, a, b + 1, port >> 8, port & 0xFF)) + server

    return {
        label: round(1e6 * min(seconds(functools.partial(draw, random.Random(seed)))
                               for seed in range(repeat)) / CALLS, 3)
        for label, draw in (("randrange", by_randrange), ("getrandbits", by_getrandbits))
    }


def hash_key_us(repeat):
    from chainbalance.hashing import hash_key

    def hashes(keys):
        for key in keys:
            hash_key(key)

    keys = session_keys(CALLS)
    best = min(seconds(functools.partial(hashes, keys)) for _ in range(repeat))
    return round(1e6 * best / CALLS, 3)


# each row: the names of a timing function's figures, which it returns in
# this order (one figure, or a tuple of them), the API it needs (see
# `lacking`), and the function
KEYS = ("hashing.canonical_key", "hashing.Endpoint")
BALANCER = ("balancer.Balancer.map_packet(key, size, now)", "balancer.Balancer.stage_allocation",
            "balancer.Balancer.install", "hashing.HashParams", "hashing.ChainId", *KEYS)
# `Walk.master` marks a checkout whose `NetSim._first_balancer` holds each
# balancer's sends by chain, the walks these figures time
SIM = ("netsim.NetSim.transmit(walk, packet, now)", "netsim.Walk.master",
       "traffic.PlannedPacket", "cli.bundled_scenario", *KEYS)
CROSSING = (*SIM, "netsim.Walk.onward", "netsim.Walk.nf")
ROWS = (
    (("map_packet_hit_us", "map_packet_miss_us"), BALANCER, map_packet_figures),
    (("map_by_hash_hit_us", "map_by_hash_miss_us"),
     ("balancer.Balancer.map_packet(key, size, now, key_hash)", "hashing.hash_key", *BALANCER),
     lambda repeat: map_packet_figures(repeat, by_hash=True)),
    (("build_buckets_ms", "build_buckets_again_ms"),
     ("hashing.build_buckets(alloc, params, generation)", "hashing.HashParams", "hashing.ChainId"),
     build_buckets_figures),
    (("codec_round_trip_us",),
     ("control.ControlMessage", "control.alloc_to_wire", "control.window_to_wire",
      "control.encode_message(msg)", "control.decode_message(data)",
      "rebalance.TrafficWindow", "hashing.ChainId"),
     codec_round_trip_us),
    (("event_dispatch_us",), ("engine.EventLoop.schedule(at, fn)", "engine.EventLoop.run"),
     event_dispatch_us),
    (("arrival_dispatch_us",),
     ("netsim.NetSim._run_arrivals(packets, start)", "control.ClusterConfig",
      "control.ManagementSystem.handshake(cfg, on_done)",
      "balancer.Balancer.map_packet(key, size, now, key_hash)", *SIM),
     arrival_dispatch_us),
    (("transmit_us",), SIM, transmit_us),
    (("crossing_us",), CROSSING, lambda repeat: crossings_us(repeat, crossing_sim)),
    (("booked_crossing_us",),
     (*CROSSING, "balancer.Balancer.reconcile(key, observed, now)", "hashing.HashParams"),
     lambda repeat: crossings_us(repeat, booked_sim)),
    (("capacity_crossing_us",), CROSSING, lambda repeat: crossings_us(repeat, capacity_sim)),
    (("chain_counter_ns",), ("hashing.ChainId",), chain_counter_ns),
    (("generate_traffic_ms",), ("traffic.generate_traffic(profile, seed)", "scenario.parse_scenario"),
     generate_traffic_ms),
    (("client_draw_us",), ("traffic.SERVER", *KEYS), client_draw_us),
    (("hash_key_us",), ("hashing.hash_key(key)", *KEYS), hash_key_us),
)


def lacking(need):
    """`need` if the imported chainbalance lacks it, else None.

    `need` names an attribute of a chainbalance module, "module.name" or
    "module.Class.name", and may end in "(a, b)": the names of the
    parameters the callable must take first, after self."""
    path, _, params = need.partition("(")
    module, *names = path.split(".")
    try:
        found = importlib.import_module(f"chainbalance.{module}")
    except ImportError:
        return need
    for name in names:
        if not hasattr(found, name):
            return need
        found = getattr(found, name)
    if params:
        wanted = [param.strip() for param in params.rstrip(")").split(",")]
        taken = [name for name in inspect.signature(found).parameters if name != "self"]
        if taken[:len(wanted)] != wanted:
            return need
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", help="directory holding chainbalance (default: this checkout's)")
    parser.add_argument("--repeat", type=int, default=7, help="timed repetitions per figure")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src or str(ROOT / "src"))
    out = {"python": sys.version.split()[0], "missing": {}}
    for names, needs, timed in ROWS:
        lacked = [need for need in needs if lacking(need)]
        if not lacked:
            figures = timed(args.repeat)
            out.update(zip(names, figures if len(names) > 1 else (figures,)))
        elif args.src is None:
            raise SystemExit(f"this checkout lacks {', '.join(lacked)}, which {names[0]} needs")
        else:
            # another checkout's API: its figures print null and say what it lacks
            out.update(dict.fromkeys(names))
            out["missing"].update(dict.fromkeys(names, lacked))
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
