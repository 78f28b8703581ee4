import gc
import hashlib
import itertools
import json
import math
import pickle
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainbalance import cli, hashing, netsim
from chainbalance.balancer import Balancer
from chainbalance.errors import NeverConverged
from chainbalance.hashing import ChainId, Endpoint, HashParams, canonical_key
from chainbalance.netsim import (
    EventLoop,
    NfInstance,
    ThroughputSeries,
    measure_convergence,
    measure_drain,
)
from chainbalance.scenario import Action, Scenario, parse_scenario
from chainbalance.traffic import PlannedPacket, Session, TrafficProfile, generate_traffic

from topology import NoRoute, TagRouter, Topology, far_port, hop_by_hop, route

C1 = ChainId(2, 3)
C2 = ChainId(4, 5)
C3 = ChainId(6, 7)


def packet(session_id=0):
    """A forward packet of a new session, with a record of its own."""
    return PlannedPacket(
        time=0.0,
        session=Session(
            session_id,
            canonical_key(Endpoint.parse("10.0.0.1", 5000), Endpoint.parse("10.9.9.9", 80)),
        ),
        size=100,
        reverse=False,
    )


def small_scenario(**overrides):
    base = dict(
        name="unit",
        seed=1,
        hash_seed=7,
        bucket_count=256,
        session_timeout=6.0,
        window_length=5.0,
        chains=(C1, C2),
        traffic=TrafficProfile(sessions=150, rate=75.0, bytes_per_session=30_000,
                               packet_size=3000, duration_jitter=0.4),
        actions=(),
        horizon=15.0,
    )
    base.update(overrides)
    return Scenario(**base)


# -- routing


def edge_switch_rules():
    router = TagRouter()
    router.add(1, None, 3)
    router.add(2, None, 3)
    router.add(4, None, 1)
    for i, chain in enumerate((C1, C2, C3), start=1):
        router.add(4, chain.forward_tag, 4 + i)
        router.add(4 + i, chain.reverse_tag, 3)
    return router


def test_route_tagged_to_chain_port():
    assert route(edge_switch_rules(), 4, (2,)) == (5, (2,))
    assert route(edge_switch_rules(), 4, (4,)) == (6, (4,))


def test_route_untagged_client_traffic():
    assert route(edge_switch_rules(), 1, ()) == (3, ())


def test_route_unknown_tag():
    with pytest.raises(NoRoute):
        route(edge_switch_rules(), 4, (99,))


def test_route_push_pop_actions():
    router = TagRouter()
    router.add(1, 6, 2, "pop")
    router.add(2, None, 1, "push", 7)
    assert route(router, 1, (6,)) == (2, ())
    assert route(router, 2, ()) == (1, (7,))


def test_push_then_pop_restores_packet():
    router = TagRouter()
    router.add(1, None, 2, "push", 6)
    router.add(2, 6, 3, "pop")
    out, tags = route(router, 1, ())
    assert (out, tags) == (2, (6,))
    assert route(router, out, tags) == (3, ())


def test_route_pop_keeps_inner_tag():
    router = TagRouter()
    router.add(1, 6, 2, "push", 9)
    router.add(2, 9, 3, "pop")
    out, tags = route(router, 1, (6,))
    assert (out, tags) == (2, (6, 9))
    assert route(router, out, tags) == (3, (6,))


def test_pop_rule_must_match_a_tag():
    # a pop keyed on no tag is the only rule that could pop an empty stack
    with pytest.raises(ValueError):
        TagRouter().add(1, None, 2, "pop")


# -- NF admission


def test_nf_token_bucket_timing():
    nf = NfInstance("nf", C1, mode="capacity", capacity=100.0)
    departures = [nf.admit(packet(), 0.0) for _ in range(10)]
    assert None not in departures
    assert departures[-1] == pytest.approx(10.0)
    assert departures[0] == pytest.approx(1.0)


BALANCERS = ("lb1", "lb2")  # the master and the slave, in PlannedPacket.reverse order


def send(sim, balancer, p, chain):
    """Send a packet out of a balancer now, along its walk into the NF of
    `chain`: the only walk `transmit` takes."""
    _, sends = sim._first_balancer[BALANCERS.index(balancer)]
    sim.transmit(sends[chain], p, sim.loop.now)


def nf_of(sim, chain):
    """The NF of `chain`, which both balancers' sends on it cross."""
    return sim._first_balancer[0][1][chain].nf


def test_nf_passthrough_zero_delay():
    # a balancer's send crosses a passthrough NF with no event there and no
    # departure: the NF books the packet at its own arrival time. From the
    # slave, the one entry pushed is the arrival at the master; from the
    # master, the walk goes on through the slave's pop and counts the packet
    # delivered to the server, with no entry
    at_nf = 3.5
    for _ in range(3):  # lb -> es -> cs1 -> nf1
        at_nf += 0.0013
    beyond = at_nf
    for _ in range(3):  # nf1 -> cs1 -> es -> lb
        beyond += 0.0013
    for node in ("lb2", "lb1"):
        sim = netsim.NetSim(small_scenario(link_latency=0.0013))
        nf1 = nf_of(sim, C1)
        assert (nf1.name, nf1.mode) == ("nf1", "passthrough")
        sent = packet()
        sim.loop.now = 3.5
        send(sim, node, sent, C1)
        if node == "lb2":
            [(at, _, handle, args)] = sim.loop._heap
            assert (at, handle, args) == (beyond, sim._master_arrival, (sent, C1, beyond))
            assert sim.result.delivered_bytes == 0
        else:
            assert sim.loop._heap == []
            assert sim.result.delivered_bytes == sent.size
        assert sim.result.series.buckets == {C1: {3: 100}}
        assert sim.result.last_packet_on == {C1: at_nf}
        assert sent.session.nf_chains == (C1,)


def test_every_send_adds_the_link_latency_once_per_link(monkeypatch):
    # pinned float bits, with links of 0.001 and sends at 1.0: a passthrough
    # crossing from the master books its NF leave three additions later, at
    # 1.0 + 0.001 + 0.001 + 0.001, never at 1.0 + 3 * 0.001 = 1.003
    sim = netsim.NetSim(small_scenario(link_latency=0.001))
    sim.loop.now = 1.0
    send(sim, "lb1", packet(), C1)
    leave = sim.result.last_packet_on[C1]
    assert leave == 1.0029999999999997
    assert leave != 1.0 + 3 * 0.001  # 1.003
    # the slave's settled send: the master's arrival is six additions later
    # (not 1.006), and the client's two more, by a horizon the multiplied
    # time 1.0079999999999993 would be past
    sim = netsim.NetSim(small_scenario(link_latency=0.001))
    master = sim.master_agent.balancer = Balancer("master", HashParams(7, 256), 6.0)
    sent = packet()._replace(reverse=True)
    master.reconcile(sent.session.key, C1, 1.0)
    sim.loop.now, sim.horizon = 1.0, 1.0079999999999991
    send(sim, "lb2", sent, C1)
    assert master.table[sent.session.key].last_timestamp == 1.0059999999999993
    assert sim.loop._heap == [] and sim.result.delivered_bytes == sent.size
    # a planned packet sent from the client at 1.0 reaches the master two
    # additions later (not 1.002)
    sim = netsim.NetSim(small_scenario(link_latency=0.001))
    with_plan(monkeypatch, sim, lambda packets, start: [packet()._replace(time=1.0)])
    assert sim.run().session_starts[0][0] == 1.0019999999999998


@pytest.mark.parametrize("case, settled", [
    ("the record holds the chain", True),
    ("no record", False),
    ("the record holds another chain", False),
    ("the record is inactive on arrival", False),
    ("the trip outlasts the timeout", False),
    ("a long trip is still pending", False),
])
def test_master_arrival_is_booked_at_the_slave_send_only_when_settled(case, settled):
    # the slave sends at 3.5 on C1; the master gets the packet six links
    # later. Settled, the arrival is booked at the send: the master's
    # timestamp is raised to the arrival and the packet counted delivered
    # to the client, with no heap entry. Otherwise the arrival is pushed
    timeout = 0.005 if case == "the trip outlasts the timeout" else 6.0
    sim = netsim.NetSim(small_scenario(link_latency=0.0013, session_timeout=timeout))
    master = sim.master_agent.balancer = Balancer("master", HashParams(7, 256), timeout)
    sent = packet()._replace(reverse=True)
    if case != "no record":
        chain = C2 if case == "the record holds another chain" else C1
        master.reconcile(sent.session.key, chain, -2.5 if case == "the record is inactive on arrival" else 3.5)
    if case == "a long trip is still pending":
        sim._late = 3.5
    sim.loop.now = 3.5
    send(sim, "lb2", sent, C1)
    arrival = 3.5
    for _ in range(6):  # lb2 -> es2 -> cs1 -> nf1 -> cs1 -> es1 -> lb1
        arrival += 0.0013
    if settled:
        assert sim.loop._heap == []
        assert master.table[sent.session.key].last_timestamp == arrival
        assert sim.result.delivered_bytes == sent.size
    else:
        assert [entry[0] for entry in sim.loop._heap] == [arrival]
        assert sim.result.delivered_bytes == 0
    if case == "the trip outlasts the timeout":
        assert sim._late == arrival


def test_nf_below_capacity_no_queueing():
    nf = NfInstance("nf", C1, mode="capacity", capacity=10_000.0)
    assert nf.admit(packet(), 0.0) == pytest.approx(100 / 10_000.0)


def test_nf_queue_overflow_drops():
    nf = NfInstance("nf", C1, mode="capacity", capacity=100.0, queue_limit=3)
    departures = [nf.admit(packet(), 0.0) for _ in range(5)]
    assert departures.count(None) == 2
    assert departures[:3] == pytest.approx([1.0, 2.0, 3.0])


def reference_admission(arrivals, capacity, queue_limit):
    """An NF's queue as one event per arrival and per departure: a count of
    queued packets that each departure event takes one from.

    Each arrival is pushed at its own instant, after every departure pushed
    before it, so a departure at an arrival's instant runs first: the
    same-instant rule. Returns {arrival index: departure} and the dropped
    indices."""
    loop = EventLoop()
    state = {"busy_until": 0.0, "queued": 0}
    departures, dropped = {}, set()

    def arrive(i, size):
        now = loop.now
        if queue_limit and state["queued"] >= queue_limit:
            dropped.add(i)
            return
        departure = max(now, state["busy_until"]) + size / capacity
        state["busy_until"] = departure
        state["queued"] += 1
        departures[i] = departure
        loop.schedule(departure, depart)

    def depart():
        state["queued"] -= 1

    for i, (at, size) in enumerate(arrivals):
        loop.schedule(at, loop.schedule, at, arrive, i, size)
    loop.run()
    return departures, dropped


# gaps in 1/256 s and power-of-two capacities make exact ties between a
# departure and an arrival common; the others make rounded sums
GAPS = st.one_of(st.integers(0, 6).map(lambda k: k / 256), st.floats(0.0, 0.05))
CAPACITIES = st.sampled_from([256.0, 1024.0, 4096.0, 1000.0, 3e3, 7777.7])


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    steps=st.lists(st.tuples(GAPS, st.integers(1, 64)), min_size=1, max_size=60),
    start=st.sampled_from([0.0, 0.1, 3.0]),
    capacity=CAPACITIES,
    queue_limit=st.integers(0, 6),
)
def test_admission_in_arrival_order_matches_departure_events(steps, start, capacity,
                                                             queue_limit):
    arrivals, at = [], start
    for gap, size in steps:
        at += gap
        arrivals.append((at, size))
    expected, expected_dropped = reference_admission(arrivals, capacity, queue_limit)
    nf = NfInstance("nf", C1, mode="capacity", capacity=capacity, queue_limit=queue_limit)
    departures, dropped = {}, set()
    for i, (at, size) in enumerate(arrivals):
        departure = nf.admit(packet()._replace(size=size), at)
        if departure is None:
            dropped.add(i)
        else:
            departures[i] = departure
    assert dropped == expected_dropped
    assert departures == expected  # float equality: the same bits


# -- measurement


def make_series(rows):
    series = ThroughputSeries((C1, C2))
    for chain, sec, size in rows:
        per_chain = series.buckets.setdefault(chain, {})
        per_chain[sec] = per_chain.get(sec, 0) + size
    return series


def test_measure_convergence_already_balanced():
    series = make_series([(c, s, 100) for c in (C1, C2) for s in range(10)])
    assert measure_convergence(series, [C1, C2], 0.0, band=0.10) == 0.0


def test_measure_convergence_after_shift():
    rows = []
    for sec in range(10):
        if sec < 5:
            rows.append((C1, sec, 200))
            rows.append((C2, sec, 0))
        else:
            rows.append((C1, sec, 100))
            rows.append((C2, sec, 100))
    assert measure_convergence(make_series(rows), [C1, C2], 2.0, band=0.10) == 3.0


def test_measure_convergence_never():
    rows = [(C1, s, 200) for s in range(10)] + [(C2, s, 10) for s in range(10)]
    with pytest.raises(NeverConverged):
        measure_convergence(make_series(rows), [C1, C2], 0.0, band=0.10)


def test_measure_convergence_ignores_silent_tail():
    rows = [(C1, s, 100) for s in range(3)]  # lopsided, then silence
    with pytest.raises(NeverConverged):
        measure_convergence(make_series(rows), [C1, C2], 0.0, band=0.10)


def test_measure_drain():
    rows = [(C1, s, 100) for s in range(10)] + [(C2, s, 50) for s in range(4)]
    assert measure_drain(make_series(rows), C2, 1.0) == 3.0


# -- full runs


def test_static_run_conserves_and_balances():
    result = netsim.run(small_scenario())
    assert result.leftover_bytes == 0
    assert result.dropped_bytes == 0
    assert not result.anomalies
    assert result.vectors_equal
    totals = {c: result.series.total_for(c) for c in (C1, C2)}
    assert sum(totals.values()) == 150 * 30_000
    share = totals[C1] / sum(totals.values())
    assert 0.40 < share < 0.60


def test_run_determinism():
    a = netsim.run(small_scenario())
    b = netsim.run(small_scenario())
    assert list(a.series.csv_rows()) == list(b.series.csv_rows())
    assert a.events == b.events
    assert a.message_trace == b.message_trace


def test_seed_changes_stream():
    a = netsim.run(small_scenario())
    b = netsim.run(small_scenario(seed=2))
    assert list(a.series.csv_rows()) != list(b.series.csv_rows())


def test_add_chain_mid_run():
    scenario = small_scenario(
        chains=(C1,),
        actions=(Action(at=1.0, op="add", pair=C2),),
        horizon=15.0,
    )
    result = netsim.run(scenario)
    assert result.clean
    assert [c["generation"] for c in result.commits] == [1]
    late = [s for s in result.session_starts if s[0] > 1.01]
    assert any(s[2] == C2 for s in late)
    early = [s for s in result.session_starts if s[0] < 1.0]
    assert all(s[2] == C1 for s in early)


def test_remove_chain_mid_run_reclaims():
    scenario = small_scenario(
        actions=(Action(at=1.0, op="remove", pair=C2),),
        horizon=20.0,
    )
    result = netsim.run(scenario)
    assert result.clean
    assert C2 in result.reclaims
    last = result.last_packet_on[C2]
    reclaim = result.reclaims[C2]
    assert last + 6.0 <= reclaim + 1e-9 <= last + 6.0 + 0.25 + 0.05
    # after the drain second, the victim carries nothing
    drain_s = measure_drain(result.series, C2, 1.0)
    assert drain_s <= 7.0


def test_interleaved_operations_stay_clean():
    # cleanliness implies every session stuck to one chain (or was reconciled)
    scenario = small_scenario(
        actions=(
            Action(at=1.0, op="add", pair=C3),
            Action(at=2.0, op="rebalance"),
        ),
        horizon=16.0,
    )
    result = netsim.run(scenario)
    assert result.clean
    assert [c["generation"] for c in result.commits] == [1, 2]


def test_direction_symmetry_and_agreement():
    result = netsim.run(small_scenario())
    # no divergence without vector changes; slave mirrored every assignment
    assert result.divergences == 0
    assert result.reconciled_sessions == 0


def test_rebalance_skew_shifts_allocation():
    scenario = small_scenario(
        actions=(Action(at=1.5, op="rebalance"),),
    )
    result = netsim.run(scenario)
    assert result.clean
    assert [c["generation"] for c in result.commits] == [1]
    alloc = result.commits[0]["alloc"]
    assert sum(n for _, _, n in alloc) == 256


def test_collision_stress_run_stays_clean():
    # sessions sharing 4-tuples inherit the active key's chain; nothing in
    # the accounting may flag that as an anomaly
    scenario = small_scenario(
        traffic=TrafficProfile(
            sessions=200, rate=100.0, bytes_per_session=20_000,
            packet_size=3000, duration_jitter=0.4, collide_fraction=0.3,
        ),
        horizon=12.0,
    )
    result = netsim.run(scenario)
    assert result.clean
    assert result.leftover_bytes == 0


COLLIDING = TrafficProfile(sessions=200, rate=100.0, bytes_per_session=20_000, packet_size=3000,
                           duration_jitter=0.4, collide_fraction=0.3)
# sha256 of the three outputs of two colliding runs, the one kind of run in
# which a record per session and a table entry per key differ: no bundled
# scenario or bench workload shares a key between sessions. The second adds
# a chain and removes one while keys are shared, so sessions diverge,
# reconcile and cross two chains (108 divergences, 46 anomalies)
PINNED_COLLIDING_DIGESTS = {
    "static": {
        "series.csv": "771a9d8308a757fc3fc9667d520569392d922441936ec1ecad24cf375ced0332",
        "events.jsonl": "2923c7d19fcfbe50fa831683b3af7e224361735f6f03dd7f015a5e44c9c124a1",
        "report.json": "4d2597c1fd4723215a3960829a4e9b0cc763220c699970415cfa27c0aaa04f5e",
    },
    "add-remove": {
        "series.csv": "4660b57b4b51c09a41ebcba4ba6802cd2b988ae96cbbb39200124b361e00ac13",
        "events.jsonl": "4e085d678acb04bf92c79eefe43d18ba17512c757a81bcec24b376b0e2ebd0d7",
        "report.json": "e61741641b6e846755eded33f1c445a73bc5ec3ed8824765a314dfc461ebda9c",
    },
}


@pytest.mark.parametrize("case", sorted(PINNED_COLLIDING_DIGESTS))
def test_colliding_run_outputs_match_pinned_digests(case, tmp_path):
    actions = ()
    if case == "add-remove":
        actions = (Action(at=1.0, op="add", pair=C3), Action(at=1.5, op="remove", pair=C1))
    result = netsim.run(small_scenario(traffic=COLLIDING, actions=actions, horizon=12.0))
    cli.write_outputs(result, tmp_path)
    assert {
        output: hashlib.sha256((tmp_path / output).read_bytes()).hexdigest()
        for output in ("series.csv", "events.jsonl", "report.json")
    } == PINNED_COLLIDING_DIGESTS[case]


def test_stats_polls_conserve_mapped_bytes():
    # merged windows, summed over all polls plus the residue, account for
    # every injected byte exactly (each byte is mapped once: forward at the
    # master, reverse at the slave)
    sim = netsim.NetSim(small_scenario())
    result = sim.run()
    sim._stats_poll()  # one closing poll collects whatever the last window missed
    sim.loop.run()
    polled = sum(
        n for e in result.events if e["event"] == "stats" for _, n in e["bytes"]
    )
    assert polled == result.injected_bytes


def refuse_once(monkeypatch, sim, poll):
    """Make the management system answer the first call of its `poll`
    method with a refusal (None), as it does when a balancer refuses; the
    poll's messages still go out, and later polls are answered."""
    original = getattr(sim.ms, poll)
    refused = []

    def polled(*args, on_done, **kwargs):
        if not refused:
            refused.append(None)
            return original(*args, on_done=lambda answer: on_done(None), **kwargs)
        return original(*args, on_done=on_done, **kwargs)

    monkeypatch.setattr(sim.ms, poll, polled)


def test_a_refused_path_poll_polls_again_instead_of_reclaiming(monkeypatch):
    # the first poll of the removed chain is answered "active" in this run;
    # refused, it says nothing of the chain's sessions, so the chain is
    # polled again a poll interval later and reclaimed when the answered
    # run reclaims it. Read as "idle", the refusal reclaimed C2 at once,
    # with the chain still carrying sessions
    scenario = small_scenario(actions=(Action(at=1.0, op="remove", pair=C2),), horizon=20.0)
    answered = netsim.run(scenario)
    sim = netsim.NetSim(scenario)
    refuse_once(monkeypatch, sim, "poll_path_active")
    result = sim.run()
    assert [(a["reason"], a["session"]) for a in result.anomalies] == [
        ("path poll for (4,5) refused", -1)]
    assert result.reclaims == answered.reclaims
    assert [e for e in result.events if e["event"] != "anomaly"] == answered.events


def test_a_refused_stats_poll_records_an_anomaly(monkeypatch):
    # a refused stats poll has no window to write: it records one anomaly
    # in place of its stats line, and the run goes on as the answered one.
    # Read as a window, the refusal raised AttributeError
    scenario = small_scenario()
    answered = netsim.run(scenario)
    sim = netsim.NetSim(scenario)
    refuse_once(monkeypatch, sim, "poll_stats")
    result = sim.run()
    assert [(a["reason"], a["session"]) for a in result.anomalies] == [("stats poll refused", -1)]
    first_stats = next(i for i, e in enumerate(answered.events) if e["event"] == "stats")
    anomaly = result.events.index(result.anomalies[0])
    assert result.events[anomaly]["t"] == answered.events[first_stats]["t"]
    assert result.events[:anomaly] + result.events[anomaly + 1:] == (
        answered.events[:first_stats] + answered.events[first_stats + 1:])


# -- walks


def walk_end(sim, topology, walk, key):
    """Check a walk the build made to leave by `key` (stateful node, egress
    port, tags) against the route the testbed's rules give from there, one
    link at a time, and return the name of the node the route ends at: the
    walk crosses as many links, each of the scenario's latency, and reaches
    the same NF (by chain) or the same end. A walk into an NF goes on from
    the NF's port across from the one the route reached it by."""
    end, port, hops = hop_by_hop(topology, *key)
    assert walk.links == (sim.latency,) * hops, key
    if walk.nf is None:
        # a host, or a balancer's agent, which any tag left names the chain
        # of: the walk keeps no tag, and only a walk into the master ends in
        # an event there
        assert (walk.onward, walk.admit, walk.master) == (None, None, end == "lb1"), key
        return end
    # the NF is crossed: a capacity NF admits at the send, and the leave is
    # booked inline
    admit = None if walk.nf.mode == "passthrough" else walk.nf.admit
    assert (walk.nf.name, walk.nf.chain, walk.admit, walk.master) == (
        end, topology.chains[end], admit, False), key
    return walk_end(sim, topology, walk.onward, (end, far_port(port), ()))


def assert_walks_match_topology(sim):
    """Every walk `sim` built is the route through the testbed's rules
    (`tests/topology.py`): each balancer's send on each chain, into the
    chain's NF and on to the server from the master, to the master from the
    slave; the master's send to the client; and both hosts' walks."""
    pairs = sim.scenario.all_pairs()
    topology = Topology(pairs)
    (_, forward), (_, reverse) = sim._first_balancer
    for chain in pairs:
        assert walk_end(sim, topology, forward[chain], ("lb1", 1, (chain.forward_tag,))) == "server"
        assert walk_end(sim, topology, reverse[chain], ("lb2", 1, (chain.reverse_tag,))) == "lb1"
    assert walk_end(sim, topology, sim.to_client, ("lb1", 1, ())) == "client"
    assert sim._client_links == sim.to_client.links
    for host, balancer in (("client", "lb1"), ("server", "lb2")):
        end, _, hops = hop_by_hop(topology, host, 1, ())
        assert (end, sim._host_latencies) == (balancer, (sim.latency,) * hops), host


def test_compiled_walks_match_hop_by_hop_route():
    # for 1 to 8 chains, in both NF modes
    for mode in ("passthrough", "capacity"):
        nf = {} if mode == "passthrough" else dict(nf_capacity=2e6, nf_queue_limit=8)
        for count in range(1, 9):
            chains = tuple(ChainId(2 * k, 2 * k + 1) for k in range(1, count + 1))
            assert_walks_match_topology(
                netsim.NetSim(small_scenario(chains=chains, nf_mode=mode, **nf)))


WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"


def bundled_scenarios():
    """Every bundled scenario and bench workload."""
    scenarios = [cli.bundled_scenario(name) for name in cli.SCENARIO_ORDER]
    scenarios += [parse_scenario(path) for path in sorted(WORKLOADS.glob("*.yaml"))]
    assert len(scenarios) == 12
    return scenarios


def test_build_compiles_exactly_the_walks_a_run_can_take():
    # a balancer that maps sends on a declared or an added chain, even one a
    # remove action names: the build makes each balancer one send per chain,
    # and both sends on a chain cross its one NF, named in chain order (a
    # drop's events.jsonl entry names it). Construction only, on every
    # bundled scenario and workload
    for scenario in bundled_scenarios():
        (_, forward), (_, reverse) = netsim.NetSim(scenario)._first_balancer
        pairs = scenario.all_pairs()
        assert list(forward) == list(reverse) == list(pairs), scenario.name
        assert [forward[c].nf.name for c in pairs] == [f"nf{i}" for i in range(1, len(pairs) + 1)]
        assert all(forward[c].nf is reverse[c].nf for c in pairs), scenario.name


def test_every_compiled_walk_carries_one_latency_per_link_crossed():
    # construction only, on every bundled scenario and workload: each walk
    # the build makes, and the NF's walk on from each one into an NF, holds
    # the scenario's link latency once per link the route crosses
    for scenario in [*bundled_scenarios(), small_scenario(link_latency=0.0013)]:
        assert_walks_match_topology(netsim.NetSim(scenario))


def test_forward_walks_reach_every_stateful_hop():
    sim = netsim.NetSim(small_scenario(link_latency=0.0013))
    (_, forward), (_, reverse) = sim._first_balancer
    nf1 = nf_of(sim, C1)
    two, three, five = ((0.0013,) * n for n in (2, 3, 5))  # a walk's links
    assert sim._host_latencies == two
    # the master's send crosses the NF with no event there and goes on by
    # the NF's own walk, through the slave's pop, to the server: counted
    # when sent, no event
    assert forward[C1] == (three, nf1, (five, None, None, None, False), None, False)
    assert sim.to_client == (two, None, None, None, False)
    # the slave's send reaches the master, through the NF's port 1: its one
    # event on the way
    assert reverse[C1] == (three, nf1, (three, None, None, None, True), None, False)


def with_plan(monkeypatch, sim, plan_for):
    """Hand sim.run() the planned packets `plan_for(packets, start)` returns
    instead of the scenario's, where `start` is when the handshake ended:
    run() calls generate_traffic once the handshake is done."""
    monkeypatch.setattr(netsim, "generate_traffic", lambda traffic, seed: plan_for(
        list(generate_traffic(traffic, seed)), sim.loop.now))


def schedule_after_handshake(monkeypatch, sim, at, fn):
    """Schedule fn with the traffic, once run() has drained the handshake,
    so that it runs at `at` among the packets."""
    with_plan(monkeypatch, sim, lambda packets, start: sim.loop.schedule(at, fn) or packets)


def watch_balancers(monkeypatch, seen):
    """Call seen(sim, packet, chain, now) at every arrival a balancer
    handles (the master's, when not settled at the slave's send), before
    it does. It patches the class, so it watches every simulator."""
    arrive = netsim.NetSim._master_arrival

    def watched(sim, p, chain, now):
        seen(sim, p, chain, now)
        arrive(sim, p, chain, now)

    monkeypatch.setattr(netsim.NetSim, "_master_arrival", watched)


def test_packet_arrival_and_control_callback_at_one_time_run_in_creation_order(monkeypatch):
    # transmit pushes the master's arrival with the loop's one sequence
    # counter, so it ties with a scheduled callback exactly as two scheduled
    # callbacks would. The master holds no record of the stray's session, so
    # its arrival is not settled at the slave's send: it takes an entry
    stray = packet(10_000)._replace(reverse=True)
    order = []

    def seen(sim, p, chain, now):
        if p is stray:
            order.append(("packet", now))

    watch_balancers(monkeypatch, seen)
    for packet_first in (True, False):
        order.clear()
        sim = netsim.NetSim(small_scenario(link_latency=0.0013))

        def send_stray():
            sim.result.injected_bytes += stray.size
            assert stray.session.key not in sim.master_agent.balancer.table
            arrival = sim.loop.now
            for _ in range(6):  # lb2 -> es2 -> cs1 -> nf1 -> cs1 -> es1 -> lb1
                arrival += 0.0013
            control = lambda: order.append(("control", sim.loop.now))
            if packet_first:
                send(sim, "lb2", stray, C1)
                sim.loop.schedule(arrival, control)
            else:
                sim.loop.schedule(arrival, control)
                send(sim, "lb2", stray, C1)

        schedule_after_handshake(monkeypatch, sim, 0.3, send_stray)
        result = sim.run()
        kinds = ["packet", "control"] if packet_first else ["control", "packet"]
        assert [kind for kind, _ in order] == kinds
        assert order[0][1] == order[1][1]
        assert result.clean


def first_hop_arrivals(monkeypatch):
    """(packet, time) of every planned packet's arrival at its first
    balancer, in order, of the simulators run after this call: the arrival
    loop sends each one on with one `transmit` call at its arrival time."""
    arrivals = []
    transmit = netsim.NetSim.transmit

    def watched(sim, walk, p, at):
        arrivals.append((p, at))
        transmit(sim, walk, p, at)

    monkeypatch.setattr(netsim.NetSim, "transmit", watched)
    return arrivals


def test_run_refuses_planned_arrivals_out_of_time_order(monkeypatch):
    arrivals = first_hop_arrivals(monkeypatch)
    sim = netsim.NetSim(small_scenario(link_latency=0.0013))
    first, second = packet(0)._replace(time=1.0), packet(1)._replace(time=0.5)
    with_plan(monkeypatch, sim, lambda packets, start: [first, second])
    with pytest.raises(ValueError, match="out of time order"):
        sim.run()
    assert [p for p, _ in arrivals] == [first]


def reference_order(arrivals, scheduled, until):
    """The order the merged loop must run entries in, by brute force: each
    step runs the least pending entry by (time, arrivals first, plan order
    or push order). An arrival after `until` ends the stream; the index of
    that one, or None, comes back with the order."""
    limit = math.inf if until is None else until
    pushes = itertools.count()
    pending = []
    late = None
    for i, (at, delays) in enumerate(arrivals):
        if at > limit:
            late = i
            break
        pending.append((at, 0, i, ("arrival", i), delays))
    pending += [(at, 1, next(pushes), ("scheduled", i), delays)
                for i, (at, delays) in enumerate(scheduled)]
    ran = []
    while True:
        due = [entry for entry in pending if entry[0] <= limit]
        if not due:
            return ran, late
        entry = min(due, key=lambda e: e[:3])
        pending.remove(entry)
        at, _, _, label, delays = entry
        ran.append((label, at))
        pending += [(at + d, 1, next(pushes), (label, j), ()) for j, d in enumerate(delays)]


# few distinct times, so that ties are common; delays of 0 push an entry at
# the instant that is running, as a zero link latency does. A planned
# packet arrives two 0.25 s links after it is sent, exactly TRIP later
TIMES = st.sampled_from([0.0, 0.25, 0.5, 1.0])
TRIP = 0.5
CALLBACKS = st.tuples(TIMES, st.lists(st.sampled_from([0.0, 0.25, 0.5]), max_size=3))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    arrivals=st.lists(CALLBACKS, max_size=8),
    scheduled=st.lists(CALLBACKS, max_size=8),
    until=st.sampled_from([None, 0.0, 0.25, 0.5, 1.0]),
    start=st.sampled_from([0.0, 0.25]),
)
def test_planned_arrivals_run_merged_with_the_heap_in_reference_order(arrivals, scheduled,
                                                                      until, start):
    # each callback, a planned packet's send on from its first balancer or
    # a scheduled entry, pushes one entry per delay when it runs; the plan
    # is sorted by time, stably, so ties keep plan order. The packets are
    # sent at their planned time or at `start`, if that is later, and the
    # scheduled entries and the horizon are at arrival times. The handshake
    # runs first, so that the balancers map the arrivals
    arrivals = sorted(arrivals, key=lambda a: a[0])
    sim = netsim.NetSim(small_scenario(link_latency=0.25))
    sim._handshake()
    loop = sim.loop
    ran = []

    def call(label, delays):
        ran.append((label, loop.now))
        for j, d in enumerate(delays):
            loop.schedule(loop.now + d, call, (label, j), ())

    plan = [packet(i)._replace(time=at) for i, (at, _) in enumerate(arrivals)]
    sim.transmit = lambda walk, p, at: call(("arrival", p.session.session_id),
                                            arrivals[p.session.session_id][1])
    scheduled = [(at + TRIP, delays) for at, delays in scheduled]
    for i, (at, delays) in enumerate(scheduled):
        loop.schedule(at, call, ("scheduled", i), delays)
    until = None if until is None else until + TRIP
    sim.horizon = math.inf if until is None else until
    returned = sim._run_arrivals(iter(plan), start)
    expected, late = reference_order(
        [(max(at, start) + TRIP, delays) for at, delays in arrivals], scheduled, until)
    assert ran == expected
    # the packet that ended the stream comes back unrun, or None
    assert returned is (None if late is None else plan[late])
    # what stays is exactly what falls after the limit
    assert all(at > sim.horizon for at, *_ in loop._heap)


def test_planned_arrival_runs_before_a_callback_at_its_instant(monkeypatch):
    # the callback is pushed before the run sends any packet, and the planned
    # packet's arrival only when the packet planned before it arrives; the
    # arrival still runs first
    arrivals = first_hop_arrivals(monkeypatch)
    sim = netsim.NetSim(small_scenario(link_latency=0.0013))
    targets = []

    def plan_for(packets, start):
        target = next(p for p in packets[10:] if not p.reverse)
        arrival = max(target.time, start)
        for _ in range(2):  # client -> es1 -> lb1
            arrival += 0.0013
        sim.loop.schedule(arrival, lambda: arrivals.append(("control", sim.loop.now)))
        targets.append((target, arrival))
        return packets

    with_plan(monkeypatch, sim, plan_for)
    result = sim.run()
    (target, arrival), = targets
    assert arrivals.index((target, arrival)) < arrivals.index(("control", arrival))
    assert result.clean


def test_stats_request_at_a_planned_arrival_counts_the_packet_in_the_closing_window(
        monkeypatch):
    # the first poll (0.5 s) reaches the master at 0.625 and the master's
    # stats_request the slave at 0.75, where the slave closes its window. A
    # reverse packet planned at 0.6875 reaches the slave at 0.6875 + 2 *
    # 0.03125 == 0.75 too: its entry is pushed after the request's, and it
    # still runs first, so the closing window counts its bytes
    arrivals = first_hop_arrivals(monkeypatch)
    sim = netsim.NetSim(small_scenario(link_latency=0.03125, control_latency=0.125,
                                       window_length=1.0))
    stray = packet()._replace(time=0.6875, reverse=True)
    with_plan(monkeypatch, sim, lambda packets, start: [stray])
    result = sim.run()
    assert arrivals == [(stray, 0.75)]
    stats = [e for e in result.events if e["event"] == "stats"]
    assert sum(n for _, n in stats[0]["bytes"]) == stray.size
    assert sum(n for e in stats[1:] for _, n in e["bytes"]) == 0
    assert result.clean


def test_packets_planned_before_the_handshake_ends_arrive_two_links_after_it(monkeypatch):
    # sessions start every millisecond and the handshake takes four control
    # hops (0.004 s): the packets planned before it ends are sent when it
    # ends, and reach the master one latency per link later, in plan order
    traffic = TrafficProfile(sessions=20, rate=1000.0, bytes_per_session=30_000,
                             packet_size=3000, duration_jitter=0.4)
    arrivals = first_hop_arrivals(monkeypatch)
    sim = netsim.NetSim(small_scenario(link_latency=0.0013, traffic=traffic))
    starts = []
    with_plan(monkeypatch, sim, lambda packets, start: starts.append(start) or packets)
    result = sim.run()
    start = starts[0]
    assert start == 0.004
    early = [(p, now) for p, now in arrivals if p.time < start]
    assert [p.session.session_id for p, _ in early] == [0, 1, 2, 3]
    assert {now for _, now in early} == {(start + 0.0013) + 0.0013}
    assert result.clean


@pytest.mark.parametrize("with_traffic", [True, False])
def test_planned_packets_at_the_horizon(with_traffic, monkeypatch):
    # 0.25 s links, 15 s horizon. Planned at 14.5, a packet reaches the
    # master at the horizon and is handled; planned at 14.75 or at 15.0, it
    # was sent within the run but reaches the master after it: injected, and
    # left over. One planned after 15.0 was never sent. Without the traffic,
    # the first planned packet is the one that arrives late.
    scenario = small_scenario(link_latency=0.25, horizon=15.0)
    base = netsim.run(scenario)
    base_packets, base_bytes = (base.packets, base.injected_bytes) if with_traffic else (0, 0)
    arrivals = first_hop_arrivals(monkeypatch)
    sim = netsim.NetSim(scenario)
    times = (14.5, 14.75, 15.0, math.nextafter(15.0, math.inf))[0 if with_traffic else 1:]
    late = [packet(10_000 + i)._replace(time=t) for i, t in enumerate(times)]
    with_plan(monkeypatch, sim, lambda packets, start: (packets if with_traffic else []) + late)
    result = sim.run()
    handled = [p for p, _ in arrivals if p.session.session_id >= 10_000]
    assert handled == (late[:1] if with_traffic else [])
    sent = len(times) - 1
    assert result.packets == base_packets + sent
    assert result.injected_bytes == base_bytes + sent * 100
    assert result.leftover_bytes == sent * 100
    assert not result.anomalies


def horizon_run(monkeypatch, sent_at):
    """A run that sends one stray packet from the master through C1's NF to
    the server at sent_at, over eight 0.25 s links, with a 15 s horizon."""
    sim = netsim.NetSim(small_scenario(link_latency=0.25, horizon=15.0))
    stray = packet()

    def send_stray():
        sim.result.injected_bytes += stray.size
        send(sim, "lb1", stray, C1)

    schedule_after_handshake(monkeypatch, sim, sent_at, send_stray)
    return sim.run(), stray


def test_clean_host_arrival_at_the_horizon_is_delivered(monkeypatch):
    result, _ = horizon_run(monkeypatch, 13.0)  # 13.0 + 8 * 0.25 == 15.0, exactly
    assert result.clean
    assert result.leftover_bytes == 0


def test_clean_host_arrival_after_the_horizon_is_left_over(monkeypatch):
    result, stray = horizon_run(monkeypatch, 13.25)  # arrives at 15.25
    assert not result.anomalies
    assert result.leftover_bytes == stray.size


def test_nf_crossing_pushes_no_entry_on_a_kept_or_a_removed_chain(monkeypatch):
    # C2 is removed at 2.0 and C1 kept: either NF is crossed at the
    # balancer's send and its leave booked inline. The only entry a crossing
    # pushes is the master's arrival beyond the NF, on a slave's send whose
    # leave is booked by the horizon, and only when the arrival is not
    # settled at the send: here, each session's first response on a chain
    # the master did not map, which the master reconciles. In both modes; a
    # capacity NF with no queue limit drops nothing.
    arrivals = []
    watch_balancers(monkeypatch, lambda sim, p, chain, now: arrivals.append(chain))
    for nf in ({}, dict(nf_mode="capacity", nf_capacity=2e6)):
        arrivals.clear()
        sim = netsim.NetSim(small_scenario(actions=(Action(at=2.0, op="remove", pair=C2),), **nf))
        assert nf_of(sim, C1).in_flight is None
        assert nf_of(sim, C2).in_flight is sim.in_flight[C2]
        transmit, series = sim.transmit, sim.result.series
        crossed, pushes = Counter(), Counter()

        def counted(walk, p, now):
            chain = walk.nf.chain
            before, total = sim.loop._seq, series.total_for(chain)
            transmit(walk, p, now)
            booked = series.total_for(chain) - total
            assert booked in (0, p.size)
            pushed = sim.loop._seq - before
            assert pushed <= (1 if booked and walk.onward.master else 0), nf
            crossed[chain] += booked
            pushes[chain] += pushed

        sim.transmit = counted
        result = sim.run()
        assert result.reclaims[C2] > 2.0, nf
        # every byte either chain carried was booked by a crossing
        assert crossed[C2] == result.series.total_for(C2) > 0, nf
        assert crossed[C1] == result.series.total_for(C1) > 0, nf
        reconciles = [e for e in result.events if e["event"] == "reconcile"]
        assert pushes.total() == len(reconciles) == result.divergences > 0, nf
        # each entry is one master arrival, on the chain whose NF it crossed
        assert Counter(arrivals) == pushes, nf
        assert result.clean, nf


# the reclaim of C2 and the time of every "packet crossed reclaimed chain"
# anomaly, for the run below in each NF mode, as the simulator gave them
# when each leave on a removed chain was a heap event read at the NF
IN_FLIGHT_CROSSINGS = {
    "passthrough": (2.514, [
        2.514362, 2.521317, 2.529046, 2.543333, 2.548745, 2.570616, 2.578191, 2.578371,
        2.601682, 2.601889, 2.621047, 2.6296, 2.631752, 2.641938, 2.672022, 2.675365,
        2.675587, 2.676841, 2.703333, 2.716227, 2.721012, 2.721633, 2.730739,
    ]),
    "capacity": (2.514, [
        2.514888, 2.522388, 2.529888, 2.537388, 2.544333, 2.556245, 2.578116, 2.585691,
        2.593191, 2.609182, 2.616682, 2.628547, 2.6371, 2.6446, 2.6521, 2.679522,
        2.687022, 2.694522, 2.702022, 2.704333, 2.723727, 2.731227, 2.738727, 2.746227,
    ]),
}


def test_packets_in_flight_to_a_reclaimed_chain_are_caught_at_the_nf():
    # 0.25 s links: packets the master sends to C2 before the reclaim reach
    # its NF after it. Each leave is booked at the send, before the reclaim,
    # and flagged when the reclaim is recorded, at its departure time
    for mode, (reclaim, times) in IN_FLIGHT_CROSSINGS.items():
        nf = {} if mode == "passthrough" else dict(nf_mode="capacity", nf_capacity=4e5)
        result = netsim.run(small_scenario(
            link_latency=0.25, session_timeout=0.5, horizon=20.0,
            actions=(Action(at=2.0, op="remove", pair=C2),), **nf,
        ))
        assert result.reclaims[C2] == pytest.approx(reclaim), mode
        crossed = [a for a in result.anomalies
                   if a["reason"] == "packet crossed reclaimed chain (4,5)"]
        assert [a["t"] for a in crossed] == times, mode
        stamps = [e["t"] for e in result.events]
        assert stamps == sorted(stamps), mode


def test_leave_booked_after_the_reclaim_is_caught_at_its_departure(monkeypatch):
    # a stray the master sends to C2 a second after C2's reclaim: its leave
    # is booked once the reclaim is recorded, so it is read against
    # result.reclaims at the send, and flagged at its departure from the NF
    scenario = small_scenario(actions=(Action(at=1.0, op="remove", pair=C2),), horizon=20.0)
    reclaim = netsim.run(scenario).reclaims[C2]
    sim = netsim.NetSim(scenario)
    stray = packet(10_000)
    sent_at = math.ceil(reclaim) + 1.0

    def send_stray():
        sim.result.injected_bytes += stray.size
        send(sim, "lb1", stray, C2)

    schedule_after_handshake(monkeypatch, sim, sent_at, send_stray)
    result = sim.run()
    assert result.reclaims[C2] == reclaim < sent_at
    departure = sent_at
    for _ in range(3):  # lb1 -> es1 -> cs2 -> nf2
        departure += scenario.link_latency
    assert [(a["reason"], a["session"], a["t"]) for a in result.anomalies] == [
        ("packet crossed reclaimed chain (4,5)", 10_000, round(departure, 6))]
    stamps = [e["t"] for e in result.events]
    assert stamps == sorted(stamps)


@pytest.mark.parametrize("sent_at, booked", [
    (14.25, True),  # 14.25 + 3 * 0.25 == 15.0, exactly the horizon
    (math.nextafter(14.25, math.inf), False),  # reaches the NF just after it
])
def test_nf_crossing_at_the_horizon(sent_at, booked, monkeypatch):
    # from either balancer, the send pushes nothing: the node beyond the NF
    # gets the packet after the horizon, so the slave's send pushes no
    # arrival at the master, and the master's goes on through the slave's
    # pop to the server
    for node in ("lb2", "lb1"):
        sim = netsim.NetSim(small_scenario(link_latency=0.25, horizon=15.0))
        stray = packet(10_000)
        pushed = []

        def send_stray():
            sim.result.injected_bytes += stray.size
            before = sim.loop._seq
            send(sim, node, stray, C1)
            pushed.append(sim.loop._seq - before)

        schedule_after_handshake(monkeypatch, sim, sent_at, send_stray)
        result = sim.run()
        assert not result.anomalies
        # the node beyond the NF would get it after the horizon
        assert result.leftover_bytes == stray.size
        assert pushed == [0]
        if booked:
            assert result.series.bytes_at(C1, 15) == stray.size
            assert result.last_packet_on[C1] == 15.0
        else:
            assert result.series.bytes_at(C1, 15) == 0
            assert result.last_packet_on[C1] < 15.0


def run_outputs(sim):
    """Run the simulator and return the bytes of its three output files."""
    result = sim.run()
    with tempfile.TemporaryDirectory() as out:
        cli.write_outputs(result, Path(out))
        return result, {name: (Path(out) / name).read_bytes()
                        for name in ("series.csv", "events.jsonl", "report.json")}


ACTION_PAIRS = {"add": C3, "remove": C1, "rebalance": None}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    sessions=st.integers(1, 40),
    rate=st.sampled_from([10.0, 40.0]),
    packets=st.integers(2, 18),  # both directions, of 1,000 bytes
    duration=st.sampled_from([0.5, 2.0, 4.0]),
    response_delay=st.sampled_from([0.0, 0.02]),
    collide_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    session_timeout=st.sampled_from([0.05, 0.3, 6.0]),
    link_latency=st.sampled_from([0.0013, 0.03, 0.25]),
    nf=st.sampled_from([{}, dict(nf_mode="capacity", nf_capacity=1e5),
                        dict(nf_mode="capacity", nf_capacity=4e4, nf_queue_limit=6)]),
    actions=st.lists(st.tuples(st.sampled_from(sorted(ACTION_PAIRS)),
                               st.sampled_from([0.3, 1.0, 2.5])),
                     max_size=3, unique_by=lambda a: a[0]),
    seed=st.integers(1, 5),
)
# a packet queued at the NF for longer than the timeout reaches the master
# after the slave sent later packets of its key on another chain
@example(sessions=25, rate=40.0, packets=18, duration=4.0, response_delay=0.0,
         collide_fraction=1.0, session_timeout=0.05, link_latency=0.0013,
         nf=dict(nf_mode="capacity", nf_capacity=1e5), actions=[("rebalance", 0.3)], seed=4)
def test_master_arrivals_booked_at_the_send_change_no_output(
        sessions, rate, packets, duration, response_delay, collide_fraction,
        session_timeout, link_latency, nf, actions, seed):
    # the same scenario run as built and with every master arrival pushed to
    # the heap, where the master reconciles it: the outputs are the same
    # bytes. Timeouts below the response spacing expire the slave's record
    # between responses; 0.25 s links send responses before their session's
    # first reconcile; a capacity NF queues packets for longer than a timeout
    traffic = TrafficProfile(
        sessions=sessions, rate=rate, bytes_per_session=1000 * packets, packet_size=1000,
        request_bytes=1000, duration=duration, duration_jitter=0.1,
        response_delay=response_delay, collide_fraction=collide_fraction,
    )
    scenario = small_scenario(
        seed=seed, traffic=traffic, session_timeout=session_timeout,
        link_latency=link_latency, window_length=1.0, horizon=6.0,
        actions=tuple(Action(at, op, ACTION_PAIRS[op]) for op, at in actions),
        **nf,
    )
    built, built_out = run_outputs(netsim.NetSim(scenario))
    with pytest.MonkeyPatch.context() as patch:
        held = netsim.NetSim(scenario)
        # as if an arrival were pending for ever: none after it is settled
        # at its send
        patch.setattr(held, "_late", math.inf)
        held, held_out = run_outputs(held)
    assert built_out == held_out
    # each arrival booked at the send is one heap entry fewer
    assert built.scheduled_events <= held.scheduled_events


def test_entries_due_before_the_handshake_ends_run_when_it_ends():
    # four control hops of 0.3 s: the handshake ends at 1.2, after the
    # action (0.0) and the first session sweep (1.0) are due; the loop
    # refuses an entry in its past, so run() schedules both at 1.2
    scenario = small_scenario(control_latency=0.3,
                              actions=(Action(at=0.0, op="add", pair=C3),))
    result = netsim.run(scenario)
    [fired] = [e for e in result.events if e["event"] == "action_add"]
    assert fired["t"] == 1.2
    assert [e["event"] for e in result.events if e["event"].startswith("committed")] == [
        "committed_add"]
    assert result.clean


def test_run_refuses_a_loop_that_already_holds_entries():
    # run() drains its handshake with no time limit: an entry pushed before
    # it would run during that drain and stamp early packets with its time
    sim = netsim.NetSim(small_scenario())
    sim.loop.schedule(0.3, lambda: None)
    with pytest.raises(RuntimeError, match="empty event loop"):
        sim.run()


def test_failed_action_records_sessionless_anomaly():
    scenario = small_scenario(chains=(C1,), actions=(Action(at=1.0, op="remove", pair=C1),),
                              horizon=3.0)
    result = netsim.run(scenario)
    failures = [e for e in result.anomalies if e["reason"].startswith("action remove failed")]
    assert len(failures) == 1
    assert list(failures[0]) == ["t", "event", "reason", "session"]
    assert failures[0]["event"] == "anomaly" and failures[0]["session"] == -1


def test_static_1_event_count_gate():
    # planned arrivals plus heap entries: each packet's arrival at its first
    # balancer (800 sessions of one request and 25 response packets) and 64
    # of the control plane; neither a clean arrival at a host, the slave's
    # pop, a passthrough NF crossing nor a settled arrival at the master
    # takes one. With no vector change every response finds the master's
    # record on its chain, so none of them is a data-path heap entry. Each
    # reverse packet's arrival at the master as an entry too made 40,864, an
    # arrival at the slave for each forward packet too 41,664, 3 per packet
    # (an injection event too) 62,464, 4 per packet 83,264, one event per
    # stateful hop 104,064 and per-link scheduling 228,864. Tighten this
    # when the count drops.
    result = netsim.run(cli.bundled_scenario("static-1").with_seed(1))
    assert result.packets == 20_800
    assert result.scheduled_events == 20_800 + 64 == 20_864


CAPACITY_DRAIN = WORKLOADS / "capacity-drain.yaml"


def test_capacity_drain_event_count_gate(monkeypatch):
    # heap entries on the one workload with capacity NFs (scale-in 3 -> 2 -> 1):
    # each packet's arrival at its first balancer, the master's arrival of
    # each of the 120 responses it cannot settle at the slave's send (each a
    # session's first response on a chain the master did not map, which it
    # reconciles), one event per queue drop, and 342 of the control plane.
    # An NF crossing is admitted at the send and its leave booked inline on
    # a removed chain too. Each reverse packet's arrival at the master that
    # reaches it (28,806 of 30,000: the others are dropped or reach it after
    # the horizon) made 62,366, a leave event on the removed chains too
    # 74,455, an arrival at the slave per forward packet too 76,431, an
    # injection event per packet 108,431, and an arrival and a departure
    # event per crossing 157,906.
    unsettled = []
    watch_balancers(monkeypatch, lambda sim, p, chain, now: unsettled.append(p))
    result = netsim.run(parse_scenario(CAPACITY_DRAIN).with_seed(1))
    assert result.packets == 32_000
    assert sum(1 for e in result.events if e["event"] == "drop") == 1_218
    assert result.divergences == len(unsettled) == 120
    assert result.scheduled_events == 32_000 + 120 + 1_218 + 342 == 33_680


def test_short_flows_event_count_gate(monkeypatch):
    # planned arrivals plus heap entries on the workload of 3-packet
    # sessions (one request, two responses): each packet's arrival at its
    # first balancer, the master's arrival of each of the 645 responses it
    # cannot settle at the slave's send (each a session's first response on
    # a chain the master did not map), and 122 of the control plane. Each
    # response's arrival at the master made 30,122, a leave event per
    # crossing of the removed chain too 32,937, and an arrival at the slave
    # per request too 38,937.
    unsettled = []
    watch_balancers(monkeypatch, lambda sim, p, chain, now: unsettled.append(p))
    result = netsim.run(parse_scenario(WORKLOADS / "short-flows.yaml").with_seed(1))
    assert result.packets == 18_000
    assert len(result.session_starts) == 6_000
    assert result.divergences == len(unsettled) == 645
    assert result.scheduled_events == 18_000 + 645 + 122 == 18_767


def test_long_flows_event_count_gate():
    # planned arrivals plus heap entries on the workload of 16-packet
    # sessions (one request, 15 responses) that adds two passthrough chains
    # and removes one: each packet's arrival at its first balancer, the
    # master's arrival of each of the 120 responses it cannot settle at the
    # slave's send (each a session's first response on a chain the master
    # did not map), and 329 of the control plane; no NF crossing takes one,
    # on the removed chain either. Each response's arrival at the master
    # made 56,129, a leave event per crossing of the removed chain too
    # 58,405.
    result = netsim.run(parse_scenario(WORKLOADS / "long-flows.yaml").with_seed(1))
    assert result.packets == 28_800
    assert len(result.session_starts) == 1_800
    assert result.divergences == 120
    assert result.scheduled_events == 28_800 + 120 + 329 == 29_249


def test_long_flows_booked_arrival_gate(monkeypatch):
    # work counter: the master's arrivals booked at the slave's send, each
    # one heap entry and one NetSim._master_arrival call fewer than in the same
    # run with every arrival pushed to the heap. All 27,000 responses reach
    # the master by the horizon; the 120 not booked are the divergent ones
    handled = []
    watch_balancers(monkeypatch, lambda sim, p, chain, now: handled.append(p))
    scenario = parse_scenario(WORKLOADS / "long-flows.yaml").with_seed(1)
    built = netsim.run(scenario)
    unsettled = len(handled)
    handled.clear()
    held = netsim.NetSim(scenario)
    monkeypatch.setattr(held, "_late", math.inf)  # as if an arrival were pending for ever
    held = held.run()
    assert unsettled == built.divergences == 120
    assert len(handled) == 15 * 1_800
    assert held.scheduled_events - built.scheduled_events == len(handled) - unsettled == 26_880


def test_static_1_canonical_key_gate(monkeypatch):
    # work counter: a run calls canonical_key 0 times, whichever module
    # calls it. The plan packs each client's key straight from its draws
    # (tests/test_traffic.py checks that packing against canonical_key);
    # packing it with canonical_key took 800 calls, once per session, and
    # per packet 20,800
    calls = []
    original = hashing.canonical_key

    def counted(a, b):
        calls.append(None)
        return original(a, b)

    for name, module in list(sys.modules.items()):
        if name.startswith("chainbalance") and getattr(module, "canonical_key", None) is original:
            monkeypatch.setattr(module, "canonical_key", counted)
    result = netsim.run(cli.bundled_scenario("static-1").with_seed(1))
    assert result.packets == 20_800
    assert len(result.session_starts) == 800
    assert calls == []


@pytest.mark.parametrize("name, sessions", [
    ("static-1", 800), ("short-flows", 6_000), ("long-flows", 1_800), ("capacity-drain", 2_000),
])
def test_hash_key_runs_once_per_session_gate(name, sessions, monkeypatch):
    # work counter: a run calls hash_key 0 times, whichever module calls it.
    # The plan hashes each new client's key inline, from its fixed parts,
    # into the session's record, and a balancer's table miss maps by that
    # hash. Both balancers hashing the key on their miss took two calls per
    # session: static-1 1,600, short-flows 12,000, long-flows 3,600 and
    # capacity-drain 4,000; the plan calling hash_key once per session took
    # one call per session. No bundled run reuses a key, the one case the
    # plan hashes with hash_key
    calls = []
    original = hashing.hash_key

    def counted(key):
        calls.append(None)
        return original(key)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("chainbalance") and getattr(module, "hash_key", None) is original:
            monkeypatch.setattr(module, "hash_key", counted)
    if name == "static-1":
        scenario = cli.bundled_scenario(name)
    else:
        scenario = parse_scenario(WORKLOADS / f"{name}.yaml")
    result = netsim.run(scenario.with_seed(1))
    assert len(result.session_starts) == scenario.traffic.sessions == sessions
    assert calls == []


def profiled_run(scenario):
    """Run the scenario with every Python-level function call counted.

    Returns the result and the calls per code object while the run
    simulates; building the NetSim is not counted. A call into C (a
    builtin, a C method) is no Python-level call. The cyclic collector is
    paused: a collection would count the gc callbacks other libraries
    register (hypothesis does) and the close of any suspended generator
    that earlier tests left as garbage."""
    sim = netsim.NetSim(scenario)
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = sim.run()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return result, calls


def test_static_1_python_calls_per_packet_gate():
    # work counter, not wall time: Python-level function calls while the run
    # simulates. ChainId hashes, compares and sorts in C, so of its functions
    # only the constructor runs, once per chain decoded from a control
    # message. The frozen dataclass made 7.0 __hash__ and 1.04 __eq__ calls
    # per packet, and the whole run 36.0 calls per packet. A mutable copy of
    # each planned packet, built to carry its tag list, took it to 22.93; the
    # planned packet with a tag tuple made 21.93 (21.97 with the one event
    # writer). A data path that pushes its heap entries itself, counts clean
    # host arrivals when sent and books a passthrough NF inline made 12.97;
    # compiling the balancer's send through the NF made 10.97, a planned
    # packet whose injection is its arrival at the first balancer (no send
    # from the host) 9.97, and with that arrival an entry of the loop's
    # arrival stream, the slave's pop and the master's delivery compiled
    # into the walks, 9.93; planning the traffic in one pass, with no
    # per-session record, 9.86. Booking the master's settled arrival at the
    # slave's send (no heap entry, handler or reconcile per response) and
    # mapping each planned packet in `inject`, which notes the slave's map
    # only when it records something, made it 5.93; building each planned
    # packet in C, with no Python-level PlannedPacket constructor, 4.93.
    # Drawing each client with getrandbits and packing its key from the
    # draws (no randrange, Endpoint or canonical_key call), and hash_key
    # with its finalizer inlined, made it 4.43; one session record that
    # carries its key's hash from the plan (hash_key once per session, no
    # SessionTrace constructor) and a table record built with no __init__
    # call, 4.32. NetSim.run reading the plan itself, with no generator
    # resumed per packet to reach `inject`, made it 3.32: one call fewer per
    # packet, less one `EventLoop.run` call per batch of heap entries due
    # between two arrivals (31 here, all of the control plane). The arrival
    # loop mapping each packet itself, with no `inject` call, made it 2.32.
    # Hashing each planned key inline from its fixed parts (no hash_key
    # call per session) and mapping a table miss with no
    # `BucketVector.lookup` call made it 2.205.
    result, calls = profiled_run(cli.bundled_scenario("static-1").with_seed(1))
    chain_code = {
        getattr(attr, "__func__", attr).__code__: name
        for name, attr in vars(ChainId).items()
        if hasattr(getattr(attr, "__func__", attr), "__code__")
    }
    assert result.packets == 20_800
    assert {chain_code[code]: n for code, n in calls.items() if code in chain_code} == {
        "__new__": 14
    }
    assert calls.total() <= 2.22 * result.packets


def test_short_flows_python_calls_per_packet_gate():
    # work counter: 6,000 three-packet sessions, so a session's setup weighs
    # on every packet. Drawing a client took 11 Python-level calls (three
    # randrange and three _randbelow, Endpoint's __init__, __post_init__ and
    # __le__, canonical_key, uniform), and hashing its key twice, at the
    # master and the slave, 4 (hash_key and _fmix64 each): 12.50 calls per
    # packet. Drawing with getrandbits, and hash_key with its finalizer
    # inlined (2 calls per session), made it 7.73. Hashing once, in the
    # plan, into the session's record, which replaces the SessionTrace and
    # its constructor, and building each balancer's table record with no
    # __init__ call (the Session constructor is one call per session) make
    # it 6.73. NetSim.run reading the plan itself, with no generator resumed
    # per packet, made it 5.76: 18,000 calls fewer, and 593 `EventLoop.run`
    # calls for the batches of heap entries due between two arrivals, most
    # of them the master's unsettled arrivals. The arrival loop mapping each
    # packet itself, with no `inject` call, and the master's 645 unsettled
    # arrivals booking the send to the client with no `transmit` call, made
    # it 4.725. Hashing each planned key inline from its fixed parts (no
    # hash_key call per session) and mapping each of the 12,000 table
    # misses with no `BucketVector.lookup` call made it 3.725
    result, calls = profiled_run(parse_scenario(WORKLOADS / "short-flows.yaml").with_seed(1))
    assert result.packets == 18_000
    assert calls.total() <= 3.74 * result.packets


def test_long_flows_python_calls_per_packet_gate():
    # work counter: Balancer.path_active's any() over a generator resumed
    # it 44,373 times on the drain polls, 1.54 calls per packet of the 7.20;
    # with a plain loop, the client draw and hash_key with its finalizer
    # inlined, it read 4.85, and with one hash and one record per session
    # (no SessionTrace or SessionRecord constructor), 4.66. NetSim.run
    # reading the plan itself, with no generator resumed per packet, made it
    # 3.67 (260 `EventLoop.run` calls for the heap entries due between two
    # arrivals). The arrival loop mapping each packet itself, with no
    # `inject` call, and the master's 120 unsettled arrivals booking the
    # send to the client with no `transmit` call, made it 2.663; hashing
    # each planned key inline and mapping a table miss with no
    # `BucketVector.lookup` call, 2.476
    result, calls = profiled_run(parse_scenario(WORKLOADS / "long-flows.yaml").with_seed(1))
    assert result.packets == 28_800
    assert calls.total() <= 2.49 * result.packets


def test_capacity_drain_python_calls_per_packet_gate():
    # work counter: every packet is admitted by a capacity NF (one `admit`
    # call), and 1,218 queue drops each take a heap entry and a `drop` call.
    # With the arrival stream a generator resumed per packet it read 5.72;
    # NetSim.run reading the plan itself made it 4.76, with 1,141
    # `EventLoop.run` calls for the batches of heap entries due between two
    # arrivals. The arrival loop mapping each packet itself, with no
    # `inject` call, and the master's 120 unsettled arrivals booking the
    # send to the client with no `transmit` call, made it 3.755; hashing
    # each planned key inline and mapping a table miss with no
    # `BucketVector.lookup` call, 3.568
    result, calls = profiled_run(parse_scenario(WORKLOADS / "capacity-drain.yaml").with_seed(1))
    assert result.packets == 32_000
    assert calls.total() <= 3.58 * result.packets


# events.jsonl key order per kind; `*` stands for the action's op
EVENT_KEYS = {
    "session_start": ("t", "event", "session", "chain"),
    "divergence": ("t", "event", "session", "master_chain", "slave_chain"),
    "reconcile": ("t", "event", "session", "old_chain", "new_chain"),
    "drop": ("t", "event", "reason", "node", "session"),
    "commit": ("t", "event", "generation", "alloc", "drain"),
    "stats": ("t", "event", "window_s", "bytes"),
    "action_*": ("t", "event", "pair"),
    "committed_*": ("t", "event", "generation", "vectors_equal"),
    "reclaim": ("t", "event", "pair"),
    "anomaly": ("t", "event", "reason", "session"),
}


def short_scenario(**overrides):
    traffic = TrafficProfile(sessions=100, rate=50.0, bytes_per_session=30_000,
                             packet_size=3000, duration=1.0, duration_jitter=0.2)
    return small_scenario(traffic=traffic, session_timeout=0.5, window_length=0.5,
                          horizon=5.0, **overrides)


def test_events_jsonl_keeps_the_key_order_of_every_kind(tmp_path):
    ops = short_scenario(
        actions=(Action(at=0.5, op="add", pair=C3), Action(at=1.0, op="remove", pair=C1),
                 Action(at=1.5, op="rebalance")),
    )
    # capacity NFs that overflow, and a remove of the last chain that fails
    faults = short_scenario(
        chains=(C1,), nf_mode="capacity", nf_capacity=1_000_000.0, nf_queue_limit=4,
        actions=(Action(at=0.5, op="remove", pair=C1),),
    )
    seen = {}
    for i, result in enumerate((netsim.run(ops), netsim.run(faults))):
        cli.write_outputs(result, tmp_path / str(i))
        with open(tmp_path / str(i) / "events.jsonl") as fh:
            for line in fh:
                event = json.loads(line)
                assert event["t"] == round(event["t"], 6)
                kind = event["event"]
                if kind.startswith(("action_", "committed_")):
                    kind = kind.split("_")[0] + "_*"
                seen.setdefault(kind, set()).add(tuple(event))
                if "pair" in event:
                    assert event["pair"] is None or len(event["pair"]) == 2
                if kind == "commit":
                    assert all(len(row) == 3 for row in event["alloc"])
    assert seen == {kind: {keys} for kind, keys in EVENT_KEYS.items()}


def test_run_result_round_trips_through_pickle():
    # a plain value, so a run can be shipped from a worker process
    result = netsim.run(cli.bundled_scenario("static-2").with_seed(1))
    copy = pickle.loads(pickle.dumps(result))
    assert type(copy) is netsim.RunResult
    assert copy == result
    assert cli.build_report(copy) == cli.build_report(result)
