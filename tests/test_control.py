from pathlib import Path

import pytest

from chainbalance.control import (
    ClusterConfig,
    ControlMessage,
    ManagementSystem,
    DEFAULT_BARRIER_TIMEOUT,
    MasterAgent,
    SlaveAgent,
    Transport,
    decode_message,
    encode_message,
)
from chainbalance.engine import EventLoop
from chainbalance.errors import UnknownChain
from chainbalance.hashing import ChainId, Endpoint, canonical_key

C1 = ChainId(2, 3)
C2 = ChainId(4, 5)
C3 = ChainId(6, 7)


def make_config(chains=(C1, C2), bucket_count=1024):
    return ClusterConfig(
        hash_seed=99,
        bucket_count=bucket_count,
        session_timeout=6.0,
        chains=tuple(chains),
    )


def make_agents(transport=None):
    transport = transport or Transport(EventLoop(), 0.0)
    slave = SlaveAgent("slave", transport)
    master = MasterAgent("master", transport)
    ms = ManagementSystem("ms", transport, "master", "slave")
    return ms, master, slave


def make_cluster(chains=(C1, C2), bucket_count=1024):
    ms, master, slave = make_agents()
    ok(call(ms.handshake, make_config(chains, bucket_count)))
    return ms, master, slave


def call(method, *args, **kwargs):
    """Run one management-system call to completion; return what on_done got."""
    done = []
    method(*args, on_done=done.append, **kwargs)
    method.__self__.transport.loop.run()
    assert len(done) == 1
    return done[0]


def ok(reply):
    assert reply.payload["ok"], reply.payload["error"]
    return reply


def error_name(reply):
    assert reply.payload["ok"] is False
    return reply.payload["error"].split(":", 1)[0]


def forward_packet(sport, t, size=100):
    """map_packet's (key, size, now) for a client-to-server packet."""
    key = canonical_key(Endpoint.parse("10.0.0.1", sport), Endpoint.parse("10.9.9.9", 80))
    return key, size, t


def test_wire_roundtrip():
    msg = ControlMessage(
        "allocation_commit",
        {"phase": "prepare", "generation": 3, "alloc": [[2, 3, 512], [4, 5, 512]]},
        src="master",
        req_id=17,
    )
    decoded, rest = decode_message(encode_message(msg))
    assert rest == b""
    assert decoded == msg


def test_wire_decode_rejects_truncation():
    data = encode_message(ControlMessage("ack", {"ok": True}, "slave", 1, reply_to=17))
    with pytest.raises(ValueError):
        decode_message(data[:3])
    with pytest.raises(ValueError):
        decode_message(data[:-1])


def test_handshake_single_chain():
    ms, master, slave = make_cluster(chains=(C1,))
    assert master.balancer.buckets.slots == (C1,) * 1024
    assert slave.balancer.buckets.slots == (C1,) * 1024


def test_handshake_builds_identical_vectors():
    ms, master, slave = make_cluster(chains=(C1, C2))
    assert master.balancer.buckets == slave.balancer.buckets
    counts = master.balancer.buckets.counts()
    assert counts == {C1: 512, C2: 512}


def test_handshake_before_slave_up():
    transport = Transport(EventLoop(), 0.0)
    MasterAgent("master", transport)
    ms = ManagementSystem("ms", transport, "master", "slave")
    assert error_name(call(ms.handshake, make_config())) == "SlaveUnreachable"
    # bringing the slave up makes the same call succeed
    SlaveAgent("slave", transport)
    assert ok(call(ms.handshake, make_config())).payload["generation"] == 0


def test_add_chain_from_one_to_two():
    ms, master, slave = make_cluster(chains=(C1,))
    ok(call(ms.add_chain, C2, now=5.0))
    counts = master.balancer.buckets.counts()
    assert counts == {C1: 512, C2: 512}
    assert master.balancer.buckets == slave.balancer.buckets


def test_add_chain_two_to_three_equal_windows():
    # no traffic at all: the quiet-window floor makes both chains equal
    ms, master, slave = make_cluster(chains=(C1, C2))
    ok(call(ms.add_chain, C3, now=5.0))
    counts = master.balancer.buckets.counts()
    assert counts == {C1: 342, C2: 341, C3: 341}
    assert master.balancer.buckets == slave.balancer.buckets


def test_add_chain_duplicate_tags():
    ms, master, slave = make_cluster(chains=(C1, C2))
    reply = call(ms.add_chain, ChainId(4, 9), now=1.0)  # forward tag 4 already used
    assert error_name(reply) == "DuplicateTags"
    assert master.committed == slave.committed == [0]


def test_remove_chain_then_path_active():
    ms, master, slave = make_cluster(chains=(C1, C2))
    ok(call(ms.remove_chain, C2, now=1.0))
    assert C2 not in master.balancer.buckets.chains()
    assert C2 in master.balancer.draining
    assert C2 in slave.balancer.draining
    assert call(ms.poll_path_active, C2, now=1.0) is False


def test_remove_last_chain_refused():
    ms, master, slave = make_cluster(chains=(C1,))
    assert error_name(call(ms.remove_chain, C1, now=1.0)) == "LastChain"


def test_remove_unknown_chain():
    ms, master, slave = make_cluster(chains=(C1, C2))
    with pytest.raises(UnknownChain):
        ms.remove_chain(C3, now=1.0, on_done=None)


def test_remove_chain_not_live():
    # announced, but already drained: the master refuses, nothing changes
    ms, master, slave = make_cluster(chains=(C1, C2))
    ok(call(ms.remove_chain, C2, now=1.0))
    assert error_name(call(ms.remove_chain, C2, now=2.0)) == "UnknownChain"
    assert master.committed == slave.committed == [0, 1]
    assert master.balancer.buckets.counts() == {C1: 1024}


def test_remove_with_lingering_slave_session():
    ms, master, slave = make_cluster(chains=(C1, C2))
    # find a session that lands on C2 and park it on the slave only
    sport = 5000
    while slave.balancer.map_packet(*forward_packet(sport, t=0.0)) != C2:
        sport += 1
    ok(call(ms.remove_chain, C2, now=1.0))
    assert call(ms.poll_path_active, C2, now=2.0) is True  # slave still has it
    assert call(ms.poll_path_active, C2, now=6.1) is False  # expired at 0 + 6


def test_poll_stats_merges_both_sides():
    ms, master, slave = make_cluster(chains=(C1,))
    master.balancer.map_packet(*forward_packet(5000, t=0.5, size=300))
    slave.balancer.map_packet(*forward_packet(5000, t=0.6, size=200))
    window = call(ms.poll_stats, now=5.0)
    assert window.bytes[C1] == 500
    # counters reset: next poll sees nothing
    assert call(ms.poll_stats, now=10.0).bytes[C1] == 0


def test_rebalance_even_windows_is_fixed_point():
    ms, master, slave = make_cluster(chains=(C1, C2))
    before = master.balancer.buckets.counts()
    ok(call(ms.request_rebalance, now=5.0))
    assert master.balancer.buckets.counts() == before


def test_rebalance_skewed_window():
    ms, master, slave = make_cluster(chains=(C1, C2))
    # 300 bytes on C1, 100 on C2, all on the master side
    sport = 5000
    seen = {C1: 0, C2: 0}
    while min(seen.values()) == 0:
        key = canonical_key(
            Endpoint.parse("10.0.0.1", sport), Endpoint.parse("10.9.9.9", 80)
        )
        chain = master.balancer.buckets.lookup(key)
        if seen[chain] == 0:
            seen[chain] = sport
        sport += 1
    master.balancer.map_packet(*forward_packet(seen[C1], t=0.5, size=300))
    master.balancer.map_packet(*forward_packet(seen[C2], t=0.5, size=100))
    ok(call(ms.request_rebalance, now=5.0))
    assert master.balancer.buckets.counts() == {C1: 256, C2: 768}
    assert master.balancer.buckets == slave.balancer.buckets


def test_generations_match_after_every_commit():
    ms, master, slave = make_cluster(chains=(C1,))
    ok(call(ms.add_chain, C2, now=1.0))
    ok(call(ms.request_rebalance, now=2.0))
    ok(call(ms.add_chain, C3, now=3.0))
    ok(call(ms.remove_chain, C2, now=4.0))
    assert master.committed == [0, 1, 2, 3, 4]
    assert slave.committed == [0, 1, 2, 3, 4]
    assert master.balancer.buckets == slave.balancer.buckets


def test_rebalance_never_remaps_active_sessions():
    ms, master, slave = make_cluster(chains=(C1, C2))
    assignments = {}
    for sport in range(5000, 5100):
        assignments[sport] = master.balancer.map_packet(*forward_packet(sport, t=0.0))
    ok(call(ms.request_rebalance, now=1.0))
    for sport, chain in assignments.items():
        assert master.balancer.map_packet(*forward_packet(sport, t=2.0)) == chain


class DroppingTransport(Transport):
    """Delivers everything except allocation prepares to the slave."""

    def send(self, src, dst, msg):
        if dst == "slave" and msg.kind == "allocation_commit":
            return
        super().send(src, dst, msg)


def test_barrier_timeout_rolls_back():
    loop = EventLoop()
    ms, master, slave = make_agents(DroppingTransport(loop, 0.0))
    ok(call(ms.handshake, make_config(chains=(C1,))))

    result = {}
    ms.add_chain(C2, now=1.0, on_done=lambda reply: result.update(reply.payload))
    loop.run(until=DEFAULT_BARRIER_TIMEOUT / 2)
    assert not result  # still pending: prepare was dropped
    loop.run()
    assert loop.now == DEFAULT_BARRIER_TIMEOUT
    assert result["ok"] is False
    assert result["error"] == "BarrierTimeout"
    # previous generation stays in force on both sides
    assert master.balancer.buckets.counts() == {C1: 1024}
    assert master.committed == [0]
    assert slave.committed == [0]
    # and the pipeline is free again: a working transport would now proceed
    assert master._current is None


class PhaseLog(Transport):
    """Records (send time, phase) of every allocation_commit message."""

    def __init__(self, loop, latency):
        super().__init__(loop, latency)
        self.phases = []

    def send(self, src, dst, msg):
        if msg.kind == "allocation_commit":
            self.phases.append((self.loop.now, msg.payload["phase"]))
        super().send(src, dst, msg)


def test_barrier_timer_after_prepare_ack_does_nothing():
    # at 0.3 s per hop the commit's ack arrives after the barrier timer fires,
    # while the op is still current but its generation is no longer staged
    latency = 0.3
    transport = PhaseLog(EventLoop(), latency)
    ms, master, slave = make_agents(transport)
    ok(call(ms.handshake, make_config(chains=(C1,))))
    reply = ok(call(ms.add_chain, C2, now=1.0))
    assert reply.payload["generation"] == 1
    assert master.committed == slave.committed == [0, 1]
    assert master.balancer.buckets == slave.balancer.buckets
    (prepared_at, prepare), (committed_at, commit) = transport.phases
    assert (prepare, commit) == ("prepare", "commit")  # and no abort
    assert committed_at < prepared_at + DEFAULT_BARRIER_TIMEOUT < committed_at + 2 * latency


def test_prepare_ack_after_barrier_timeout_is_ignored():
    # at 0.6 s per hop the prepare's ack arrives after the barrier timer
    latency = 0.6
    transport = PhaseLog(EventLoop(), latency)
    ms, master, slave = make_agents(transport)
    ok(call(ms.handshake, make_config(chains=(C1,))))
    assert error_name(call(ms.add_chain, C2, now=1.0)) == "BarrierTimeout"
    assert [phase for _, phase in transport.phases] == ["prepare", "abort"]
    assert master.committed == slave.committed == [0]
    assert master.balancer.buckets == slave.balancer.buckets
    assert master._staged is None and slave._staged is None
    assert master._current is None


def test_allocation_swap_is_deterministic_across_pairs():
    ms1, master1, slave1 = make_cluster(chains=(C1, C2))
    ms2, master2, slave2 = make_cluster(chains=(C1, C2))
    ok(call(ms1.add_chain, C3, now=5.0))
    ok(call(ms2.add_chain, C3, now=5.0))
    assert master1.balancer.buckets == master2.balancer.buckets
    assert slave1.balancer.buckets == slave2.balancer.buckets


def test_slave_rejects_commit_without_prepare():
    ms, master, slave = make_cluster(chains=(C1,))
    replies = []
    slave_addr = master.slave_name
    master.request(
        slave_addr,
        "allocation_commit",
        {"phase": "commit", "generation": 42},
        replies.append,
    )
    master.transport.loop.run()
    assert replies[0].payload["ok"] is False
    assert "staged" in replies[0].payload["error"]


def test_repeat_handshake_same_config_is_idempotent():
    # mid-run: after a commit, with live sessions on both sides
    ms, master, slave = make_cluster(chains=(C1, C2))
    ok(call(ms.add_chain, C3, now=1.0))
    for sport in range(5000, 5020):
        master.balancer.map_packet(*forward_packet(sport, t=2.0))
        slave.balancer.map_packet(*forward_packet(sport, t=2.0))
    vectors = (master.balancer.buckets, slave.balancer.buckets)
    tables = (dict(master.balancer.table), dict(slave.balancer.table))

    reply = ok(call(ms.handshake, make_config(chains=(C1, C2))))  # same cfg: accepted

    assert reply.payload["generation"] == 1
    assert master.committed == slave.committed == [0, 1]
    assert master.balancer.buckets is vectors[0]
    assert slave.balancer.buckets is vectors[1]
    assert master.balancer.buckets.counts() == {C1: 342, C2: 341, C3: 341}
    assert (master.balancer.table, slave.balancer.table) == tables
    assert len(master.balancer.table) == 20


def test_repeat_handshake_conflicting_config_rejected():
    ms, master, slave = make_cluster(chains=(C1, C2))
    reply = call(ms.handshake, make_config(chains=(C1, C2), bucket_count=2048))
    assert error_name(reply) == "ConfigMismatch"
    assert master.config.bucket_count == slave.config.bucket_count == 1024
    assert len(master.balancer.buckets) == 1024


def test_refused_handshake_leaves_the_pair_unchanged():
    # (a) a second management system names a slave that does not exist
    ms, master, slave = make_cluster(chains=(C1, C2))
    ghost = ManagementSystem("ms-ghost", master.transport, "master", "ghost")
    assert error_name(call(ghost.handshake, make_config(chains=(C1, C2)))) == "ConfigMismatch"
    assert master.slave_name == "slave"
    assert ok(call(ms.request_rebalance, now=1.0)).payload["generation"] == 1

    # (b) it names a registered second slave, after a commit: the master must
    # not commit the next generation with a slave the first one never sees
    ms, master, slave = make_cluster(chains=(C1, C2))
    ok(call(ms.add_chain, C3, now=1.0))
    slave2 = SlaveAgent("slave2", master.transport)
    other = ManagementSystem("ms2", master.transport, "master", "slave2")
    assert error_name(call(other.handshake, make_config(chains=(C1, C2)))) == "ConfigMismatch"
    assert slave2.config is None
    assert ok(call(ms.request_rebalance, now=2.0)).payload["generation"] == 2
    assert master.committed == slave.committed == [0, 1, 2]
    assert master.balancer.buckets == slave.balancer.buckets

    # (c) two first handshakes in flight at once: the first accepted fixes
    # the pair, and the second is refused when its slave's ack comes back
    ms, master, slave = make_agents()
    slave2 = SlaveAgent("slave2", master.transport)
    other = ManagementSystem("ms2", master.transport, "master", "slave2")
    replies = []
    ms.handshake(make_config(), on_done=replies.append)
    other.handshake(make_config(), on_done=replies.append)
    master.transport.loop.run()
    assert [r.payload["ok"] for r in replies] == [True, False]
    assert error_name(replies[1]) == "ConfigMismatch"
    assert master.slave_name == "slave"
    assert ok(call(ms.request_rebalance, now=1.0)).payload["generation"] == 1
    assert master.committed == slave.committed == [0, 1]
    assert slave2.committed == [0]  # configured by its handshake, never paired


def test_restarted_slave_handshake_refused_as_generation_mismatch():
    # after a commit, a fresh slave would ack generation 0 beside a master at 1
    ms, master, slave = make_cluster(chains=(C1, C2))
    ok(call(ms.add_chain, C3, now=1.0))
    vector = master.balancer.buckets
    SlaveAgent("slave", master.transport)  # the restarted slave takes the name
    reply = call(ms.handshake, make_config(chains=(C1, C2)))
    assert reply.payload["error"] == "GenerationMismatch: slave at 0, master at 1"
    assert master.committed == [0, 1]
    assert master.balancer.buckets is vector


def test_refused_polls_report_none():
    # before the handshake both balancers refuse every poll
    ms, master, slave = make_agents()
    ms.known.add(C1)  # announced, so the poll reaches the balancers
    assert call(ms.poll_stats, now=1.0) is None
    assert call(ms.poll_path_active, C1, now=1.0) is None
    # a restarted slave refuses while the master answers: still no verdict,
    # so the caller never reads the refusal as "inactive" and reclaims C2
    ms, master, slave = make_cluster(chains=(C1, C2))
    ok(call(ms.remove_chain, C2, now=1.0))
    SlaveAgent("slave", master.transport)
    assert call(ms.poll_path_active, C2, now=2.0) is None
    assert call(ms.poll_stats, now=2.0) is None
    assert master._current is None  # the refused stats op left the pipeline


def test_every_reply_is_one_ack():
    ms, master, slave = make_cluster(chains=(C1,))
    ok(call(ms.add_chain, C2, now=1.0))
    ok(call(ms.add_chain, C3, now=2.0))
    ok(call(ms.remove_chain, C2, now=3.0))
    ok(call(ms.request_rebalance, now=4.0))
    call(ms.poll_stats, now=5.0)
    call(ms.poll_path_active, C2, now=6.0)
    trace = master.transport.trace  # (src, dst, kind, req_id, reply_to)
    assert {kind for _, _, kind, _, reply_to in trace if reply_to is not None} == {"ack"}
    # exactly one reply per request
    asked = sorted((src, req_id) for src, _, _, req_id, reply_to in trace if reply_to is None)
    answered = sorted((dst, reply_to) for _, dst, _, _, reply_to in trace if reply_to is not None)
    assert answered == asked
    kinds = {kind for _, _, kind, _, reply_to in trace if reply_to is None}
    assert {"stats_request", "path_active_request", "allocation_commit"} <= kinds


def test_poll_path_active_unknown_chain():
    ms, master, slave = make_cluster(chains=(C1,))
    with pytest.raises(UnknownChain):
        ms.poll_path_active(C3, now=0.0, on_done=None)


def test_poll_path_active_on_live_chain_reports_activity():
    ms, master, slave = make_cluster(chains=(C1,))
    assert call(ms.poll_path_active, C1, now=0.0) is False
    master.balancer.map_packet(*forward_packet(5000, t=1.0))
    assert call(ms.poll_path_active, C1, now=2.0) is True


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(example, {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert "'ok': True, 'error': '', 'generation': 1}" in lines[1]
