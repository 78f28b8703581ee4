import random
from collections import Counter

import pytest

from chainbalance.balancer import Balancer
from chainbalance.control import alloc_from_wire, alloc_to_wire
from chainbalance.errors import NoLiveChains
from chainbalance.hashing import ChainId, Endpoint, HashParams, canonical_key

C1 = ChainId(2, 3)
C2 = ChainId(4, 5)
C3 = ChainId(6, 7)

PARAMS = HashParams(seed=1234, bucket_count=256)


def even_alloc(chains):
    per = PARAMS.bucket_count // len(chains)
    counts = [per] * len(chains)
    counts[0] += PARAMS.bucket_count - sum(counts)
    return list(zip(chains, counts))


def make_balancer(chains=(C1, C2), role="master", timeout=6.0):
    b = Balancer(role, PARAMS, session_timeout=timeout)
    b.install(b.stage_allocation(even_alloc(chains), generation=0))
    return b


def drain(b, victim):
    """Install the next generation without victim, marking victim draining."""
    survivors = [c for c in b.buckets.chains() if c != victim]
    b.install(b.stage_allocation(even_alloc(survivors), b.generation + 1), drain=victim)


def packet(sport, t, size=100, dport=80, reverse=False):
    """map_packet's (key, size, now) for one packet of a client-server session."""
    client = Endpoint.parse("10.0.0.1", sport)
    server = Endpoint.parse("10.9.9.9", dport)
    key = canonical_key(server, client) if reverse else canonical_key(client, server)
    return key, size, t


def test_fresh_key_creates_record():
    b = make_balancer(chains=(C1,))
    chain = b.map_packet(*packet(5000, t=1.0))
    assert chain == C1
    key = canonical_key(Endpoint.parse("10.0.0.1", 5000), Endpoint.parse("10.9.9.9", 80))
    assert b.table[key].assigned == C1
    assert b.table[key].last_timestamp == 1.0


def test_no_vector_raises():
    b = Balancer("master", PARAMS)
    with pytest.raises(NoLiveChains):
        b.map_packet(*packet(5000, t=0.0))


def test_active_session_sticks_through_vector_change():
    b = make_balancer()
    first = b.map_packet(*packet(6000, t=10.0))
    other = C1 if first == C2 else C2
    # replace the whole vector with the other chain only
    b.install(b.stage_allocation([(other, PARAMS.bucket_count)], generation=1))
    assert b.map_packet(*packet(6000, t=15.0)) == first  # 10 + 6 > 15: still active
    assert b.map_packet(*packet(6000, t=30.0)) == other  # expired: remapped


def test_session_expiry_boundary():
    b = make_balancer()
    b.map_packet(*packet(6000, t=10.0))
    b.install(b.stage_allocation([(C3, PARAMS.bucket_count)], generation=1))
    # refresh at t=15 extends the session to 21
    assert b.map_packet(*packet(6000, t=15.0)) != C3
    # s + timeout == now is no longer active
    assert b.map_packet(*packet(6000, t=21.0)) == C3


def test_reverse_direction_maps_to_same_chain():
    b = make_balancer()
    fwd = b.map_packet(*packet(7000, t=0.0))
    rev = b.map_packet(*packet(7000, t=0.5, reverse=True))
    assert fwd == rev


def test_draining_session_keeps_chain():
    b = make_balancer()
    rng = random.Random(4)
    victims = {}
    for _ in range(200):
        sport = rng.randrange(1024, 65000)
        chain = b.map_packet(*packet(sport, t=0.0))
        victims.setdefault(chain, sport)
    sport_on_c1 = victims[C1]
    drain(b, C1)
    assert C1 in b.draining
    assert C1 not in b.buckets.chains()
    # the active session still maps to the draining chain
    assert b.map_packet(*packet(sport_on_c1, t=3.0)) == C1


def test_drain_blocks_new_sessions():
    b = make_balancer(chains=(C1, C2, C3))
    drain(b, C2)
    rng = random.Random(11)
    for _ in range(10_000):
        src = Endpoint(bytes(rng.randrange(256) for _ in range(4)), rng.randrange(1024, 65000))
        key = canonical_key(src, Endpoint.parse("10.9.9.9", 80))
        assert b.map_packet(key, 100, 5.0) != C2


def test_drain_with_no_sessions_is_inactive_immediately():
    b = make_balancer()
    drain(b, C1)
    assert b.path_active(C1, now=0.0) is False


def test_drain_becomes_inactive_after_timeout():
    b = make_balancer()
    rng = random.Random(8)
    sport = None
    while sport is None:
        cand = rng.randrange(1024, 65000)
        if b.map_packet(*packet(cand, t=100.0)) == C1:
            sport = cand
    drain(b, C1)
    assert b.path_active(C1, now=103.0) is True
    assert b.path_active(C1, now=105.9) is True
    assert b.path_active(C1, now=106.0) is False


def test_path_active_boundary():
    b = make_balancer(chains=(C1,))
    b.map_packet(*packet(5000, t=100.0))
    assert b.path_active(C1, now=105.0) is True
    assert b.path_active(C1, now=106.0) is False
    assert b.path_active(C2, now=100.0) is False


def test_path_active_empty_table():
    b = make_balancer()
    assert b.path_active(C1, now=0.0) is False


def test_snapshot_window_counts_and_resets():
    b = make_balancer(chains=(C1,))
    for i in range(3):
        b.map_packet(*packet(5000 + i, t=0.5, size=100))
    w = b.snapshot_window(now=5.0)
    assert w.bytes[C1] == 300
    assert w.window_length == 5.0
    w2 = b.snapshot_window(now=10.0)
    assert w2.bytes[C1] == 0


def test_snapshot_never_double_counts():
    rng = random.Random(19)
    b = make_balancer()
    total = 0
    seen = 0
    for step in range(1, 11):
        for _ in range(rng.randrange(0, 40)):
            size = rng.randrange(1, 2000)
            b.map_packet(*packet(rng.randrange(1024, 65000), t=float(step), size=size))
            total += size
        w = b.snapshot_window(now=float(step))
        seen += sum(w.bytes.values())
    assert seen == total


def test_counter_conservation_per_window():
    rng = random.Random(23)
    b = make_balancer(chains=(C1, C2, C3))
    injected = 0
    for _ in range(500):
        size = rng.randrange(40, 1500)
        b.map_packet(*packet(rng.randrange(1024, 65000), t=1.0, size=size))
        injected += size
    w = b.snapshot_window(now=2.0)
    assert sum(w.bytes.values()) == injected


def test_expire_sessions():
    b = make_balancer()
    b.map_packet(*packet(5000, t=0.0))
    b.map_packet(*packet(5001, t=4.0))
    assert b.expire_sessions(now=4.0) == 0
    assert b.expire_sessions(now=7.0) == 1  # the t=0 record hit 0 + 6 <= 7
    assert len(b.table) == 1


def test_expiry_is_transparent_to_mapping():
    # identical packet stream, with and without sweeps: identical mappings
    rng = random.Random(31)
    stream = []
    t = 0.0
    for _ in range(2000):
        t += rng.random() * 0.5
        stream.append(packet(rng.randrange(1024, 2048), t=t, size=rng.randrange(1, 500)))

    plain = make_balancer()
    swept = make_balancer()
    results_plain = [plain.map_packet(*p) for p in stream]
    results_swept = []
    for i, (key, size, t) in enumerate(stream):
        if i % 50 == 0:
            swept.expire_sessions(t)
        results_swept.append(swept.map_packet(key, size, t))
    assert results_plain == results_swept


def test_reconcile_records_absent_key():
    b = make_balancer()
    key = canonical_key(Endpoint.parse("10.0.0.1", 9000), Endpoint.parse("10.9.9.9", 80))
    assert b.reconcile(key, C2, now=3.0) is None
    assert b.table[key].assigned == C2
    assert b.table[key].last_timestamp == 3.0


def test_reconcile_overwrites_divergent_assignment():
    b = make_balancer()
    chain = b.map_packet(*packet(9000, t=0.0))
    other = C1 if chain == C2 else C2
    key = canonical_key(Endpoint.parse("10.0.0.1", 9000), Endpoint.parse("10.9.9.9", 80))
    assert b.reconcile(key, other, now=1.0) == chain
    assert b.table[key].assigned == other
    # matching observation changes nothing but refreshes the timestamp
    assert b.reconcile(key, other, now=2.0) == other
    assert b.table[key].assigned == other
    assert b.table[key].last_timestamp == 2.0


def test_hit_and_reconcile_never_move_the_timestamp_back():
    # the simulator may set a record's timestamp ahead of the loop's time (a
    # master arrival booked at the slave's send); a packet read at an
    # earlier `now` keeps it, and still reconciles the chain
    b = make_balancer()
    key, size, _ = packet(9000, t=0.0)
    chain = b.map_packet(key, size, 1.0)
    b.table[key].last_timestamp = 4.0
    assert b.map_packet(key, size, 2.0) == chain
    assert b.table[key].last_timestamp == 4.0
    other = C1 if chain == C2 else C2
    assert b.reconcile(key, other, now=3.0) == chain
    assert (b.table[key].assigned, b.table[key].last_timestamp) == (other, 4.0)
    # a later `now` still moves it forward
    assert b.map_packet(key, size, 5.0) == other
    assert b.table[key].last_timestamp == 5.0


def test_reconcile_is_master_only():
    b = make_balancer(role="slave")
    key = canonical_key(Endpoint.parse("10.0.0.1", 9000), Endpoint.parse("10.9.9.9", 80))
    with pytest.raises(ValueError):
        b.reconcile(key, C1, now=0.0)


def test_affinity_across_interleaved_operations():
    rng = random.Random(47)
    b = make_balancer(chains=(C1, C2, C3))
    assigned = {}
    last_seen = {}
    t = 0.0
    generation = 1
    for step in range(4000):
        t += 0.01
        sport = rng.randrange(1024, 1224)  # small pool: sessions repeat often
        chain = b.map_packet(*packet(sport, t=t))
        if sport in assigned and last_seen[sport] + 6.0 > t:
            assert chain == assigned[sport], "active session switched chains"
        assigned[sport] = chain
        last_seen[sport] = t
        if step % 500 == 499:
            live = list(b.buckets.chains())
            rng.shuffle(live)
            b.install(b.stage_allocation(even_alloc(live), generation))
            generation += 1


def test_master_slave_agreement_static():
    rng = random.Random(53)
    master = make_balancer(role="master")
    slave = make_balancer(role="slave")
    for _ in range(2000):
        sport = rng.randrange(1024, 65000)
        fwd = packet(sport, t=1.0)
        rev = packet(sport, t=1.001, reverse=True)
        assert master.map_packet(*fwd) == slave.map_packet(*rev)


def test_vector_reads_cost_chain_comparisons_not_slot_comparisons(monkeypatch):
    # work counter, not wall time: with L=65536 installed, the commit path's
    # vector reads make O(chains) ChainId hash/eq calls; a slot scan makes 65536+
    params = HashParams(seed=5, bucket_count=65536)
    alloc = [(C1, 20000), (C2, 25536), (C3, 20000)]
    master, slave = Balancer("master", params), Balancer("slave", params)
    master_v = master.stage_allocation(alloc, generation=1)
    slave_v = slave.stage_allocation(alloc_from_wire(alloc_to_wire(alloc)), generation=1)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ChainId, "__hash__", counted("hash", ChainId.__hash__))
    monkeypatch.setattr(ChainId, "__eq__", counted("eq", ChainId.__eq__))
    master.install(master_v)
    slave.install(slave_v)
    for b in (master, slave):
        b.snapshot_window(1.0)
        b.current_profile()
    assert master.buckets == slave.buckets
    assert calls["eq"] > 0 and calls["hash"] > 0
    assert calls["hash"] + calls["eq"] <= 1000
