import copy
import dataclasses
import itertools
import pickle
import random
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbalance import netsim
from chainbalance.control import alloc_from_wire, alloc_to_wire, chain_from_wire, chain_to_wire
from chainbalance.errors import AllocationMismatch
from chainbalance.hashing import (
    _GAMMA,
    _LANES,
    _LOW_WORDS,
    MASK64,
    TAG_MAX,
    TAG_MIN,
    ChainId,
    Endpoint,
    HashParams,
    _from_lanes,
    _shuffled_index,
    _splitmix_block,
    build_buckets,
    canonical_key,
    hash_key,
)
from chainbalance.scenario import scenario_from_mapping

C1 = ChainId(2, 3)
C2 = ChainId(4, 5)


def random_endpoint(rng):
    return Endpoint(bytes(rng.randrange(256) for _ in range(4)), rng.randrange(1, 65536))


def test_canonical_key_symmetric():
    a = Endpoint.parse("10.0.0.1", 5000)
    b = Endpoint.parse("10.0.0.2", 80)
    assert canonical_key(a, b) == canonical_key(b, a)


def test_canonical_key_equal_endpoints():
    a = Endpoint.parse("10.0.0.1", 5000)
    # address bytes, then the port big-endian (5000 = 0x1388), once per side
    assert canonical_key(a, a) == bytes([10, 0, 0, 1, 0x13, 0x88]) * 2


def test_canonical_key_symmetric_randomized():
    rng = random.Random(7)
    for _ in range(1000):
        a, b = random_endpoint(rng), random_endpoint(rng)
        assert canonical_key(a, b) == canonical_key(b, a)


def test_endpoint_validation():
    with pytest.raises(ValueError):
        Endpoint(b"\x01\x02\x03", 80)
    with pytest.raises(ValueError):
        Endpoint(b"\x01\x02\x03\x04", 0)


def test_hash_key_deterministic():
    a = Endpoint.parse("192.168.1.10", 443)
    b = Endpoint.parse("10.1.0.1", 33000)
    key = canonical_key(a, b)
    assert hash_key(key) == hash_key(key)
    assert hash_key(canonical_key(a, b)) == hash_key(canonical_key(b, a))


def test_hash_key_occupancy():
    # 100k random keys into 1024 buckets: max occupancy <= 1.5x the mean
    rng = random.Random(123)
    buckets = [0] * 1024
    for _ in range(100_000):
        key = canonical_key(random_endpoint(rng), random_endpoint(rng))
        buckets[hash_key(key) % 1024] += 1
    mean = 100_000 / 1024
    assert max(buckets) <= 1.5 * mean


def test_hash_key_ipv6():
    a = Endpoint.parse("2001:db8::1", 443)
    b = Endpoint.parse("2001:db8::2", 5000)
    assert hash_key(canonical_key(a, b)) == hash_key(canonical_key(b, a))


def reference_hash(a, b):
    """The 64-bit session hash walked field by field over two Endpoints:
    lo before hi by Endpoint order, each as its address bytes, then
    port >> 8, then port & 0xFF, through FNV-1a and the fmix64 finalizer."""
    mask = 0xFFFF_FFFF_FFFF_FFFF
    h = 0xCBF29CE484222325
    for ep in ((a, b) if a <= b else (b, a)):
        for byte in (*ep.address, ep.port >> 8, ep.port & 0xFF):
            h = ((h ^ byte) * 0x100000001B3) & mask
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & mask
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & mask
    return h ^ (h >> 33)


ports = st.integers(1, 0xFFFF)
endpoints = st.builds(
    Endpoint,
    st.one_of(st.binary(min_size=4, max_size=4), st.binary(min_size=16, max_size=16)),
    ports,
)
# independent pairs mix IPv4 and IPv6; same-address pairs are ordered by port
endpoint_pairs = st.one_of(
    st.tuples(endpoints, endpoints),
    endpoints.flatmap(lambda a: st.tuples(st.just(a), st.builds(Endpoint, st.just(a.address), ports))),
)


@settings(max_examples=500)
@given(endpoint_pairs)
def test_packed_key_hash_matches_field_by_field_reference(pair):
    a, b = pair
    key = canonical_key(a, b)
    assert key == canonical_key(b, a)
    assert hash_key(key) == reference_hash(a, b)


def test_chain_id_validation():
    with pytest.raises(ValueError):
        ChainId(1, 3)  # tag 1 reserved
    with pytest.raises(ValueError):
        ChainId(4095, 2)
    with pytest.raises(ValueError):
        ChainId(6, 6)


def test_build_single_chain():
    params = HashParams(seed=9, bucket_count=8)
    vector = build_buckets([(C1, 8)], params, generation=0)
    assert vector.slots == (C1,) * 8


def test_build_multiset_and_determinism():
    params = HashParams(seed=11, bucket_count=8)
    v1 = build_buckets([(C1, 4), (C2, 4)], params, generation=3)
    v2 = build_buckets([(C1, 4), (C2, 4)], params, generation=3)
    assert v1.slots == v2.slots
    assert v1.slots.count(C1) == 4 and v1.slots.count(C2) == 4
    assert build_buckets([(C1, 4), (C2, 4)], params, generation=4).slots != v1.slots


def test_build_rejects_bad_allocation():
    params = HashParams(seed=1, bucket_count=8)
    with pytest.raises(AllocationMismatch):
        build_buckets([(C1, 3), (C2, 4)], params, generation=0)
    with pytest.raises(AllocationMismatch):
        build_buckets([(C1, 9), (C2, -1)], params, generation=0)
    with pytest.raises(AllocationMismatch):
        build_buckets([(C1, 4), (C1, 4)], params, generation=0)


def reference_shuffle(items, seed, generation):
    """Straight-line reimplementation of the specified shuffle."""
    mask = 0xFFFFFFFFFFFFFFFF
    state = (seed ^ generation) & mask
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        draw = z ^ (z >> 31)
        j = draw % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def test_build_matches_reference_shuffle():
    params = HashParams(seed=42, bucket_count=8)
    vector = build_buckets([(C1, 3), (C2, 5)], params, generation=1)
    expected = reference_shuffle([C1] * 3 + [C2] * 5, 42, 1)
    assert list(vector.slots) == expected


def test_build_matches_reference_shuffle_large():
    params = HashParams(seed=2024, bucket_count=1024)
    alloc = [(C1, 341), (C2, 342), (ChainId(6, 7), 341)]
    vector = build_buckets(alloc, params, generation=5)
    expected = reference_shuffle([C1] * 341 + [C2] * 342 + [ChainId(6, 7)] * 341, 2024, 5)
    assert list(vector.slots) == expected


# -- the lane-block draw at the block edges

B = _LANES
EDGE_LENGTHS = [1, 2, B - 1, B, B + 1, 2 * B + 1, 65536]
# (seed, generation); the last makes seed ^ generation 2**64 - 3, so the
# first lane's state wraps past 2**64
EDGE_SEEDS = [(0, 0), (MASK64, 0), (MASK64, 2)]


def splitmix(state, count):
    """count SplitMix64 outputs after state, one at a time."""
    out = []
    for _ in range(count):
        state = (state + _GAMMA) & MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize("length", EDGE_LENGTHS)
@pytest.mark.parametrize("seed, generation", EDGE_SEEDS)
def test_build_matches_reference_shuffle_at_block_edges(length, seed, generation):
    third = length // 3
    alloc = [(C1, third), (C2, length - 2 * third), (ChainId(6, 7), third)]
    vector = build_buckets(alloc, HashParams(seed, length), generation)
    assert list(vector.slots) == reference_shuffle(expanded(alloc), seed, generation)


@pytest.mark.parametrize("count", [1, 2, B - 1, B])
def test_splitmix_block_matches_one_draw_at_a_time(count):
    for state in (0, 1, MASK64, MASK64 - _GAMMA):
        assert list(_splitmix_block(state, count)) == splitmix(state, count)


@pytest.mark.parametrize("byteorder", ["little", "big"])
def test_low_words_read_the_lanes_in_either_byte_order(byteorder):
    # the words an array('Q') holds on a host of that byte order
    lanes = splitmix(12345, 5)
    packed = sum(z << (128 * k) for k, z in enumerate(lanes))
    assert _from_lanes(lanes) == packed
    words = array("Q", packed.to_bytes(16 * len(lanes), byteorder))
    if byteorder != sys.byteorder:
        words.byteswap()
    assert list(words[_LOW_WORDS[byteorder]]) == lanes


def test_shuffle_order_line_events_gate():
    # work counter, not wall time: Python line events while one L=65536
    # index is filled from three slot runs, as a commit builds it, and
    # shuffled. Drawing SplitMix64 one state at a time took 393,214 (6.0 per
    # slot); the lane-block draw leaves the loop header, the modulo and the
    # swap per slot.
    length = 65536
    third = length // 3
    runs = ((0, third), (1, length - 2 * third), (2, third))
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return trace

    sys.settrace(trace)
    try:
        index = _shuffled_index.__wrapped__(runs, 12345)
    finally:
        sys.settrace(None)
    filled = [position for position, count in runs for _ in range(count)]
    assert list(index) == reference_shuffle(filled, 12345, 0)
    assert lines <= 3.5 * length


def test_slave_reuses_the_masters_order():
    # work counter: one shuffle per committed generation, generation 0
    # included; the slave's build of each generation hits the master's
    # cached index, so both vectors hold the one index object
    scenario = scenario_from_mapping({
        "name": "orders",
        "hash": {"seed": 7, "buckets": 256},
        "chains": [[2, 3], [4, 5]],
        "traffic": {"sessions": 30, "rate": 20.0, "bytes_per_session": 6000, "duration": 1.0},
        "actions": [
            {"at": 0.5, "op": "add", "pair": [6, 7]},
            {"at": 1.5, "op": "rebalance"},
            {"at": 2.5, "op": "remove", "pair": [4, 5]},
        ],
        "horizon": 4.0,
    })
    sim = netsim.NetSim(scenario)
    shared = []

    def check(at_generation):
        master, slave = sim.master_agent.balancer.buckets, sim.slave_agent.balancer.buckets
        assert master.generation == slave.generation == at_generation
        shared.append(master.index is slave.index)

    fire, done = sim._fire_action, sim._action_done

    def fired(action):
        check(len(shared) // 2)  # the last commit's generation, 0 at the first action
        fire(action)

    def acked(action, reply):
        done(action, reply)
        check(len(shared) // 2 + 1)

    sim._fire_action, sim._action_done = fired, acked
    _shuffled_index.cache_clear()
    result = sim.run()
    assert [c["generation"] for c in result.commits] == [1, 2, 3]
    assert result.clean
    assert _shuffled_index.cache_info().misses == len(scenario.actions) + 1
    assert shared == [True] * 2 * len(scenario.actions)


def test_lookup_single_chain():
    params = HashParams(seed=5, bucket_count=16)
    vector = build_buckets([(C1, 16)], params, generation=0)
    rng = random.Random(3)
    for _ in range(50):
        key = canonical_key(random_endpoint(rng), random_endpoint(rng))
        assert vector.lookup(key) == C1


def test_lookup_agrees_across_identical_vectors():
    params = HashParams(seed=77, bucket_count=64)
    alloc = [(C1, 32), (C2, 32)]
    master = build_buckets(alloc, params, generation=2)
    slave = build_buckets(alloc, params, generation=2)
    assert master == slave
    rng = random.Random(9)
    for _ in range(500):
        key = canonical_key(random_endpoint(rng), random_endpoint(rng))
        assert master.lookup(key) == slave.lookup(key)


def test_lookup_proportionality():
    # 50k uniform keys over a 50/50 allocation: each side gets 50% +- 2pp
    params = HashParams(seed=31, bucket_count=1024)
    vector = build_buckets([(C1, 512), (C2, 512)], params, generation=0)
    rng = random.Random(17)
    hits = {C1: 0, C2: 0}
    n = 50_000
    for _ in range(n):
        hits[vector.lookup(canonical_key(random_endpoint(rng), random_endpoint(rng)))] += 1
    assert abs(hits[C1] / n - 0.5) < 0.02
    assert abs(hits[C2] / n - 0.5) < 0.02


def test_lookup_direction_invariance():
    params = HashParams(seed=8, bucket_count=128)
    vector = build_buckets([(C1, 64), (C2, 64)], params, generation=1)
    rng = random.Random(21)
    for _ in range(1000):
        a, b = random_endpoint(rng), random_endpoint(rng)
        assert vector.lookup(canonical_key(a, b)) == vector.lookup(canonical_key(b, a))


@dataclasses.dataclass(frozen=True, order=True)
class ReferenceChainId:
    """ChainId as the frozen dataclass it was before it became a tuple."""

    forward_tag: int
    reverse_tag: int

    def __post_init__(self):
        for tag in (self.forward_tag, self.reverse_tag):
            if not TAG_MIN <= tag <= TAG_MAX:
                raise ValueError(f"tag out of range [{TAG_MIN}, {TAG_MAX}]: {tag}")
        if self.forward_tag == self.reverse_tag:
            raise ValueError(f"forward and reverse tags must differ: {self.forward_tag}")

    def __str__(self):
        return f"({self.forward_tag},{self.reverse_tag})"


def built(cls, forward, reverse):
    """(chain, None) or (None, the ValueError text)."""
    try:
        return cls(forward, reverse), None
    except ValueError as exc:
        return None, str(exc)


chain_tags = st.one_of(
    st.integers(TAG_MIN - 2, TAG_MAX + 2),
    st.sampled_from([TAG_MIN - 1, TAG_MIN, TAG_MAX, TAG_MAX + 1]),
)
# equal tags are rare among independent draws, so draw them on purpose too
tag_pairs = st.one_of(st.tuples(chain_tags, chain_tags), chain_tags.map(lambda t: (t, t)))


@settings(max_examples=300)
@given(st.lists(tag_pairs, min_size=1, max_size=16))
def test_chain_id_matches_frozen_dataclass_reference(pairs):
    new, ref = [], []
    for forward, reverse in pairs:
        (chain, error), (expected, expected_error) = (
            built(ChainId, forward, reverse), built(ReferenceChainId, forward, reverse))
        assert error == expected_error
        if chain is not None:
            new.append(chain)
            ref.append(expected)

    def tags(chains):
        return [(c.forward_tag, c.reverse_tag) for c in chains]

    for chain, expected in zip(new, ref):
        assert hash(chain) == hash(expected)
        assert str(chain) == str(expected)
        assert repr(chain) == repr(expected).replace("ReferenceChainId", "ChainId")
        assert tags([copy.deepcopy(chain), pickle.loads(pickle.dumps(chain))]) == tags([chain]) * 2
        assert chain_from_wire(chain_to_wire(chain)) == chain
    for (a, b), (ra, rb) in zip(itertools.product(new, repeat=2), itertools.product(ref, repeat=2)):
        assert (a < b, a <= b, a == b, a != b) == (ra < rb, ra <= rb, ra == rb, ra != rb)
    assert tags(sorted(new)) == tags(sorted(ref))
    assert tags(set(new)) == tags(set(ref))
    assert tags(dict.fromkeys(new)) == tags(dict.fromkeys(ref))
    alloc = [(chain, i) for i, chain in enumerate(new)]
    wire = alloc_to_wire(alloc)
    assert wire == alloc_to_wire([(chain, i) for i, chain in enumerate(ref)])
    decoded = alloc_from_wire(wire)
    assert decoded == alloc and all(type(c) is ChainId for c, _ in decoded)


def test_counts_and_chains():
    params = HashParams(seed=13, bucket_count=10)
    vector = build_buckets([(C2, 4), (C1, 6)], params, generation=0)
    assert vector.counts() == {C1: 6, C2: 4}
    assert vector.chains() == (C1, C2)


# -- properties of the compact vector against a slot-by-slot scan


@st.composite
def allocations(draw, max_chains=12, max_length=8 * _LANES + 1):
    """(alloc, L): distinct chains in any order, some possibly at zero slots.

    L runs up to eight blocks of the lane-block draw and one slot beyond.
    """
    length = draw(st.integers(1, max_length))
    tags = draw(st.lists(st.integers(1, 2046), min_size=1, max_size=max_chains, unique=True))
    cuts = sorted(draw(st.lists(st.integers(0, length), min_size=len(tags) - 1,
                                max_size=len(tags) - 1)))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [length])]
    return [(ChainId(2 * t, 2 * t + 1), n) for t, n in zip(tags, counts)], length


seeds = st.integers(0, 0xFFFF_FFFF_FFFF_FFFF)
generations = st.integers(0, 2**32)


def expanded(alloc):
    return [chain for chain, count in alloc for _ in range(count)]


@settings(deadline=None, max_examples=60)
@given(allocations(), seeds, generations)
def test_build_matches_reference_shuffle_property(case, seed, generation):
    alloc, length = case
    vector = build_buckets(alloc, HashParams(seed, length), generation)
    assert list(vector.slots) == reference_shuffle(expanded(alloc), seed, generation)
    assert len(vector) == length


@settings(deadline=None, max_examples=60)
@given(allocations(), seeds, generations)
def test_chains_and_counts_match_slot_scan(case, seed, generation):
    alloc, length = case
    vector = build_buckets(alloc, HashParams(seed, length), generation)
    present = sorted(set(vector.slots))
    assert vector.chains() == tuple(present)
    assert list(vector.counts().items()) == [(c, vector.slots.count(c)) for c in present]


@settings(deadline=None, max_examples=60)
@given(allocations(), seeds, generations, st.data())
def test_vector_equality_is_by_value(case, seed, generation, data):
    alloc, length = case
    params = HashParams(seed, length)
    vector = build_buckets(alloc, params, generation)
    # the slave's chains are equal but distinct objects, decoded off the wire
    copy = build_buckets(alloc_from_wire(alloc_to_wire(alloc)), params, generation)
    assert copy.chains()[0] is not vector.chains()[0]
    assert copy == vector and not copy != vector
    assert build_buckets(alloc, params, generation + 1) != vector
    if len(vector.chains()) > 1:
        slot = data.draw(st.integers(0, length - 1))
        index = bytearray(vector.index)
        index[slot] = (index[slot] + 1) % len(vector.chains())
        changed = dataclasses.replace(vector, index=bytes(index))
        assert changed != vector
        assert sum(a != b for a, b in zip(changed.slots, vector.slots)) == 1


def test_build_with_300_chains_matches_reference():
    chains = [ChainId(2 + 2 * i, 3 + 2 * i) for i in range(300)]
    rng = random.Random(300)
    # every tenth chain gets no slot: 270 live chains, more than a byte indexes
    counts = [0 if i % 10 == 0 else rng.randrange(1, 20) for i in range(300)]
    counts[1] += 4096 - sum(counts)
    alloc = list(zip(chains, counts))
    rng.shuffle(alloc)
    params = HashParams(seed=99, bucket_count=4096)
    vector = build_buckets(alloc, params, generation=7)
    assert list(vector.slots) == reference_shuffle(expanded(alloc), 99, 7)
    live = sorted(c for c, n in alloc if n)
    assert len(live) == 270 and vector.chains() == tuple(live)
    assert vector.counts() == {c: n for c, n in sorted(alloc) if n}
    assert build_buckets(alloc_from_wire(alloc_to_wire(alloc)), params, 7) == vector
    index = array("H", vector.index)
    index[0] = (index[0] + 1) % len(live)
    assert dataclasses.replace(vector, index=index) != vector
