import dataclasses
import hashlib
import math
import random
import tracemalloc
from collections import namedtuple
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainbalance import netsim, traffic
from chainbalance.cli import bundled_scenario
from chainbalance.hashing import Endpoint, canonical_key, hash_key
from chainbalance.scenario import parse_scenario
from chainbalance.traffic import (
    SERVER, WINDOW_SESSIONS, PlannedPacket, Session, TrafficProfile, generate_traffic,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"
SERVER_BYTES = SERVER.address + SERVER.port.to_bytes(2, "big")


# a planned packet's five facts, flat: its time, session id, key, size and
# direction. Named as the planned packet was when it held them flat, so that
# a list of them has that packet's repr, the one the pinned plans hash
Flat = namedtuple("PlannedPacket", "time session_id key size reverse")


def flat(p):
    return Flat(p.time, p.session.session_id, p.session.key, p.size, p.reverse)


def plan(profile, seed):
    """The whole schedule, iterated into a list of flat packets."""
    return list(map(flat, generate_traffic(profile, seed)))


def sessions(packets):
    """session_id -> its packets, in plan order."""
    by_session = {}
    for p in packets:
        by_session.setdefault(p.session_id, []).append(p)
    return by_session


def test_session_packet_arithmetic():
    # 1000 request bytes at packet size 500 -> two forward packets, and the
    # response expands independently
    profile = TrafficProfile(sessions=1, rate=1.0, bytes_per_session=2500, packet_size=500,
                             request_bytes=1000)
    packets = plan(profile, seed=1)
    forward = [p for p in packets if not p.reverse]
    reverse = [p for p in packets if p.reverse]
    assert len(forward) == 2
    assert sum(p.size for p in forward) == 1000
    assert len(reverse) == 3
    assert sum(p.size for p in reverse) == 1500
    # both directions carry the one key of the session, the client's
    # endpoint packed before the server's
    (key,) = {p.key for p in packets}
    assert len(key) == 12 and key.endswith(SERVER_BYTES)


def test_response_finishes_at_duration():
    # the second session starts at 1 / rate = 10 s
    profile = TrafficProfile(sessions=2, rate=0.1, bytes_per_session=75_000, packet_size=3000,
                             request_bytes=400, duration=6.0, duration_jitter=0.0,
                             response_delay=0.02)
    packets = sessions(plan(profile, seed=1))[1]
    assert len(packets) == 1 + 25
    assert packets[-1].time == pytest.approx(16.0)
    assert min(p.time for p in packets) == 10.0


def test_same_seed_same_stream():
    profile = TrafficProfile(sessions=50, rate=75.0, bytes_per_session=10_000)
    assert plan(profile, seed=4) == plan(profile, seed=4)
    assert plan(profile, seed=4) != plan(profile, seed=5)


def test_stream_is_time_ordered_and_conserves_bytes():
    profile = TrafficProfile(sessions=100, rate=50.0, bytes_per_session=20_000)
    packets = plan(profile, seed=9)
    times = [p.time for p in packets]
    assert times == sorted(times)
    assert sum(p.size for p in packets) == 100 * 20_000


def test_unique_four_tuples_by_default():
    packets = plan(TrafficProfile(sessions=500, rate=100.0, bytes_per_session=5_000), seed=2)
    keys = {p.key for p in packets}
    assert len(keys) == 500
    assert all(key.endswith(SERVER_BYTES) for key in keys)


def test_collision_toggle_shares_endpoints():
    packets = plan(
        TrafficProfile(sessions=500, rate=100.0, bytes_per_session=5_000, collide_fraction=0.5),
        seed=2,
    )
    assert len(sessions(packets)) == 500
    assert len({p.key for p in packets}) < 400  # a solid fraction reused an earlier endpoint


def test_start_spacing_follows_rate():
    packets = plan(TrafficProfile(sessions=10, rate=75.0, bytes_per_session=5_000), seed=1)
    # a session starts with its first request packet
    starts = [own[0].time for _, own in sorted(sessions(packets).items())]
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    assert len(gaps) == 9
    assert all(g == pytest.approx(1 / 75.0) for g in gaps)


def test_duration_jitter_bounds_and_median():
    profile = TrafficProfile(
        sessions=1001, rate=100.0, bytes_per_session=5_000,
        duration=6.0, duration_jitter=0.4,
    )
    # a session lasts from its first request packet to its last response packet
    durations = sorted(
        own[-1].time - own[0].time for own in sessions(plan(profile, seed=3)).values()
    )
    assert len(durations) == 1001
    assert durations[0] >= 5.6 - 1e-9 and durations[-1] <= 6.4 + 1e-9
    assert durations[len(durations) // 2] == pytest.approx(6.0, abs=0.1)


def test_profile_validation():
    with pytest.raises(ValueError):
        TrafficProfile(sessions=0, rate=75.0, bytes_per_session=1000).validate()
    with pytest.raises(ValueError):
        TrafficProfile(sessions=1, rate=75.0, bytes_per_session=100).validate()


# -- injection order


def planned_order(packets):
    """The schedule sorted on the full (time, session_id, reverse) key."""
    return sorted(packets, key=lambda p: (p.time, p.session_id, p.reverse))


@st.composite
def tied_profiles(draw):
    """Small profiles on coarse rates and spacings, so that packets of
    different sessions, and both directions, often share one timestamp."""
    request = draw(st.integers(1, 600))
    return TrafficProfile(
        sessions=draw(st.integers(1, 12)),
        rate=draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])),
        bytes_per_session=request + draw(st.integers(1, 2400)),
        packet_size=draw(st.sampled_from([100, 300, 600])),
        request_bytes=request,
        duration=draw(st.sampled_from([1.0, 2.0, 4.0])),
        duration_jitter=0.0,
        response_delay=draw(st.sampled_from([0.0, 0.5])),
        collide_fraction=draw(st.sampled_from([0.0, 0.5])),
    )


TIED = TrafficProfile(sessions=4, rate=1.0, bytes_per_session=700, packet_size=300,
                      request_bytes=100, duration=2.0, duration_jitter=0.0,
                      response_delay=0.0)


def test_tied_profile_ties_requests_and_responses_across_sessions():
    # the example the property below starts from: session i's responses at
    # i+1 and i+2 fall on the requests of sessions i+1 and i+2
    packets = plan(TIED, seed=1)
    at_one = [(p.session_id, p.reverse) for p in packets if p.time == 1.0]
    assert at_one == [(0, True), (1, False)]
    assert packets == planned_order(packets)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tied_profiles(), st.integers(0, 3))
@example(TIED, 1)
def test_schedule_is_in_time_session_direction_order(profile, seed):
    packets = plan(profile, seed)
    assert packets == planned_order(packets)


# -- pinned plans

PINNED_PROFILES = {
    "collide-half": TrafficProfile(sessions=200, rate=50.0, bytes_per_session=6_000,
                                   packet_size=1_500, collide_fraction=0.5),
    "collide-all": TrafficProfile(sessions=200, rate=50.0, bytes_per_session=6_000,
                                  packet_size=1_500, collide_fraction=1.0),
    "multi-packet-request": TrafficProfile(sessions=100, rate=20.0, bytes_per_session=9_000,
                                           packet_size=1_000, request_bytes=2_500),
    "tied": TIED,
    "short-flows": parse_scenario(WORKLOADS / "short-flows.yaml").traffic,
}
# sha256 of repr(plan(profile, seed)), taken from the two-stage builder (a
# per-session record expanded into packets) that the one-pass plan replaced:
# every packet's time, session id, key, size and direction, flat
PINNED_PLANS = {
    ("collide-half", 0): "8662f07360eac5786ad51f0f7137adc15274cdbc3f8f6f63d7b5824ac3657099",
    ("collide-half", 1): "08e762eb3230bc9bf04f0705701e70eef17f0faa88f981a160036325237cedaf",
    ("collide-half", 2): "d31154d2176f4df883d435a5920692c63995976918da95230b5560360f7ddb36",
    ("collide-all", 0): "d3a18476a12b292c5fd6eb6ab0be74301610dba6cd96127bf1471ee419bca4af",
    ("collide-all", 1): "73ca02a8a9ce2e3713947bb5ead60df06644b819bd5dde24ebe734d65ccd899f",
    ("collide-all", 2): "9531aa9d66039e482e78baee38c36724947b12765f35bc7d3a0a16f348c09d98",
    ("multi-packet-request", 0):
        "3c76e091e6f819f57896bb277c4124d5f45f3ced8d6946cebb847a6b4757db71",
    ("multi-packet-request", 1):
        "e9b47a35728506d06df3bdc40c516e6167b9e72999a1d345b8aedf2315bf5ecb",
    ("multi-packet-request", 2):
        "288ad06665e00d5f7df45cb2cbb121c80fea62af4cc715dd57504c2b0a9d9fc2",
    ("tied", 0): "4099fc2e6ea5037e95de063a55e8168567b6b7f76810a5ecf2180a2eee6e4b40",
    ("tied", 1): "d8829b8d6c3a378a2d8d3ed7d0cd51d75dfba6ab7bb2326c8edcb7dd09a79da1",
    ("tied", 2): "dbd57eddc0ff5c043f3474438e2a04e028035b54b8c1490a22ca67c19e00dbe8",
    ("short-flows", 0): "4f9e26afa122f69d9e5a5cc7675af7ed21929f5153ba70f7cb3c46a2901c58e5",
    ("short-flows", 1): "f92e3e34bce85ae58fe9a5fab0d361f8a723d8ae02ecd374a63d3f14ff6477e5",
    ("short-flows", 2): "da489adbafe4a104f88489e4efa61f51f4084ea6419c6268de4df4e5ba61d87a",
}


@pytest.mark.parametrize("name, seed", sorted(PINNED_PLANS), ids=lambda v: str(v))
def test_plan_matches_pinned_digest(name, seed):
    packets = plan(PINNED_PROFILES[name], seed)
    assert hashlib.sha256(repr(packets).encode()).hexdigest() == PINNED_PLANS[name, seed]


# -- how a client is drawn and packed


def below(getrandbits, bits, bound):
    """getrandbits(bits), drawn again until it is below bound."""
    value = getrandbits(bits)
    while value >= bound:
        value = getrandbits(bits)
    return value


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**64 - 1), st.sampled_from([0.0, 0.1, 0.5, 3.0]))
@example(0, 0.5)
def test_client_draws_are_those_of_randrange_and_uniform(seed, jitter):
    # the plan draws each client with getrandbits and rejection, and each
    # duration with uniform's expression; CPython 3.10-3.13 draw randrange and
    # uniform so. A CPython that draws them otherwise fails here, by name,
    # where it would otherwise move every plan
    rng, twin = random.Random(seed), random.Random(seed)
    low, span = -jitter, jitter - -jitter
    for _ in range(200):
        assert below(rng.getrandbits, 9, 256) == twin.randrange(256)
        assert 1 + below(rng.getrandbits, 8, 254) == 1 + twin.randrange(254)
        assert 1024 + below(rng.getrandbits, 16, 64512) == twin.randrange(1024, 65536)
        assert low + span * rng.random() == twin.uniform(-jitter, jitter)
    assert rng.getstate() == twin.getstate()


class ScriptedRandom(random.Random):
    """A Random whose getrandbits answers from `script`, checking each
    call's bit count; its other draws are those of its seed."""

    script: list[tuple[int, int]] = []

    def getrandbits(self, k):
        bits, value = self.script.pop(0)
        assert k == bits
        return value


ONE_SESSION = TrafficProfile(sessions=1, rate=1.0, bytes_per_session=2, packet_size=1,
                             request_bytes=1, duration=1.0, duration_jitter=0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 255), st.integers(1, 254), st.integers(1024, 65535))
@example(0, 1, 1024)
@example(255, 254, 65535)
@example(0, 254, 65535)
@example(255, 1, 1024)
def test_packed_client_key_is_the_canonical_key(a, b, port):
    # the plan's draws are scripted: each is refused once at or above its
    # bound (256, 254, 64512) and then gives the client 10.0.a.b:port, whose
    # key the plan packs without canonical_key
    ScriptedRandom.script = [(9, 256 + a), (9, a), (8, 254 + b % 2), (8, b - 1),
                             (16, 64512 + port % 1024), (16, port - 1024)]
    with mock.patch.object(traffic.random, "Random", ScriptedRandom):
        packets = plan(ONE_SESSION, 0)
    assert ScriptedRandom.script == []
    client = Endpoint(bytes([10, 0, a, b]), port)
    assert client < SERVER
    assert [p.key for p in packets] == [canonical_key(client, SERVER)] * 2


def test_len_counts_the_packets_iterated():
    profiles = list(PINNED_PROFILES.values()) + [
        parse_scenario(WORKLOADS / f"{name}.yaml").traffic
        for name in ("long-flows", "capacity-drain")
    ]
    for profile in profiles:
        stream = generate_traffic(profile, 1)
        assert len(stream) == sum(1 for _ in stream) == len(plan(profile, 1))


# -- the stream, one window at a time


def reference_plan(profile, seed):
    """The schedule built whole: every session's packets in plan order, then
    one stable sort on time. The stream yields exactly this."""
    p, rng = profile, random.Random(seed)

    def chunks(total):
        n = -(-total // p.packet_size)
        return [p.packet_size] * (n - 1) + [total - p.packet_size * (n - 1)]

    forward = list(enumerate(chunks(p.request_bytes)))
    reverse = list(enumerate(chunks(p.bytes_per_session - p.request_bytes), 1))
    used, pool, packets = set(), [], []
    for sid in range(p.sessions):
        if pool and rng.random() < p.collide_fraction:
            key = rng.choice(pool)
        else:
            while True:
                address = bytes([10, 0, rng.randrange(256), 1 + rng.randrange(254)])
                port = rng.randrange(1024, 65536)
                if (address, port) not in used:
                    break
            used.add((address, port))
            key = canonical_key(Endpoint(address, port), SERVER)
            pool.append(key)
        duration = p.duration + rng.uniform(-p.duration_jitter, p.duration_jitter)
        start = sid / p.rate
        packets += [Flat(start + i * 1e-4, sid, key, size, False) for i, size in forward]
        spacing = (duration - p.response_delay) / len(reverse)
        first = start + p.response_delay
        packets += [Flat(first + k * spacing, sid, key, size, True) for k, size in reverse]
    packets.sort(key=lambda packet: packet.time)
    return packets


# a window's edge is 2.0 s: the session starting there ties with responses of
# four earlier sessions, a quarter window apart, whose 0.5 s spacing lands on it
EDGE = TrafficProfile(sessions=2 * WINDOW_SESSIONS + 1, rate=WINDOW_SESSIONS / 2.0,
                      bytes_per_session=1300, packet_size=300, request_bytes=100,
                      duration=2.0, duration_jitter=0.0, response_delay=0.0)


def test_packets_on_a_window_edge_keep_their_order():
    packets = plan(EDGE, seed=1)
    at_edge = [(p.session_id, p.reverse) for p in packets if p.time == 2.0]
    earlier = [(WINDOW_SESSIONS * quarter // 4, True) for quarter in range(4)]
    assert at_edge == earlier + [(WINDOW_SESSIONS, False)]
    assert packets == reference_plan(EDGE, 1)


def test_every_packet_is_a_whole_planned_packet():
    # the plan builds each packet with tuple.__new__, which skips the
    # NamedTuple constructor's check of the field count
    profiles = [parse_scenario(WORKLOADS / f"{name}.yaml").traffic
                for name in ("long-flows", "short-flows", "capacity-drain")]
    for profile in profiles + [TIED, EDGE]:
        for p in generate_traffic(profile, 1):
            assert type(p) is PlannedPacket and len(p) == 4 and p == PlannedPacket(*p), p
            assert type(p.session) is Session


def test_a_session_is_one_record_hashed_once():
    # every packet of a session, in both directions, carries the one record
    # made when it was planned, which holds its key's hash; sessions that
    # share a key each have their own
    for profile in (PINNED_PROFILES["collide-half"], TIED):
        records = {}
        for p in generate_traffic(profile, 1):
            assert records.setdefault(p.session.session_id, p.session) is p.session
        assert sorted(records) == list(range(profile.sessions))
        for session in records.values():
            assert session.key_hash == hash_key(session.key)
            assert (session.master_chain, session.slave_chain, session.nf_chains) == (None, None, ())
        keys = [session.key for session in records.values()]
        assert (len(set(keys)) < len(keys)) == (profile.collide_fraction > 0)


# 0.5 s windows: session 0's responses (1.25, 1.5, 1.75, 2.0) come due in
# window 2 and again in window 3, where they tie at 1.75 with the first
# response of the session that starts window 1, due there straight from its
# request
REFILED = TrafficProfile(sessions=4 * WINDOW_SESSIONS, rate=2.0 * WINDOW_SESSIONS,
                         bytes_per_session=1300, packet_size=300, request_bytes=100,
                         duration=2.0, duration_jitter=0.0, response_delay=1.0)


@st.composite
def windowed_profiles(draw):
    """Profiles from under one window to three, on power-of-two rates and
    spacings, so that packets of earlier sessions often fall exactly on a
    window's edge, the start of a later session."""
    request = draw(st.integers(1, 600))
    response_delay = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    return TrafficProfile(
        sessions=draw(st.integers(1, 3 * WINDOW_SESSIONS + 1)),
        rate=draw(st.sampled_from([1.0, 64.0, 128.0, 256.0, 512.0])),
        bytes_per_session=request + draw(st.integers(1, 1200)),
        packet_size=draw(st.sampled_from([200, 300, 600])),
        request_bytes=request,
        duration=response_delay + draw(st.sampled_from([1.0, 2.0, 4.0])),
        duration_jitter=draw(st.sampled_from([0.0, 0.0, 0.25])),
        response_delay=response_delay,
        collide_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(windowed_profiles(), st.integers(0, 3))
@example(TIED, 1)
@example(EDGE, 2)
@example(dataclasses.replace(EDGE, collide_fraction=1.0), 1)
@example(REFILED, 1)
def test_stream_matches_the_whole_plan_sorted(profile, seed):
    assert plan(profile, seed) == reference_plan(profile, seed)
    # the windows split the stream at rising edges: every packet of a window
    # is earlier than every packet of the next window that holds any, and
    # there is one window per WINDOW_SESSIONS sessions, as many again after
    # the last session start, and one with no edge
    windows = list(generate_traffic(profile, seed)._windows())
    assert len(windows) <= 2 * math.ceil(profile.sessions / WINDOW_SESSIONS) + 1
    held = [window for window in windows if window]
    for window, following in zip(held, held[1:]):
        assert max(p.time for p in window) < min(p.time for p in following)


@pytest.mark.parametrize("name", ["static-1", "warmup-1to2", "combined-add-add", "long-flows",
                                  "short-flows", "capacity-drain"])
def test_no_window_from_the_last_session_start_on_outgrows_the_earlier_ones(name):
    # the window that plans the last sessions, and every one after it, holds
    # no more packets than the largest window before it. With no edge after
    # the last session start, that window held every packet still due then:
    # at seed 1, 14,578 of capacity-drain's packets against at most 4,072
    # before it, and 7,341 of long-flows' against 4,111
    path = WORKLOADS / f"{name}.yaml"
    profile = (parse_scenario(path) if path.exists() else bundled_scenario(name)).traffic
    last = (profile.sessions - 1) // WINDOW_SESSIONS
    for seed in (1, 2, 3):
        sizes = [len(window) for window in generate_traffic(profile, seed)._windows()]
        assert max(sizes[last:]) <= max(sizes[:last]), (seed, sizes)


def traced_peak(fn) -> int:
    """The most bytes allocated at once while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_longer_plan_streams_in_the_same_memory():
    # four times the sessions at the same rate: the same windows, and only
    # what the stream keeps of every session (its client's key) grows; the
    # whole plan grew fourfold
    profile = parse_scenario(WORKLOADS / "long-flows.yaml").traffic
    longer = dataclasses.replace(profile, sessions=4 * profile.sessions)

    def iterate(traffic):
        for _ in generate_traffic(traffic, 1):
            pass

    assert traced_peak(lambda: iterate(longer)) <= 1.5 * traced_peak(lambda: iterate(profile))


def test_long_flows_run_never_holds_the_whole_plan():
    # with the plan built whole before the first packet moved, long-flows
    # peaked at 5.3 MB; with no window edge after the last session start,
    # capacity-drain peaked at 4.0 MB
    for name in ("long-flows", "capacity-drain"):
        sim = netsim.NetSim(parse_scenario(WORKLOADS / f"{name}.yaml"))
        assert traced_peak(sim.run) <= 3_000_000, name
