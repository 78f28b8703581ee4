import pytest

from chainbalance.hashing import Endpoint, canonical_key
from chainbalance.traffic import (
    SERVER,
    SessionSpec,
    TrafficProfile,
    generate_traffic,
    plan_sessions,
    session_packets,
)

CLIENT = Endpoint.parse("10.0.0.1", 5000)


def test_session_packet_arithmetic():
    # 1000 request bytes at packet size 500 -> two forward packets, and the
    # response expands independently
    spec = SessionSpec(
        session_id=0,
        client=CLIENT,
        server=SERVER,
        start=0.0,
        request_bytes=1000,
        response_bytes=1500,
        packet_size=500,
        duration=6.0,
        response_delay=0.02,
    )
    packets = session_packets(spec)
    forward = [p for p in packets if not p.reverse]
    reverse = [p for p in packets if p.reverse]
    assert len(forward) == 2
    assert sum(p.size for p in forward) == 1000
    assert len(reverse) == 3
    assert sum(p.size for p in reverse) == 1500
    # both directions carry the one key of the session
    assert {p.key for p in packets} == {canonical_key(CLIENT, SERVER)}


def test_response_finishes_at_duration():
    spec = SessionSpec(
        session_id=0, client=CLIENT, server=SERVER, start=10.0,
        request_bytes=400, response_bytes=74_600, packet_size=3000,
        duration=6.0, response_delay=0.02,
    )
    packets = session_packets(spec)
    assert packets[-1].time == pytest.approx(16.0)
    assert min(p.time for p in packets) == 10.0


def test_same_seed_same_stream():
    profile = TrafficProfile(sessions=50, rate=75.0, bytes_per_session=10_000)
    assert generate_traffic(profile, seed=4) == generate_traffic(profile, seed=4)
    assert generate_traffic(profile, seed=4) != generate_traffic(profile, seed=5)


def test_stream_is_time_ordered_and_conserves_bytes():
    profile = TrafficProfile(sessions=100, rate=50.0, bytes_per_session=20_000)
    packets = generate_traffic(profile, seed=9)
    times = [p.time for p in packets]
    assert times == sorted(times)
    assert sum(p.size for p in packets) == 100 * 20_000


def test_unique_four_tuples_by_default():
    specs = plan_sessions(
        TrafficProfile(sessions=500, rate=100.0, bytes_per_session=5_000), seed=2
    )
    keys = {(s.client.address, s.client.port) for s in specs}
    assert len(keys) == 500
    assert all(s.server == SERVER for s in specs)


def test_collision_toggle_shares_endpoints():
    specs = plan_sessions(
        TrafficProfile(
            sessions=500, rate=100.0, bytes_per_session=5_000, collide_fraction=0.5
        ),
        seed=2,
    )
    keys = {(s.client.address, s.client.port) for s in specs}
    assert len(keys) < 400  # a solid fraction reused an earlier endpoint


def test_start_spacing_follows_rate():
    specs = plan_sessions(
        TrafficProfile(sessions=10, rate=75.0, bytes_per_session=5_000), seed=1
    )
    gaps = [b.start - a.start for a, b in zip(specs, specs[1:])]
    assert all(g == pytest.approx(1 / 75.0) for g in gaps)


def test_duration_jitter_bounds_and_median():
    profile = TrafficProfile(
        sessions=1001, rate=100.0, bytes_per_session=5_000,
        duration=6.0, duration_jitter=0.4,
    )
    specs = plan_sessions(profile, seed=3)
    durations = sorted(s.duration for s in specs)
    assert durations[0] >= 5.6 and durations[-1] <= 6.4
    assert durations[len(durations) // 2] == pytest.approx(6.0, abs=0.1)


def test_profile_validation():
    with pytest.raises(ValueError):
        TrafficProfile(sessions=0, rate=75.0, bytes_per_session=1000).validate()
    with pytest.raises(ValueError):
        TrafficProfile(sessions=1, rate=75.0, bytes_per_session=100).validate()
