import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


# -- injection order


def planned_order(profile, seed):
    """The schedule sorted on the full (time, session_id, reverse) key."""
    packets = [p for spec in plan_sessions(profile, seed) for p in session_packets(spec)]
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
    packets = generate_traffic(TIED, seed=1)
    at_one = [(p.session_id, p.reverse) for p in packets if p.time == 1.0]
    assert at_one == [(0, True), (1, False)]
    assert packets == planned_order(TIED, 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tied_profiles(), st.integers(0, 3))
@example(TIED, 1)
def test_schedule_is_in_time_session_direction_order(profile, seed):
    assert generate_traffic(profile, seed) == planned_order(profile, seed)
