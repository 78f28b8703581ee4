"""Synthetic bidirectional session workloads for the simulator.

Sessions mimic fixed-rate HTTP fetches: a short client request followed by
a paced stream of response bytes from the server, finishing a configurable
duration after the session started. Everything is derived from one seed so
a profile always expands to the identical packet schedule. Each session's
key is packed once here and shared by all of its packets, in both
directions. A planned packet is a `PlannedPacket` named tuple. The schedule
is in (time, session_id, reverse) order: packets are planned session by
session, each session's request before its response, so a stable sort on
time alone gives that order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .hashing import Endpoint, canonical_key

SERVER = Endpoint.parse("10.99.0.1", 80)


@dataclass(frozen=True)
class TrafficProfile:
    """Knobs for one workload: how many sessions, how fast, how big."""

    sessions: int
    rate: float  # session starts per second
    bytes_per_session: int  # total of both directions
    packet_size: int = 3000
    request_bytes: int = 400
    duration: float = 6.0  # seconds from first to last packet of a session
    duration_jitter: float = 0.5  # uniform spread around duration
    response_delay: float = 0.02  # server think time before the first reply byte
    collide_fraction: float = 0.0  # stress toggle: share 4-tuples between sessions

    def validate(self):
        """Raise ValueError naming the first field out of its range."""
        rules = (
            ("sessions", self.sessions > 0, "positive"),
            ("rate", self.rate > 0, "positive"),
            ("bytes_per_session", self.bytes_per_session > self.request_bytes,
             "above request_bytes"),
            ("packet_size", self.packet_size > 0, "positive"),
            ("request_bytes", self.request_bytes >= 1, "at least 1"),
            ("duration", self.duration > self.response_delay, "above response_delay"),
            ("response_delay", self.response_delay >= 0, "at least 0"),
            # a jitter this wide would plan responses before their request
            ("duration_jitter", 0 <= self.duration_jitter < self.duration - self.response_delay,
             "in [0, duration - response_delay)"),
            ("collide_fraction", 0 <= self.collide_fraction <= 1, "in [0, 1]"),
        )
        for key, holds, bound in rules:
            if not holds:
                raise ValueError(f"field {key!r} must be {bound}, got {getattr(self, key)}")


@dataclass(frozen=True)
class SessionSpec:
    """One planned session; packet times are fully determined by these fields."""

    session_id: int
    client: Endpoint
    server: Endpoint
    start: float
    request_bytes: int
    response_bytes: int
    packet_size: int
    duration: float
    response_delay: float


class PlannedPacket(NamedTuple):
    """A packet the generator will inject: which session, when, how big."""

    time: float
    session_id: int
    key: bytes  # the session's canonical key
    size: int
    reverse: bool


# stable on time over packets planned in (session_id, reverse) order, this
# sorts the schedule by (time, session_id, reverse), its injection order
_INJECTION_ORDER = itemgetter(0)


def _chunks(total: int, size: int) -> list[int]:
    n = math.ceil(total / size)
    sizes = [size] * (n - 1)
    sizes.append(total - size * (n - 1))
    return sizes


def plan_sessions(profile: TrafficProfile, seed: int) -> list[SessionSpec]:
    """Lay out session start times, endpoints and durations for a profile."""
    profile.validate()
    rng = random.Random(seed)
    used: set[tuple[bytes, int]] = set()
    pool: list[Endpoint] = []
    specs = []
    for i in range(profile.sessions):
        if pool and rng.random() < profile.collide_fraction:
            client = rng.choice(pool)
        else:
            while True:
                address = bytes([10, 0, rng.randrange(256), 1 + rng.randrange(254)])
                port = rng.randrange(1024, 65536)
                if (address, port) not in used:
                    break
            used.add((address, port))
            client = Endpoint(address, port)
            pool.append(client)
        duration = profile.duration + rng.uniform(-profile.duration_jitter, profile.duration_jitter)
        specs.append(
            SessionSpec(
                session_id=i,
                client=client,
                server=SERVER,
                start=i / profile.rate,
                request_bytes=profile.request_bytes,
                response_bytes=profile.bytes_per_session - profile.request_bytes,
                packet_size=profile.packet_size,
                duration=duration,
                response_delay=profile.response_delay,
            )
        )
    return specs


def session_packets(spec: SessionSpec) -> list[PlannedPacket]:
    """Expand one session into its forward request and paced reverse response."""
    key = canonical_key(spec.client, spec.server)
    sid, start = spec.session_id, spec.start
    packets = []
    for i, size in enumerate(_chunks(spec.request_bytes, spec.packet_size)):
        packets.append(PlannedPacket(start + i * 1e-4, sid, key, size, False))
    sizes = _chunks(spec.response_bytes, spec.packet_size)
    spacing = (spec.duration - spec.response_delay) / len(sizes)
    first = start + spec.response_delay
    for i, size in enumerate(sizes):
        packets.append(PlannedPacket(first + (i + 1) * spacing, sid, key, size, True))
    return packets


def generate_traffic(profile: TrafficProfile, seed: int) -> list[PlannedPacket]:
    """Full two-direction packet schedule for a profile, ordered by time."""
    packets: list[PlannedPacket] = []
    for spec in plan_sessions(profile, seed):
        packets.extend(session_packets(spec))
    packets.sort(key=_INJECTION_ORDER)
    return packets
