"""Synthetic bidirectional session workloads for the simulator.

Sessions mimic fixed-rate HTTP fetches: a short client request followed by
a paced stream of response bytes from the server, finishing a configurable
duration after the session started. Everything is derived from one seed so
a profile always expands to the identical packet schedule. The plan is built
in one pass: every session carries the profile's byte counts, cut into
packets once per plan, and draws only its client and its duration. A
client's key is packed when it is first drawn and shared by all packets of
its sessions, in both directions. Packets are planned session by session,
each session's request before its response, so a stable sort on time alone
puts the schedule in (time, session_id, reverse) order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .hashing import Endpoint, canonical_key

SERVER = Endpoint.parse("10.99.0.1", 80)
# about 10 times the largest bundled plan (13,500 sessions of 16 packets):
# the plan is built packet by packet before the run starts, so a larger one
# is refused, never allocated
MAX_PLAN_PACKETS = 2**21


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
        # the plan's size, checked only once packet_size is known to be positive
        request, response = self.request_bytes, self.bytes_per_session - self.request_bytes
        per_session = -(-request // self.packet_size) - (-response // self.packet_size)
        if self.sessions * per_session > MAX_PLAN_PACKETS:
            raise ValueError(f"field 'sessions' times {per_session} packets per session must be"
                             f" at most {MAX_PLAN_PACKETS}, got {self.sessions}")


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
    n = -(-total // size)
    return [size] * (n - 1) + [total - size * (n - 1)]


def generate_traffic(profile: TrafficProfile, seed: int) -> list[PlannedPacket]:
    """Full two-direction packet schedule for a profile, ordered by time."""
    profile.validate()
    p, rng = profile, random.Random(seed)
    forward = list(enumerate(_chunks(p.request_bytes, p.packet_size)))
    reverse = list(enumerate(_chunks(p.bytes_per_session - p.request_bytes, p.packet_size), 1))
    used: set[tuple[bytes, int]] = set()
    pool: list[bytes] = []  # the key of every client drawn so far
    packets: list[PlannedPacket] = []
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
        packets += [PlannedPacket(start + i * 1e-4, sid, key, size, False) for i, size in forward]
        spacing = (duration - p.response_delay) / len(reverse)
        first = start + p.response_delay
        packets += [PlannedPacket(first + k * spacing, sid, key, size, True) for k, size in reverse]
    packets.sort(key=_INJECTION_ORDER)
    return packets
