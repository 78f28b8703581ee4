"""Synthetic bidirectional session workloads for the simulator.

Sessions mimic fixed-rate HTTP fetches: a short client request followed by
a paced stream of response bytes from the server, finishing a configurable
duration after the session started. Everything is derived from one seed so
a profile always expands to the identical packet schedule. Every session
carries the profile's byte counts, cut into packets once per plan, and
draws only its client and its duration. A client's key is packed when it
is first drawn. Each session is one `Session` record, made when it is
planned: its id, its client's key and the key's `hash_key`, computed once
for both balancers. All packets of the session carry that record, in both
directions, and the simulator keeps the session's trace on it.

The schedule is never held whole: `generate_traffic` returns a plan that
knows its length and plans the sessions as it is iterated, in session_id
order, one window at a time. The windows' edges are one list, made up
front: window k's edge is (k + 1) * WINDOW_SESSIONS / rate, the start of
session (k + 1) * WINDOW_SESSIONS. The first windows each plan the
WINDOW_SESSIONS sessions that start from the previous edge (the last of
them what is left). Session i starts at i / rate and none of its packets is
earlier, so no packet of a later window is earlier than an edge. As many
windows again plan no session and split the packets still due after the
last session start, and a last window, with no edge, takes what remains.
Each window plans its sessions, then takes from every session with a packet
due in it, in session_id order, its request packets and then its response
packets that fall before the edge, and sorts them stably on time. A window
so holds, in plan order, exactly the packets of the whole plan that fall
between the previous edge and its own, and its stable sort puts them in the
(time, session_id, reverse) order that a stable sort of the whole plan
gives. Any rising edges would, as long as none is later than the next
window's first session start. The rest of a direction's packets wait in its
cursor, filed by one `bisect_right` on the edges under the window its next
packet falls in, so a window visits only the sessions it takes packets
from. What outlives the windows is one cursor per
direction of each unfinished session, and the key of every client drawn,
which keeps the clients distinct; a session's record lives as long as its
packets and whatever the consumer keeps of it.

A planned packet costs no Python frame: it is built by `tuple.__new__` on
`PlannedPacket`, in C, where the NamedTuple's own constructor is a Python
function (it also checks the field count, which the one call site fixes at
four). A session costs one, its `Session` constructor. The RNG's methods are
bound once per iteration; the draws, their order and every float expression
are those of a plan built one call at a time.

A client costs no Python frame either. Its address 10.0.a.b and its port are
`randrange(256)`, `1 + randrange(254)` and `randrange(1024, 65536)` as
CPython 3.10-3.13 draw them (`Random._randbelow_with_getrandbits`), written
out as C-level `getrandbits` calls with rejection: 9 bits until below 256,
8 bits until below 254 (then + 1), 16 bits until below 64512 (then + 1024).
The plan so fixes that algorithm: a CPython that draws `randrange` otherwise
fails a named test in `tests/test_traffic.py` rather than moving the plan. Its
key is packed straight from the draws: every 10.0.a.b client sorts below
SERVER (10.99.0.1:80), so the key is the client's address and big-endian port
followed by SERVER's, which is `hashing.canonical_key` of the two. Its hash
is computed inline from the same draws, as `hashing.hash_key` of the key: the
FNV-1a state after the fixed `10.0` prefix, four steps over the bytes a,
b + 1, port >> 8 and port & 0xFF, then SERVER's six bytes as one multiply-add
and a table read (`hashing.fnv_fixed_parts`, built once at import), then the
fmix64 finalizer. A session that reuses a drawn key (`collide_fraction`)
hashes it with `hash_key`: no hash is kept per drawn key. A session's
duration is `uniform(-jitter, jitter)` written out as its documented
expression, `a + (b - a) * random()`.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, NamedTuple

from . import hashing
from .hashing import Endpoint

SERVER = Endpoint.parse("10.99.0.1", 80)
# SERVER as the hi half of a client's key: every 10.0.x.y client is below it
_SERVER_BYTES = SERVER.address + SERVER.port.to_bytes(2, "big")
# FNV-1a's fixed parts of every drawn client's key: the state after its
# 10.0 prefix, and SERVER's bytes as (power, table) (see the module docstring)
_CLIENT_PREFIX_STATE, _SERVER_POWER, _SERVER_TABLE = hashing.fnv_fixed_parts(
    b"\x0a\x00", _SERVER_BYTES)
# about 10 times the largest bundled plan (13,500 sessions of 16 packets):
# the plan is never allocated whole, but every packet is one run's work, so
# a larger plan is refused, never run
MAX_PLAN_PACKETS = 2**21
# session starts per window of the plan's stream, and the spacing of the
# windows after the last session start; a window holds the packets due
# before its edge, a few per unfinished session
WINDOW_SESSIONS = 256


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
        if self.planned_packets > MAX_PLAN_PACKETS:
            raise ValueError(f"field 'sessions' times {self.planned_packets // self.sessions}"
                             f" packets per session must be at most {MAX_PLAN_PACKETS},"
                             f" got {self.sessions}")

    @property
    def planned_packets(self) -> int:
        """Packets in the plan: each session's request and its response, each
        cut into packet_size chunks."""
        request, response = self.request_bytes, self.bytes_per_session - self.request_bytes
        return self.sessions * (-(-request // self.packet_size) - (-response // self.packet_size))


class Session:
    """One planned session, from the plan to the end of the run.

    The plan sets its id, its key and the key's `hash_key`, computed once,
    so that no balancer hashes the key again: passed in as `key_hash`, or
    computed here when none is passed. The rest is its trace,
    which the simulator writes as the run goes: the chain each balancer
    mapped it to, each chain whose NF it crossed (first crossing first),
    whether the master reconciled it, and whether the master re-mapped it
    after its record expired (`expiry_gap`). Sessions that share a key
    (`collide_fraction`) share the balancers' table entry, never a record.
    """

    __slots__ = ("session_id", "key", "key_hash", "master_chain", "slave_chain", "nf_chains",
                 "reconciled", "expiry_gap", "last_master_seen")

    def __init__(self, session_id: int, key: bytes, key_hash: int | None = None):
        self.session_id = session_id
        self.key = key  # the session's canonical key
        self.key_hash = hashing.hash_key(key) if key_hash is None else key_hash
        self.master_chain = None
        self.slave_chain = None
        self.nf_chains = ()
        self.reconciled = False
        self.expiry_gap = False
        self.last_master_seen = 0.0

    def __repr__(self):
        return f"Session(session_id={self.session_id!r}, key={self.key!r})"


class PlannedPacket(NamedTuple):
    """A packet the generator will inject: which session, when, how big."""

    time: float
    session: Session
    size: int
    reverse: bool


# stable on time over packets planned in (session_id, reverse) order, this
# sorts the schedule by (time, session_id, reverse), its injection order
_INJECTION_ORDER = itemgetter(0)
_PLAN_ORDER = itemgetter(0)  # a cursor's: 2 * session_id + reverse


def _chunks(total: int, size: int) -> list[int]:
    n = -(-total // size)
    return [size] * (n - 1) + [total - size * (n - 1)]


class TrafficPlan:
    """A profile's packet schedule at one seed, planned as it is iterated.

    `len()` is the number of packets, known from the profile alone. Each
    iteration plans the sessions afresh, in session_id order with the same
    draws, and yields the packets in (time, session_id, reverse) order, one
    window at a time: a window of WINDOW_SESSIONS session starts, or one of
    the same length after the last session start (see the module
    docstring)."""

    __slots__ = ("profile", "seed")

    def __init__(self, profile: TrafficProfile, seed: int):
        profile.validate()
        self.profile, self.seed = profile, seed

    def __len__(self) -> int:
        return self.profile.planned_packets

    def __iter__(self) -> Iterator[PlannedPacket]:
        # the packets of each window are handed on in C, with no Python
        # frame resumed per packet
        return itertools.chain.from_iterable(self._windows())

    def _windows(self) -> Iterator[list[PlannedPacket]]:
        """Each window's packets, in (time, session_id, reverse) order."""
        p, rng = self.profile, random.Random(self.seed)
        draw, getrandbits, choice = rng.random, rng.getrandbits, rng.choice
        server = _SERVER_BYTES
        prime, mask = hashing.FNV_PRIME, hashing.MASK64
        mix1, mix2 = hashing.FMIX64_M1, hashing.FMIX64_M2
        prefix_state, power, table = _CLIENT_PREFIX_STATE, _SERVER_POWER, _SERVER_TABLE
        low, span = -p.duration_jitter, p.duration_jitter - -p.duration_jitter
        new = tuple.__new__  # builds a PlannedPacket in C (see the module docstring)
        rate, sessions = p.rate, p.sessions
        forward = list(enumerate(_chunks(p.request_bytes, p.packet_size)))
        reverse = list(enumerate(_chunks(p.bytes_per_session - p.request_bytes, p.packet_size), 1))
        # the key of every client drawn so far, as a dict's keys: a set's
        # table takes about twice the memory, and this outlives the windows
        used: dict[bytes, None] = {}
        pool: list[bytes] = []  # the same keys, in draw order
        # each window's edge: one per window that plans sessions, as many
        # again at the same spacing for the packets still due after the last
        # session start, and no edge (infinity) for the last window
        count = -(-sessions // WINDOW_SESSIONS)
        edges = [(k + 1) * WINDOW_SESSIONS / rate for k in range(2 * count)] + [math.inf]
        # due[j]: a cursor per direction of each session whose next packet
        # falls in window j, [plan order, time of step 0, spacing, next
        # packet, (step, size) of each packet, session, reverse]
        due: list[list[list]] = [[] for _ in edges]
        for j, edge in enumerate(edges):
            # filed from different windows, they are taken in plan order,
            # before the sessions planned now
            cursors, due[j] = due[j], None
            cursors.sort(key=_PLAN_ORDER)
            # a new list frees the previous window's packets before any is planned
            window: list[PlannedPacket] = []
            append = window.append
            for sid in range(j * WINDOW_SESSIONS, min((j + 1) * WINDOW_SESSIONS, sessions)):
                if pool and draw() < p.collide_fraction:
                    key = choice(pool)
                    key_hash = None  # hashed by the Session
                else:
                    # randrange(256), 1 + randrange(254) and randrange(1024,
                    # 65536), drawn as CPython draws them (see the module
                    # docstring)
                    while True:
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
                        key = bytes((10, 0, a, b + 1, port >> 8, port & 0xFF)) + server
                        if key not in used:
                            break
                    used[key] = None
                    pool.append(key)
                    # hash_key(key) from its fixed parts (see the module
                    # docstring), masked only after SERVER's bytes: bits
                    # above the 64th never reach the low 64 of an xor or a
                    # product
                    h = ((((prefix_state ^ a) * prime ^ (b + 1)) * prime
                          ^ (port >> 8)) * prime ^ (port & 0xFF)) * prime
                    h = (h * power + table[h & 0xFF]) & mask
                    h = ((h ^ (h >> 33)) * mix1) & mask
                    h = ((h ^ (h >> 33)) * mix2) & mask
                    key_hash = h ^ (h >> 33)
                # uniform(-jitter, jitter)
                duration = p.duration + (low + span * draw())
                start = sid / rate
                spacing = (duration - p.response_delay) / len(reverse)
                session = Session(sid, key, key_hash)
                cursors.append([2 * sid, start, 1e-4, 0, forward, session, False])
                cursors.append([2 * sid + 1, start + p.response_delay, spacing, 0, reverse,
                                session, True])
            for cursor in cursors:
                _, first, spacing, i, steps, session, backward = cursor
                n = len(steps)
                while i < n:
                    k, size = steps[i]
                    at = first + k * spacing
                    if at >= edge:
                        break
                    append(new(PlannedPacket, (at, session, size, backward)))
                    i += 1
                if i == n:
                    continue
                # file it under the first window whose edge is above its next
                # packet, a later one than this
                cursor[3] = i
                due[bisect_right(edges, at, j + 1)].append(cursor)
            window.sort(key=_INJECTION_ORDER)
            yield window


def generate_traffic(profile: TrafficProfile, seed: int) -> TrafficPlan:
    """The two-direction packet schedule of a profile at a seed, yielded in
    time order as it is iterated; raises ValueError on a bad profile."""
    return TrafficPlan(profile, seed)
