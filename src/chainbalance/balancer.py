"""One load-balancer node: session affinity plus bucket-vector mapping.

A balancer answers one question per packet: which chain carries this
session? The caller names the session by its packed key (see `hashing`),
identical for both directions, and may pass the key's `hash_key` too: the
simulator's traffic plan computes it once per session, for both balancers.
Known active sessions keep their stored chain no matter what happened to
the bucket vector in between; everything else is a single array read at
hash(key) mod L, hashing the key only when no hash was passed. Re-shuffles
replace the vector wholesale: a replacement is built aside and installed
with one assignment. A balancer is driven from one thread (the simulator's
event loop, or the caller) and takes no locks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoLiveChains
from .hashing import BucketVector, ChainId, HashParams, build_buckets
from .rebalance import TrafficWindow, WeightProfile

DEFAULT_SESSION_TIMEOUT = 6.0

MASTER = "master"
SLAVE = "slave"


@dataclass(slots=True)
class SessionRecord:
    last_timestamp: float
    assigned: ChainId


# builds a SessionRecord in C, with no Python-level __init__ call; the
# attributes are set after it
_new_record = object.__new__


class Balancer:
    """Session-aware mapper shared by the master and slave roles.

    Not thread-safe: packet mapping, session-table access and vector swaps
    must all come from one thread.
    """

    def __init__(
        self,
        role: str,
        params: HashParams,
        session_timeout: float = DEFAULT_SESSION_TIMEOUT,
    ):
        if role not in (MASTER, SLAVE):
            raise ValueError(f"role must be {MASTER!r} or {SLAVE!r}")
        self.role = role
        self.params = params
        self.session_timeout = session_timeout
        self.buckets: BucketVector | None = None
        self.table: dict[bytes, SessionRecord] = {}
        self.draining: set[ChainId] = set()
        self.counters: dict[ChainId, int] = {}
        self.window_start = 0.0

    # -- traffic path ------------------------------------------------------

    def map_packet(self, key: bytes, size: int, now: float,
                   key_hash: int | None = None) -> ChainId:
        """Return the chain for a packet of session `key` and account its size.

        An active session (last packet less than the timeout ago) keeps its
        stored chain, even one that is draining; anything else is mapped
        through the current bucket vector, by `key_hash` when the caller
        passes `hash_key(key)`, and recorded. A hit never moves the
        timestamp back: the simulator may have set it ahead of `now`.
        """
        record = self.table.get(key)
        if record is not None and record.last_timestamp + self.session_timeout > now:
            if now > record.last_timestamp:
                record.last_timestamp = now
            chain = record.assigned
        else:
            buckets = self.buckets
            if buckets is None:
                raise NoLiveChains("no bucket vector installed")
            if key_hash is None:
                chain = buckets.lookup(key)
            else:
                # BucketVector.lookup inline: no method call per new session
                chain = buckets.table[buckets.index[key_hash % len(buckets.index)]]
            record = self.table[key] = _new_record(SessionRecord)
            record.last_timestamp = now
            record.assigned = chain
        self.counters[chain] = self.counters.get(chain, 0) + size
        return chain

    def reconcile(self, key: bytes, observed: ChainId, now: float) -> ChainId | None:
        """Adopt the chain seen on a returning packet for this session.

        Master-side correction for the rare case where the slave assigned a
        session before this balancer learned of it (or after a re-shuffle
        diverged the two tables). Seeing the packet also refreshes the
        session timestamp, never backward. Returns the chain the table held
        before, or None when it held no record of the session.
        """
        if self.role != MASTER:
            raise ValueError("reconcile is a master-side operation")
        record = self.table.get(key)
        if record is None:
            self.table[key] = SessionRecord(now, observed)
            return None
        held = record.assigned
        record.assigned = observed
        if now > record.last_timestamp:
            record.last_timestamp = now
        return held

    # -- vector management -------------------------------------------------

    def stage_allocation(self, alloc, generation: int) -> BucketVector:
        """Build (but do not install) the vector for a pending allocation."""
        return build_buckets(alloc, self.params, generation)

    def install(self, vector: BucketVector, drain: ChainId | None = None):
        """Swap in a prebuilt vector; optionally mark one chain as draining."""
        self.draining.difference_update(vector.chains())
        if drain is not None:
            self.draining.add(drain)
        self.buckets = vector

    def current_profile(self) -> WeightProfile:
        """Probabilities currently encoded in the bucket vector."""
        if self.buckets is None:
            raise NoLiveChains("no bucket vector installed")
        length = len(self.buckets)
        return WeightProfile(
            {chain: count / length for chain, count in self.buckets.counts().items()}
        )

    @property
    def generation(self) -> int:
        return -1 if self.buckets is None else self.buckets.generation

    # -- bookkeeping -------------------------------------------------------

    def path_active(self, chain: ChainId, now: float) -> bool:
        """True while any session assigned to this chain is still active."""
        # a plain loop: a generator in any() resumes a Python frame per record
        timeout = self.session_timeout
        for record in self.table.values():
            if record.assigned == chain and record.last_timestamp + timeout > now:
                return True
        return False

    def snapshot_window(self, now: float) -> TrafficWindow:
        """Return the bytes counted since the last snapshot and start anew."""
        window = TrafficWindow(now - self.window_start, dict(self.counters))
        self.counters = {}
        if self.buckets is not None:
            for chain in self.buckets.chains():
                self.counters[chain] = 0
                window.bytes.setdefault(chain, 0)
        self.window_start = now
        return window

    def expire_sessions(self, now: float) -> int:
        """Drop timed-out table entries; mapping behavior is unaffected."""
        dead = [
            key
            for key, record in self.table.items()
            if record.last_timestamp + self.session_timeout <= now
        ]
        for key in dead:
            del self.table[key]
        return len(dead)
