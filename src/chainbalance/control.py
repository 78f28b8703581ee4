"""Management-system orchestration and master/slave coordination.

The management system (MS) talks to the master; the master coordinates the
slave, which is the same balancer agent in the other role. Chain additions,
removals and rebalances all funnel through the same two-phase barrier: the
master computes the new allocation from the merged traffic window, both
balancers build the replacement bucket vector (prepare), and only after the
slave has confirmed the build does either side start mapping traffic with it
(commit). A prepare that times out is rolled back and the previous
generation stays in force.

The master's pending operation is the one judge of lateness: the prepare ack
and the never-cancelled barrier timer each act only while their op is current
and its generation still staged, so the first to arrive closes the barrier
and the other returns without effect. The first handshake the master
accepts fixes the pair: a later one that names another slave is refused, so
both balancers of one committed generation are always the same two.

Messages travel over a reliable in-order transport as length-prefixed JSON;
see ``encode_message`` for the wire layout. Every request gets exactly one
``ack``: ``ok``, ``error`` and its result (``generation``, ``window`` or
``active``). The transport delivers each message a fixed latency later on
an ``EventLoop``, which also runs the master's barrier timers, so the whole
control plane is event-driven: MS calls return nothing and report through
their ``on_done`` callback once the loop has run. A latency of 0 delivers
at the current time, after what is already queued there.
"""

from __future__ import annotations

import json
import struct
from collections import deque
from dataclasses import dataclass, fields

from . import rebalance
from .balancer import MASTER, SLAVE, Balancer
from .engine import EventLoop
from .errors import (
    ChainBalanceError,
    DuplicateTags,
    LastChain,
    SlaveUnreachable,
    UnknownChain,
)
from .hashing import ChainId, HashParams
from .rebalance import TrafficWindow, WeightProfile

DEFAULT_BARRIER_TIMEOUT = 1.0
MIN_SLOTS_PER_CHAIN = 64  # bucket-vector slots each live chain needs at least

KIND_HANDSHAKE = "handshake"
KIND_ADD_CHAIN = "add_chain"
KIND_REMOVE_CHAIN = "remove_chain"
KIND_STATS_REQUEST = "stats_request"
KIND_PATH_ACTIVE_REQUEST = "path_active_request"
KIND_REBALANCE = "rebalance"
KIND_ALLOCATION_COMMIT = "allocation_commit"
KIND_ACK = "ack"

PHASE_PREPARE = "prepare"
PHASE_COMMIT = "commit"
PHASE_ABORT = "abort"


# -- wire format -------------------------------------------------------------


@dataclass
class ControlMessage:
    kind: str
    payload: dict
    src: str = ""
    req_id: int = 0
    reply_to: int | None = None


def encode_message(msg: ControlMessage) -> bytes:
    """Serialize to the wire: 4-byte big-endian length, then UTF-8 JSON."""
    body = json.dumps(
        {
            "kind": msg.kind,
            "src": msg.src,
            "req_id": msg.req_id,
            "reply_to": msg.reply_to,
            "payload": msg.payload,
        },
        separators=(",", ":"),
    ).encode()
    return struct.pack(">I", len(body)) + body


def decode_message(data: bytes) -> tuple[ControlMessage, bytes]:
    """Decode one length-prefixed message; returns (message, remaining bytes)."""
    if len(data) < 4:
        raise ValueError("short read: missing length prefix")
    (length,) = struct.unpack(">I", data[:4])
    if len(data) < 4 + length:
        raise ValueError("short read: truncated body")
    obj = json.loads(data[4 : 4 + length])
    msg = ControlMessage(
        kind=obj["kind"],
        payload=obj["payload"],
        src=obj["src"],
        req_id=obj["req_id"],
        reply_to=obj["reply_to"],
    )
    return msg, data[4 + length :]


def chain_to_wire(chain: ChainId) -> list:
    return [chain.forward_tag, chain.reverse_tag]


def chain_from_wire(obj) -> ChainId:
    return ChainId(obj[0], obj[1])


def alloc_to_wire(alloc) -> list:
    return [[c.forward_tag, c.reverse_tag, n] for c, n in alloc]


def alloc_from_wire(obj) -> list:
    return [(ChainId(f, r), n) for f, r, n in obj]


def window_to_wire(window: TrafficWindow) -> dict:
    rows = sorted(
        (c.forward_tag, c.reverse_tag, n) for c, n in window.bytes.items()
    )
    return {"length": window.window_length, "bytes": [list(r) for r in rows]}


def window_from_wire(obj) -> TrafficWindow:
    return TrafficWindow(obj["length"], {ChainId(f, r): n for f, r, n in obj["bytes"]})


# -- transport ---------------------------------------------------------------


class Transport:
    """Reliable in-order delivery between named control endpoints.

    Every message round-trips the wire codec and reaches its endpoint
    `latency` seconds later through the event loop.
    """

    def __init__(self, loop: EventLoop, latency: float):
        self.loop = loop
        self.latency = latency
        self.nodes: dict[str, object] = {}
        self.trace: list[tuple] = []

    def register(self, name: str, node):
        self.nodes[name] = node

    def send(self, src: str, dst: str, msg: ControlMessage):
        if dst not in self.nodes:
            raise SlaveUnreachable(f"no endpoint named {dst!r}")
        self.trace.append((src, dst, msg.kind, msg.req_id, msg.reply_to))
        decoded, _ = decode_message(encode_message(msg))
        self.loop.schedule(self.loop.now + self.latency, self.nodes[dst].deliver, decoded)


# -- configuration -----------------------------------------------------------


@dataclass
class ClusterConfig:
    """Everything both balancers must agree on before traffic flows."""

    hash_seed: int
    bucket_count: int
    session_timeout: float
    chains: tuple[ChainId, ...]

    def validate(self):
        if not self.chains:
            raise ValueError("at least one initial chain required")
        tags = [t for c in self.chains for t in (c.forward_tag, c.reverse_tag)]
        if len(set(tags)) != len(tags):
            raise ValueError("initial chains share a tag")
        if self.bucket_count < MIN_SLOTS_PER_CHAIN * len(self.chains):
            raise ValueError(
                f"bucket_count {self.bucket_count} too small for "
                f"{len(self.chains)} chains (need >= {MIN_SLOTS_PER_CHAIN} per chain)"
            )

    def to_wire(self) -> dict:
        # a ChainId encodes as [forward_tag, reverse_tag]
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_wire(cls, obj) -> "ClusterConfig":
        return cls(**{**obj, "chains": tuple(chain_from_wire(c) for c in obj["chains"])})


class _Endpoint:
    """Shared request/reply bookkeeping for all control endpoints."""

    def __init__(self, name: str, transport: Transport):
        self.name = name
        self.transport = transport
        self._next_req = 1
        self._waiting: dict[int, object] = {}
        transport.register(name, self)

    def request(self, dst: str, kind: str, payload: dict, on_reply):
        req_id = self._next_req
        self._next_req += 1
        if on_reply is not None:
            self._waiting[req_id] = on_reply
        self.transport.send(
            self.name, dst, ControlMessage(kind, payload, self.name, req_id)
        )

    def ack(self, to_msg: ControlMessage, ok: bool = True, error: str = "", **result):
        """The one reply to any request; `result` carries its answer."""
        payload = {"ok": ok, "error": error, **result}
        reply = ControlMessage(KIND_ACK, payload, self.name, 0, reply_to=to_msg.req_id)
        self.transport.send(self.name, to_msg.src, reply)

    def deliver(self, msg: ControlMessage):
        if msg.reply_to is not None:
            handler = self._waiting.pop(msg.reply_to, None)
            if handler is not None:
                handler(msg)
            return
        self.handle_request(msg)

    def handle_request(self, msg: ControlMessage):
        raise NotImplementedError


# -- balancer agents -----------------------------------------------------------


class _BalancerAgent(_Endpoint):
    """One balancer in the `role` a subclass sets: configured by the
    handshake, it stages a generation's vector, then installs (commits) or
    unstages (drops) it. `_on_request` takes the role's other requests.
    """

    def __init__(self, name: str, transport: Transport):
        super().__init__(name, transport)
        self.balancer: Balancer | None = None
        self.config: ClusterConfig | None = None
        self.committed: list[int] = []
        self._staged = None  # (generation, vector, drain)

    def handle_request(self, msg):
        if msg.kind == KIND_HANDSHAKE:
            cfg = ClusterConfig.from_wire(msg.payload["config"])
            if self.config is None or self.config == cfg:
                self._on_handshake(msg, cfg)
            else:
                self.ack(msg, ok=False, error="ConfigMismatch")
        elif self.balancer is None:
            self.ack(msg, ok=False, error=f"ConfigMismatch: {self.role} not configured")
        elif msg.kind == KIND_PATH_ACTIVE_REQUEST:
            pair = chain_from_wire(msg.payload["pair"])
            self.ack(msg, active=self.balancer.path_active(pair, msg.payload["now"]))
        else:
            self._on_request(msg)

    def _on_handshake(self, msg, cfg: ClusterConfig):
        # a repeat with the same config changes nothing
        if self.config is None:
            self._configure(cfg)
        self.ack(msg, generation=self.committed[-1])

    def _configure(self, cfg: ClusterConfig):
        """Build the balancer and install generation 0, split equally over the chains."""
        self.config = cfg
        params = HashParams(cfg.hash_seed, cfg.bucket_count)
        self.balancer = Balancer(self.role, params, cfg.session_timeout)
        alloc = rebalance.allocate_buckets(WeightProfile.uniform(cfg.chains), cfg.bucket_count)
        self._stage(0, alloc, None)
        self._install(0)

    def _stage(self, generation: int, alloc, drain: ChainId | None):
        self._staged = (generation, self.balancer.stage_allocation(alloc, generation), drain)

    def _install(self, generation: int) -> bool:
        """Swap in the vector staged for `generation`; False if none is."""
        if self._staged is None or self._staged[0] != generation:
            return False
        _, vector, drain = self._staged
        self._staged = None
        self.balancer.install(vector, drain=drain)
        self.committed.append(generation)
        return True

    def _unstage(self, generation: int):
        if self._staged is not None and self._staged[0] == generation:
            self._staged = None


class SlaveAgent(_BalancerAgent):
    """Control-plane face of the slave balancer."""

    role = SLAVE

    def _on_request(self, msg):
        if msg.kind == KIND_ALLOCATION_COMMIT:
            self._on_allocation(msg)
        elif msg.kind == KIND_STATS_REQUEST:
            window = self.balancer.snapshot_window(msg.payload["now"])
            self.ack(msg, window=window_to_wire(window))
        else:
            self.ack(msg, ok=False, error=f"unexpected kind {msg.kind}")

    def _on_allocation(self, msg):
        phase = msg.payload["phase"]
        generation = msg.payload["generation"]
        if phase == PHASE_PREPARE:
            drain = msg.payload.get("drain")
            alloc = alloc_from_wire(msg.payload["alloc"])
            self._stage(generation, alloc, chain_from_wire(drain) if drain else None)
        elif phase == PHASE_COMMIT:
            if not self._install(generation):
                self.ack(msg, ok=False, error=f"no staged vector for generation {generation}")
                return
        elif phase == PHASE_ABORT:
            self._unstage(generation)
        else:
            self.ack(msg, ok=False, error=f"unknown phase {phase}")
            return
        self.ack(msg, generation=generation)


# -- master ------------------------------------------------------------------


@dataclass
class _PendingOp:
    kind: str
    request: ControlMessage
    pair: ChainId | None = None
    now: float = 0.0
    alloc: list | None = None
    drain: ChainId | None = None
    generation: int = 0


class MasterAgent(_BalancerAgent):
    """Master balancer control plane: owns allocation decisions.

    Requests from the MS are serialized through a FIFO so that window
    snapshots and generation numbers are well ordered: an op starts only
    when the previous one has its slave reply, or has hit the barrier
    timeout, which runs on the transport's event loop.
    """

    role = MASTER

    def __init__(self, name: str, transport: Transport):
        super().__init__(name, transport)
        self.slave_name: str | None = None
        self.on_commit = None  # hook: fn(generation, alloc, drain)
        self._queue: deque[_PendingOp] = deque()
        self._current: _PendingOp | None = None

    # -- request intake

    def _on_request(self, msg):
        if msg.kind in (KIND_ADD_CHAIN, KIND_REMOVE_CHAIN, KIND_REBALANCE, KIND_STATS_REQUEST):
            op = _PendingOp(kind=msg.kind, request=msg, now=msg.payload["now"])
            if "pair" in msg.payload:
                op.pair = chain_from_wire(msg.payload["pair"])
            self._queue.append(op)
            self._advance()
        else:
            self.ack(msg, ok=False, error=f"unexpected kind {msg.kind}")

    def _on_handshake(self, msg, cfg):
        try:
            cfg.validate()
        except ValueError as exc:
            self.ack(msg, ok=False, error=f"ConfigMismatch: {exc}")
            return
        slave = msg.payload["slave"]
        error = self._pair_error(slave)
        if error:
            self.ack(msg, ok=False, error=error)
            return

        def _slave_done(reply):
            if not reply.payload["ok"]:
                self.ack(msg, ok=False, error=reply.payload["error"])
                return
            # another handshake may have fixed the pair while this one was
            # at the slave; a restarted slave holds another vector
            slave_at = reply.payload["generation"]
            master_at = self.committed[-1] if self.committed else 0
            error = self._pair_error(slave)
            if not error and slave_at != master_at:
                error = f"GenerationMismatch: slave at {slave_at}, master at {master_at}"
            if error:
                self.ack(msg, ok=False, error=error)
                return
            self.slave_name = slave  # the pair is fixed from here on
            _BalancerAgent._on_handshake(self, msg, cfg)

        try:
            self.request(slave, KIND_HANDSHAKE, {"config": cfg.to_wire()}, _slave_done)
        except SlaveUnreachable as exc:
            self.ack(msg, ok=False, error=f"SlaveUnreachable: {exc}")

    def _pair_error(self, slave: str) -> str:
        """Why a handshake naming `slave` is refused, or "": the first accepted one fixed it."""
        if self.slave_name in (None, slave):
            return ""
        return f"ConfigMismatch: paired with {self.slave_name!r}, not {slave!r}"

    # -- op pipeline

    def _advance(self):
        if self._current is not None or not self._queue:
            return
        self._current = self._queue.popleft()
        op = self._current
        try:
            self._validate_op(op)
        except ChainBalanceError as exc:
            self._finish(op, ok=False, error=f"{type(exc).__name__}: {exc}")
            return
        # every remaining op starts from the merged traffic window
        self.request(
            self.slave_name,
            KIND_STATS_REQUEST,
            {"now": op.now},
            lambda reply: self._with_window(op, reply),
        )

    def _validate_op(self, op):
        live = self.balancer.buckets.chains()
        if op.kind == KIND_ADD_CHAIN:
            used = {t for c in live for t in (c.forward_tag, c.reverse_tag)}
            used |= {t for c in self.balancer.draining for t in (c.forward_tag, c.reverse_tag)}
            if op.pair.forward_tag in used or op.pair.reverse_tag in used:
                raise DuplicateTags(f"tags of {op.pair} already in use")
            if self.config.bucket_count < MIN_SLOTS_PER_CHAIN * (len(live) + 1):
                raise ChainBalanceError(
                    f"bucket vector too small for {len(live) + 1} chains"
                )
        elif op.kind == KIND_REMOVE_CHAIN:
            if op.pair not in live:
                raise UnknownChain(f"chain {op.pair} is not live")
            if len(live) < 2:
                raise LastChain("cannot remove the last chain")

    def _with_window(self, op, reply):
        if not reply.payload["ok"]:
            self._finish(op, ok=False, error=reply.payload["error"])
            return
        slave_window = window_from_wire(reply.payload["window"])
        own_window = self.balancer.snapshot_window(op.now)
        merged = own_window.merged(slave_window)
        if op.kind == KIND_STATS_REQUEST:
            self._finish(op, window=window_to_wire(merged))
            return

        profile = self.balancer.current_profile()
        # restrict to live chains and floor at 1 byte so a quiet window
        # cannot abort the operation
        usable = TrafficWindow(
            merged.window_length,
            {c: max(merged.bytes.get(c, 0), 1) for c in profile.probs},
        )
        if op.kind == KIND_ADD_CHAIN:
            new_profile = rebalance.add_chain(profile, usable, op.pair)
        elif op.kind == KIND_REMOVE_CHAIN:
            new_profile = rebalance.remove_chain(profile, usable, op.pair)
            op.drain = op.pair
        else:
            new_profile = rebalance.redistribute(profile, usable)
        alloc = rebalance.allocate_buckets(new_profile, self.config.bucket_count)
        op.alloc = [(c, n) for c, n in alloc if c != op.drain]
        self._commit(op)

    def _commit(self, op):
        op.generation = self.committed[-1] + 1
        self._stage(op.generation, op.alloc, op.drain)
        payload = {
            "phase": PHASE_PREPARE,
            "generation": op.generation,
            "alloc": alloc_to_wire(op.alloc),
            "drain": chain_to_wire(op.drain) if op.drain else None,
        }
        loop = self.transport.loop
        loop.schedule(loop.now + DEFAULT_BARRIER_TIMEOUT, self._on_barrier_timeout, op)
        self.request(
            self.slave_name,
            KIND_ALLOCATION_COMMIT,
            payload,
            lambda reply: self._on_prepared(op, reply),
        )

    def _barrier_open(self, op) -> bool:
        """The lateness rule: a prepare ack or barrier timer acts only while its
        op is current and staged; the first of the two closes it for the other."""
        staged = self._staged
        return op is self._current and staged is not None and staged[0] == op.generation

    def _on_prepared(self, op, reply):
        if not self._barrier_open(op):
            return  # timed out and rolled back before the ack arrived
        if not reply.payload["ok"]:
            self._unstage(op.generation)
            self._finish(op, ok=False, error=reply.payload["error"])
            return
        # both sides have built the vector: switch over
        self._install(op.generation)
        if self.on_commit is not None:
            self.on_commit(op.generation, op.alloc, op.drain)
        self.request(
            self.slave_name,
            KIND_ALLOCATION_COMMIT,
            {"phase": PHASE_COMMIT, "generation": op.generation},
            lambda reply: self._on_committed(op, reply),
        )

    def _on_committed(self, op, reply):
        if not reply.payload["ok"]:
            self._finish(op, ok=False, error=reply.payload["error"])
            return
        self._finish(op, generation=op.generation)

    def _on_barrier_timeout(self, op):
        if not self._barrier_open(op):
            return  # the prepare was acked or refused in time
        self._unstage(op.generation)
        self.request(
            self.slave_name,
            KIND_ALLOCATION_COMMIT,
            {"phase": PHASE_ABORT, "generation": op.generation},
            None,
        )
        self._finish(op, ok=False, error="BarrierTimeout")

    def _finish(self, op, ok=True, error="", **result):
        self._current = None
        self.ack(op.request, ok=ok, error=error, **result)
        self._advance()


# -- management system ---------------------------------------------------------


class ManagementSystem(_Endpoint):
    """Scenario-facing orchestrator; one per master/slave pair.

    Every method returns None; its result reaches `on_done` once the event
    loop has delivered the replies. Operations report their ack message,
    whose payload carries `ok`, and on failure an `error` that starts with
    the error's name (for example ``"DuplicateTags: ..."``). Errors in the
    caller's own arguments raise at once: an invalid config, or a chain that
    was never announced.
    """

    def __init__(self, name: str, transport: Transport, master: str, slave: str):
        super().__init__(name, transport)
        self.master = master
        self.slave = slave
        self.known: set[ChainId] = set()

    def handshake(self, cfg: ClusterConfig, on_done):
        """Configure both balancers and build their generation-0 vectors.

        Repeating it with the same config and slave changes nothing and
        acks the current generation; a different config or slave is refused.
        """
        cfg.validate()
        self.known |= set(cfg.chains)
        self.request(
            self.master,
            KIND_HANDSHAKE,
            {"config": cfg.to_wire(), "slave": self.slave},
            on_done,
        )

    def add_chain(self, pair: ChainId, now: float, on_done):
        """Bring a new chain into rotation at probability 1/(N+1)."""
        self.known.add(pair)
        self.request(
            self.master, KIND_ADD_CHAIN, {"pair": chain_to_wire(pair), "now": now}, on_done
        )

    def remove_chain(self, pair: ChainId, now: float, on_done):
        """Start the cool-down for a chain; poll path_active to reclaim it."""
        if pair not in self.known:
            raise UnknownChain(f"chain {pair} was never announced")
        self.request(
            self.master, KIND_REMOVE_CHAIN, {"pair": chain_to_wire(pair), "now": now}, on_done
        )

    def request_rebalance(self, now: float, on_done):
        """Ask the master to re-even the split using the latest window."""
        self.request(self.master, KIND_REBALANCE, {"now": now}, on_done)

    def poll_stats(self, now: float, on_done):
        """Merged per-chain byte counts from both balancers since last poll.

        `on_done` receives the merged TrafficWindow, or None if a balancer
        refused.
        """

        def _reply(reply):
            on_done(window_from_wire(reply.payload["window"]) if reply.payload["ok"] else None)

        self.request(self.master, KIND_STATS_REQUEST, {"now": now}, _reply)

    def poll_path_active(self, pair: ChainId, now: float, on_done):
        """OR of both balancers' views of whether the pair still has sessions.

        `on_done` receives one bool after both balancers have answered, or
        None if either refused: a refusal is never read as "inactive", which
        would let the caller reclaim a chain that may still carry sessions.
        """
        if pair not in self.known:
            raise UnknownChain(f"chain {pair} was never announced")
        payload = {"pair": chain_to_wire(pair), "now": now}
        answers = []

        def _collect(reply):
            answers.append(reply.payload["active"] if reply.payload["ok"] else None)
            if len(answers) == 2:
                on_done(None if None in answers else any(answers))

        self.request(self.master, KIND_PATH_ACTIVE_REQUEST, payload, _collect)
        self.request(self.slave, KIND_PATH_ACTIVE_REQUEST, payload, _collect)
