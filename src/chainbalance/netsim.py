"""Packet-level discrete-event simulation of the two-balancer testbed.

Topology (generated from the declared chains):

    client -- es1 -- lb1(master) -- es1 -- cs_i -- nf_i -- cs_i -- es2
                                                 -- lb2(slave) -- es2 -- server

Forward packets are mapped and tagged at the master, routed by tag to one
chain's switch, delivered untagged to the NF, re-tagged on the far side and
passed through the slave on their way to the server. Reverse packets mirror
this through the slave, which maps them with its own copy of the bucket
vector; the master observes them coming back and corrects its session table
if the two sides ever diverged. The packet in flight is the traffic plan's
`PlannedPacket` itself. It carries its session's record (`traffic.Session`),
so neither balancer derives the session key from addresses or hashes it:
both map a new session by the hash the plan computed once. The simulator
keeps the session's trace on that same record, read off the packet with no
lookup.

Switches hold no state: a packet's path through them depends only on where
it leaves a stateful node (host, balancer or NF) and on the chain its
balancer picked. So every walk a run takes is known when `NetSim` is built,
and it builds them then (`_build_walks`): each kind of walk crosses the
number of links the testbed's cabling fixes (`WALK_LINKS`), and no packet
carries a tag or meets a switch at run time. The switches' OpenFlow rules,
push and pop by tag, are kept in the tests (`tests/topology.py`) as the
model every built walk is checked against. A walk carries the latency of
each link it crosses (`Walk.links`), and a send adds them in one
expression, in order, so timestamps keep their float bits. Among events
with the same timestamp, a packet's arrival at a stateful node is ordered
by when it was sent.

If no queue drops it, a forward packet makes no heap entry, and a reverse
packet one only if its arrival at the master is not settled at the slave's
send (below). The walks run through every hop that reads no state that
changes with time:
- A planned packet's arrival at its first balancer is no heap entry: `run`
  reads the plan itself (`_run_arrivals`), times each packet at its planned
  time, or the handshake's end if later, plus one latency per link, and
  runs the heap entries due strictly earlier before it. Both host walks
  cross 2 links, so the arrivals rise in plan order, and each runs first
  at its instant. The plan is a stream planned as it is iterated
  (`traffic`), so a run holds one window of it and iterates it once. The
  first packet that arrives after the horizon ends the stream; it and
  those planned by the horizon after it were sent but never received, and
  are left over.
- A packet that reaches a host with no tag left is counted delivered when
  it is sent, if it arrives by the horizon (the test the event loop's run
  applies to every entry). So is one that reaches the slave with a forward
  tag: the slave's pop is part of the walk to the server. The master's send
  to the client is the walk `to_client`.
- An NF is crossed at the balancer's send, in either mode. Every walk into
  an NF crosses 3 links from a balancer, so an NF gets packets in send
  order. A capacity NF's `admit` gives the departure, or a drop by an
  event at the arrival time, pushed at the send in the arrival's place.
  The leave (series second, last packet, the session's chains) is booked
  inline at the departure time, and the walk goes on.
- The master's arrival at `m` of a reverse packet the slave sent on chain
  c at `a` is settled at the send when its reconcile could change only
  the timestamp: the master's record holds c and is active at `m`, and
  `a + timeout > m`, so the slave's record, just refreshed, outlives the
  trip and no packet of the key is mapped to another chain before `m`. It
  is booked then: the timestamp is raised to `m` (a balancer never moves
  it back, and every reader before `m` sees the record active either way)
  and the send to the client goes on. A capacity NF can hold a packet for
  longer than the timeout, so that one the slave sent earlier on another
  chain arrives after `a`; while such an arrival is pending (`_late`),
  none is settled. An unsettled arrival, such as a session's divergent
  first response, takes one heap entry, `NetSim._master_arrival` with the
  chain of the NF the walk crossed, which reconciles; one after the
  horizon takes none. In the testbed that chain is the one the tag named:
  es1 lets a packet into the master only by the rule of a chain's reverse
  tag on that chain's port.

No packet may leave a chain's NF after its reclaim. An NF whose chain a
remove action names keeps the leaves it has booked in `in_flight`. When
`_poll_path` records the reclaim, it pushes a `violation` at the departure
time of each later one; a leave booked after the reclaim is read against
`result.reclaims` and pushes its own.

Same-instant rule: a departure at exactly an arrival's instant frees its
queue slot first. Entries pushed at the send take that moment's place among
entries with their timestamp. For a drop that is the place the arrival
event had. The master's unsettled arrival beyond an NF stands for an entry
pushed at the leave, so only on an exact time tie can it run earlier.

The per-packet path is kept to as few Python-level calls as it can be:
the traffic plan builds each packet in C (`traffic`); the arrival loop maps
each planned packet at its first balancer, by the hash its session's record
carries, and calls `transmit` once and the event loop only when a heap
entry is due; `transmit` pushes its heap entries itself, with the loop's
one sequence counter; a mapping balancer finds its send's walk by chain;
and chain identities (`ChainId`) hash and compare in C. The host and client
walks' links are bound once, and an NF's series at its first leave.

The run's record is one `RunResult`, created empty when the simulator is
built and written in place as the run goes: the nodes and the bookkeeping
hooks add to its counters and series directly, and every `events.jsonl` entry
goes through the one writer, `NetSim.record`. At the end the simulator judges
the sessions, fills in what is known only then, and returns that same object.

The event loop (`engine.EventLoop`) is single threaded and is the one place
that dispatches heap entries; all randomness lives in the traffic generator,
so a (scenario, seed) pair always produces the same run.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from heapq import heappush
from typing import NamedTuple

from .control import (
    ClusterConfig, ManagementSystem, MasterAgent, SlaveAgent, Transport, alloc_to_wire,
)
from .engine import EventLoop
from .errors import NeverConverged
from .hashing import ChainId
from .scenario import SWEEP_PERIOD, Scenario
from .traffic import PlannedPacket, Session, generate_traffic

# the links each kind of walk crosses in the testbed, whose switches
# `tests/topology.py` models: `NetSim._build_walks` builds each walk with
# this many, and the data path unpacks a walk's latencies at this arity
WALK_LINKS = {
    "a host's walk to its balancer": 2,
    "a balancer's send into an NF": 3,
    "an NF's walk on to the master": 3,
    "an NF's walk on to the server, through the slave's pop": 5,
    "the master's send to the client": 2,
}


# -- measurement ----------------------------------------------------------------


@dataclass
class ThroughputSeries:
    """Per-chain bytes bucketed into whole simulated seconds."""

    chains: tuple[ChainId, ...]
    buckets: dict[ChainId, dict[int, int]] = field(default_factory=dict)

    def last_second(self) -> int:
        seconds = [s for per in self.buckets.values() for s in per]
        return max(seconds) if seconds else 0

    def bytes_at(self, chain: ChainId, second: int) -> int:
        return self.buckets.get(chain, {}).get(second, 0)

    def total_for(self, chain: ChainId, start: float = 0.0, stop: float = math.inf) -> int:
        return sum(
            n for sec, n in self.buckets.get(chain, {}).items() if start <= sec < stop
        )

    def csv_rows(self):
        """One row per (second, chain), stable order, for byte-identical output."""
        yield "time_s,chain_fwd_tag,bytes"
        order = sorted(self.chains, key=lambda c: c.forward_tag)
        for second in range(self.last_second() + 1):
            for chain in order:
                yield f"{second},{chain.forward_tag},{self.bytes_at(chain, second)}"


CONVERGENCE_DWELL = 2  # consecutive balanced seconds that count as converged


def measure_convergence(
    series: ThroughputSeries,
    live: list[ChainId],
    event_time: float,
    band: float,
) -> float:
    """Seconds after event_time until every live chain's per-second share
    stays within +-band*(1/N) of 1/N for CONVERGENCE_DWELL consecutive seconds.

    Zero-traffic seconds never count as balanced, so the quiet tail of a run
    cannot fake convergence.
    """
    n = len(live)
    target = 1.0 / n
    first = max(0, math.ceil(event_time))
    last = series.last_second()

    def balanced(second: int) -> bool:
        total = sum(series.bytes_at(c, second) for c in live)
        if total <= 0:
            return False
        return all(
            abs(series.bytes_at(c, second) / total - target) <= band * target for c in live
        )

    for start in range(first, last - CONVERGENCE_DWELL + 2):
        if all(balanced(s) for s in range(start, start + CONVERGENCE_DWELL)):
            return start - event_time
    raise NeverConverged(
        f"no {CONVERGENCE_DWELL}s window within +-{band:.0%} of 1/{n} after t={event_time}"
    )


def measure_drain(series: ThroughputSeries, victim: ChainId, event_time: float) -> float:
    """Seconds after event_time until the victim's per-second bytes hit 0 for good."""
    first = max(0, math.ceil(event_time))
    last = series.last_second()
    for start in range(first, last + 2):
        if all(series.bytes_at(victim, s) == 0 for s in range(start, last + 1)):
            return start - event_time
    raise NeverConverged(f"chain {victim} still carries traffic at t={last}")


# -- network nodes ----------------------------------------------------------------


class NfInstance:
    """A chain's network function: pass traffic through, optionally rate-limited.

    Capacity mode is a byte token bucket: each packet occupies the output for
    size/capacity seconds, so the sustained forwarded rate cannot exceed the
    configured capacity. Packets beyond the queue limit are dropped.
    `NetSim.transmit` calls `admit` at the balancer's send.
    """

    def __init__(self, name, chain, mode="passthrough", capacity=0.0, queue_limit=0,
                 in_flight=None):
        self.name = name
        self.chain = chain
        self.mode = mode
        self.capacity = capacity
        self.queue_limit = queue_limit
        self.in_flight = in_flight  # NetSim's, on a chain a remove action names
        # the chain's per-second byte series, bound at the first leave, and
        # the `Session.nf_chains` shared by every session first crossing here
        self.seconds: dict[int, int] | None = None
        self.alone = (chain,)
        self._busy_until = 0.0
        self._queued = deque()  # departure times of the packets queued, in order

    def admit(self, packet: PlannedPacket, now: float) -> float | None:
        """Queue a packet that reaches the NF at `now`, in arrival order, and
        return its departure time; None when the queue is full. A departure
        at or before `now` has freed its slot (the same-instant rule)."""
        departures = self._queued
        while departures and departures[0] <= now:
            departures.popleft()
        if self.queue_limit and len(departures) >= self.queue_limit:
            return None
        start = max(now, self._busy_until)
        departure = start + packet.size / self.capacity
        self._busy_until = departure
        departures.append(departure)
        return departure


class Walk(NamedTuple):
    """A path from a stateful node's egress port through the switches."""

    # the latency of each link crossed, in order, as many as `WALK_LINKS`
    # fixes for the walk's kind: a send adds them in one expression, left
    # to right, so timestamps keep the float bits of one event per link
    links: tuple[float, ...]
    # the NF this walk reaches untagged, and the NF's own walk on
    nf: NfInstance | None = None
    onward: Walk | None = None
    admit: object = None  # a capacity NF's bound `admit`, called at the send
    master: bool = False  # the walk ends at the master


# -- the simulation ----------------------------------------------------------------


@dataclass
class RunResult:
    """One run's record. `NetSim` creates it empty and writes each fact into
    it in place as the run goes; `run()` returns it. A plain value, so it
    pickles."""

    scenario: Scenario
    series: ThroughputSeries
    events: list[dict] = field(default_factory=list)  # events.jsonl, in order
    anomalies: list[dict] = field(default_factory=list)
    reclaims: dict[ChainId, float] = field(default_factory=dict)
    session_starts: list[tuple[float, int, ChainId]] = field(default_factory=list)
    last_packet_on: dict[ChainId, float] = field(default_factory=dict)
    injected_bytes: int = 0
    delivered_bytes: int = 0
    dropped_bytes: int = 0
    packets: int = 0  # packets injected
    divergences: int = 0
    vectors_equal: bool = True
    reconciled_sessions: int = 0
    message_trace: list = field(default_factory=list)
    # planned arrivals run, plus heap entries pushed: data path and control plane
    scheduled_events: int = 0

    @property
    def commits(self) -> list[dict]:
        return [e for e in self.events if e["event"] == "commit"]

    @property
    def leftover_bytes(self) -> int:
        return self.injected_bytes - self.delivered_bytes - self.dropped_bytes

    @property
    def clean(self) -> bool:
        return not self.anomalies and self.vectors_equal and self.leftover_bytes == 0


class NetSim:
    """Wires the topology, runs the event loop, and keeps the books in `result`."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.loop = EventLoop()
        self.latency = scenario.link_latency
        self.horizon = scenario.horizon
        self.session_timeout = scenario.session_timeout

        pairs = scenario.all_pairs()
        # per chain a remove action names, (departure, session_id) of the
        # leaves its NF has booked and not yet made, for the reclaim check
        self.in_flight = {a.pair: deque() for a in scenario.actions if a.op == "remove"}
        # the scenario's actions not yet acked, committed or failed
        self._unacked = list(scenario.actions)

        self.result = RunResult(scenario, ThroughputSeries(pairs))
        # every session a balancer mapped, in the order first mapped, which
        # is the order `_finalize` judges them in; a session's trace is kept
        # on its record
        self.sessions: list[Session] = []
        # the latest master arrival pushed on a trip no shorter than the
        # session timeout; none is settled at its send until then
        self._late = -math.inf

        self._build_control()
        self._build_walks(pairs)

    # -- construction

    def _build_control(self):
        s = self.scenario
        self.transport = Transport(self.loop, s.control_latency)
        self.slave_agent = SlaveAgent("slave", self.transport)
        self.master_agent = MasterAgent("master", self.transport)
        self.ms = ManagementSystem("ms", self.transport, "master", "slave")
        self.master_agent.on_commit = self._on_commit

    def _build_walks(self, pairs):
        """Build every walk a run takes, with its kind's links (`WALK_LINKS`),
        and each chain's NF, which both balancers' sends on the chain cross:
        the master's goes on to the server, the slave's to the master."""
        s = self.scenario

        def links(kind):
            return (self.latency,) * WALK_LINKS[kind]

        to_server = Walk(links("an NF's walk on to the server, through the slave's pop"))
        to_master = Walk(links("an NF's walk on to the master"), master=True)
        into_nf = links("a balancer's send into an NF")
        forward, reverse = {}, {}
        for i, chain in enumerate(pairs, start=1):
            nf = NfInstance(
                f"nf{i}", chain,
                mode=s.nf_mode, capacity=s.nf_capacity, queue_limit=s.nf_queue_limit,
                in_flight=self.in_flight.get(chain),
            )
            admit = None if nf.mode == "passthrough" else nf.admit
            forward[chain] = Walk(into_nf, nf, to_server, admit)
            reverse[chain] = Walk(into_nf, nf, to_master, admit)
        self._host_latencies = links("a host's walk to its balancer")
        # the balancer a planned packet reaches first, by PlannedPacket.reverse,
        # and its send by the chain it maps to
        self._first_balancer = ((self.master_agent, forward), (self.slave_agent, reverse))
        self.to_client = Walk(links("the master's send to the client"))
        self._client_links = self.to_client.links

    # -- data plane plumbing

    def transmit(self, walk: Walk, packet: PlannedPacket, now: float):
        """Send a packet out of a balancer at `now` along its walk into
        an NF, and count it delivered where it reaches a host. The NF is
        crossed here: a capacity NF admits the packet now, then the leave is
        booked inline and the walk goes on. The master's arrival beyond it is
        booked here if it is settled (see the module docstring), and pushed
        otherwise."""
        (a, b, c), nf, onward, admit, _ = walk
        # one addition per link, in order, never a link count * latency
        at = now + a + b + c
        horizon = self.horizon
        if at > horizon:  # run(until=horizon) would not dispatch the arrival
            return
        if admit is not None:
            departure = admit(packet, at)
            if departure is None:
                # recorded at the arrival's time, in the place the arrival
                # event had: it is pushed now, at the send, as that was
                loop = self.loop
                seq = loop._seq
                loop._seq = seq + 1
                heappush(loop._heap, (at, seq, self.drop, (packet, nf.name, at)))
                return
            at = departure
            if at > horizon:
                return
        # the NF's leave, booked at its departure time
        chain, result = nf.chain, self.result
        seconds = nf.seconds
        if seconds is None:
            seconds = nf.seconds = result.series.buckets.setdefault(chain, {})
        second = int(at)
        seconds[second] = seconds.get(second, 0) + packet.size
        result.last_packet_on[chain] = at
        session = packet.session
        crossed = session.nf_chains
        if chain not in crossed:
            session.nf_chains = crossed + (chain,) if crossed else nf.alone
        in_flight = nf.in_flight
        if in_flight is not None:
            # kept for the reclaim check, pruned to the leaves after this
            # send (a reclaim still to come is no earlier), or checked now
            reclaim = result.reclaims.get(chain)
            if reclaim is None:
                while in_flight and in_flight[0][0] <= now:
                    in_flight.popleft()
                in_flight.append((at, session.session_id))
            else:
                self._flag_crossings(chain, reclaim, ((at, session.session_id),))
        links, _, _, _, master = onward
        if not master:
            # on through the slave's pop to the server, a host
            a, b, c, d, e = links
            if at + a + b + c + d + e <= horizon:
                result.delivered_bytes += packet.size
            return
        # the master's arrival, not dispatched after the horizon
        a, b, c = links
        at = at + a + b + c
        if at > horizon:
            return
        timeout = self.session_timeout
        settled = False
        if now + timeout <= at:
            if at > self._late:
                self._late = at
        elif self._late < now:
            balancer = self.master_agent.balancer  # None before run()
            record = None if balancer is None else balancer.table.get(session.key)
            settled = (record is not None and record.assigned == chain
                       and record.last_timestamp + timeout > at)
        if not settled:
            # EventLoop.schedule inline: the same entry and the same counter
            loop = self.loop
            seq = loop._seq
            loop._seq = seq + 1
            heappush(loop._heap, (at, seq, self._master_arrival, (packet, chain, at)))
            return
        if at > record.last_timestamp:
            record.last_timestamp = at
        a, b = self._client_links  # on to the client: `to_client`
        if at + a + b <= horizon:
            result.delivered_bytes += packet.size

    def _run_arrivals(self, packets, start: float):
        """Run each planned packet's arrival at its first balancer, merged
        with the heap, then the heap's entries due by the horizon. A packet
        is sent at its planned time, or at `start` (the handshake's end) if
        later, and arrives the host walk's links later. The entries due
        strictly before it (by the float just below its time) run first;
        one that arrives before `now` raises ValueError. The arrival is
        counted injected, mapped by its session's key and hash, and sent on.
        The slave's map is noted only where `note_mapped` records something:
        a session's first map there, or a map to a reclaimed chain. Returns
        the first packet that arrives after the horizon, unrun, or None."""
        loop = self.loop
        heap, run, transmit, note_mapped = loop._heap, loop.run, self.transmit, self.note_mapped
        first_balancer, reclaims = self._first_balancer, self.result.reclaims
        a, b = self._host_latencies
        horizon = self.horizon
        nextafter, below = math.nextafter, -math.inf
        late = None
        injected = arrived = 0
        for packet in packets:
            at, session, size, reverse = packet
            if at < start:
                at = start
            at = at + a + b
            if at > horizon:
                late = packet
                break
            if heap and heap[0][0] < at:
                run(nextafter(at, below))
            if at < loop.now:
                raise ValueError(f"arrival at {at} is out of time order (now {loop.now})")
            loop.now = at
            injected += size
            arrived += 1
            agent, sends = first_balancer[reverse]
            chain = agent.balancer.map_packet(session.key, size, at, session.key_hash)
            if not reverse or session.slave_chain is None or chain in reclaims:
                note_mapped(packet, chain, at)
            transmit(sends[chain], packet, at)
        run(horizon)
        result = self.result
        result.injected_bytes += injected
        result.packets += arrived
        return late

    def _sent_after_horizon(self, packets):
        """The first of `packets` reached its balancer after the horizon, and
        so did every later one: none was injected. Those planned by the
        horizon were sent within the run, so they count as injected, and
        are left over. `run` passes the packet `_run_arrivals` returned and
        the rest of the plan's iterator, so the plan is iterated once."""
        result = self.result
        for p in packets:
            if p.time > self.horizon:
                break
            result.injected_bytes += p.size
            result.packets += 1

    def record(self, event: str, now: float, **fields) -> dict:
        """Append one events.jsonl entry: t, event, then fields in call order."""
        entry = {"t": round(now, 6), "event": event, **fields}
        self.result.events.append(entry)
        return entry

    def drop(self, packet: PlannedPacket, nf: str, now: float):
        """A full queue at the named NF drops the packet."""
        self.result.dropped_bytes += packet.size
        self.record("drop", now, reason="queue_overflow", node=nf,
                    session=packet.session.session_id)

    def violation(self, what: str, session_id: int, now: float):
        """Record an invariant violation; session -1 means no session."""
        self.result.anomalies.append(self.record("anomaly", now, reason=what, session=session_id))

    # -- bookkeeping hooks

    def _master_arrival(self, packet: PlannedPacket, chain: ChainId, now: float):
        """The master gets a reverse packet the slave sent on `chain` that
        `transmit` could not settle at the send: it reconciles its table with
        the chain and sends the packet to the client."""
        held = self.master_agent.balancer.reconcile(packet.session.key, chain, now)
        if held is not None and held != chain:
            self.note_reconcile(packet, held, chain, now)
        a, b = self._client_links  # on to the client: `to_client`
        if now + a + b <= self.horizon:
            self.result.delivered_bytes += packet.size

    def note_mapped(self, packet: PlannedPacket, chain: ChainId, now: float):
        """Trace the map of the packet's session at its first balancer: the
        master's for a forward packet, the slave's for a reverse one. A
        session no balancer mapped yet holds neither chain; its first map
        adds it to `sessions`."""
        session = packet.session
        if not packet.reverse:
            if session.master_chain is None and session.slave_chain is None:
                session.master_chain = chain
                session.last_master_seen = now
                self.sessions.append(session)
                self.result.session_starts.append((now, session.session_id, chain))
                self.record("session_start", now, session=session.session_id,
                            chain=chain.forward_tag)
            else:
                if now >= session.last_master_seen + self.session_timeout:
                    session.expiry_gap = True
                session.last_master_seen = now
                session.master_chain = chain
        elif session.slave_chain is None:
            session.slave_chain = chain
            if session.master_chain is None:
                # reverse packet arrived before any forward packet was mapped
                self.sessions.append(session)
            elif chain != session.master_chain:
                self.result.divergences += 1
                self.record("divergence", now, session=session.session_id,
                            master_chain=session.master_chain.forward_tag,
                            slave_chain=chain.forward_tag)
        reclaims = self.result.reclaims
        if chain in reclaims and now > reclaims[chain]:
            self.violation(f"session mapped to reclaimed chain {chain}", session.session_id, now)

    def note_reconcile(self, packet: PlannedPacket, old: ChainId, new: ChainId, now: float):
        """Trace the master's reconcile of a session the slave mapped."""
        session = packet.session
        session.reconciled = True
        session.master_chain = new
        self.record("reconcile", now, session=session.session_id,
                    old_chain=old.forward_tag, new_chain=new.forward_tag)

    def _flag_crossings(self, chain: ChainId, reclaim: float, leaves):
        """Push a violation at each of the chain's NF leaves after its reclaim."""
        for departure, session_id in leaves:
            if departure > reclaim:
                self.loop.schedule(departure, self.violation,
                                   f"packet crossed reclaimed chain {chain}", session_id, departure)

    def _on_commit(self, generation, alloc, drain):
        self.record("commit", self.loop.now, generation=generation,
                    alloc=alloc_to_wire(alloc), drain=drain.forward_tag if drain else None)

    # -- run orchestration

    def run(self) -> RunResult:
        self._handshake()
        # no packet is sent, and nothing scheduled, before the handshake ends
        s = self.scenario
        start = self.loop.now
        packets = iter(generate_traffic(s.traffic, s.seed))
        for action in s.actions:
            self.loop.schedule(max(action.at, start), self._fire_action, action)
        self.loop.schedule(max(SWEEP_PERIOD, start), self._sweep)
        # monitoring poll every window keeps op-time windows at most one
        # window long, so rebalancing math never sees stale transients
        self.loop.schedule(max(0.5 * s.window_length, start), self._stats_poll)
        late = self._run_arrivals(packets, start)
        arrived = self.result.packets
        if late is not None:
            # an arrival after the horizon ended the stream: its packet and
            # the rest of the plan were sent but never received
            self._sent_after_horizon(itertools.chain((late,), packets))
        return self._finalize(arrived)

    def _handshake(self):
        """Run the balancers' handshake to its end; `run` starts with it."""
        if self.loop._heap:
            # the handshake drains the loop with no time limit, so an entry
            # pushed before run() would run during it and move `now` ahead
            raise RuntimeError(
                f"NetSim.run() needs an empty event loop; it holds {len(self.loop._heap)} entries"
            )
        s = self.scenario
        cfg = ClusterConfig(
            hash_seed=s.hash_seed,
            bucket_count=s.bucket_count,
            session_timeout=s.session_timeout,
            chains=s.chains,
        )
        state = {}
        self.ms.handshake(
            cfg,
            on_done=lambda reply: state.update(
                done=True, ok=reply.payload["ok"], error=reply.payload.get("error")
            ),
        )
        self.loop.run()
        if not state.get("done"):
            raise RuntimeError("handshake did not complete")
        if not state["ok"]:
            raise RuntimeError(f"handshake failed: {state['error']}")

    def _stats_poll(self):
        now = self.loop.now

        def _got(window):
            rows = sorted(
                (c.forward_tag, int(n)) for c, n in window.bytes.items()
            )
            self.record("stats", self.loop.now,
                        window_s=round(window.window_length, 6), bytes=rows)

        self.ms.poll_stats(now, on_done=_got)
        nxt = now + self.scenario.window_length
        if nxt <= self.scenario.horizon:
            self.loop.schedule(nxt, self._stats_poll)

    def _sweep(self):
        now = self.loop.now
        for agent in (self.master_agent, self.slave_agent):
            if agent.balancer is not None:
                agent.balancer.expire_sessions(now)
        if now + SWEEP_PERIOD <= self.scenario.horizon:
            self.loop.schedule(now + SWEEP_PERIOD, self._sweep)

    def _fire_action(self, action):
        now = self.loop.now
        self.record(f"action_{action.op}", now, pair=list(action.pair) if action.pair else None)
        done = lambda reply: self._action_done(action, reply)
        if action.op == "add":
            self.ms.add_chain(action.pair, now=now, on_done=done)
        elif action.op == "remove":
            self.ms.remove_chain(action.pair, now=now, on_done=done)
        else:
            self.ms.request_rebalance(now=now, on_done=done)

    def _action_done(self, action, reply):
        self._unacked.remove(action)
        now = self.loop.now
        ok = reply.payload.get("ok", False)
        if not ok:
            self.violation(f"action {action.op} failed: {reply.payload.get('error')}", -1, now)
            return
        equal = self.master_agent.balancer.buckets == self.slave_agent.balancer.buckets
        if not equal:
            self.result.vectors_equal = False
        self.record(f"committed_{action.op}", now,
                    generation=reply.payload.get("generation"), vectors_equal=equal)
        if action.op == "remove":
            self._poll_path(action.pair)

    def _poll_path(self, pair):
        now = self.loop.now

        def _answer(active):
            if active:
                self.loop.schedule(
                    self.loop.now + self.scenario.poll_interval, self._poll_path, pair
                )
            else:
                reclaim = self.result.reclaims[pair] = self.loop.now
                self.record("reclaim", reclaim, pair=list(pair))
                self._flag_crossings(pair, reclaim, self.in_flight[pair])

        self.ms.poll_path_active(pair, now=now, on_done=_answer)

    def _finalize(self, arrived: int) -> RunResult:
        """Judge the sessions and the actions, and fill in the facts known
        only at the end; `arrived` planned arrivals ran."""
        result = self.result
        for session in self.sessions:
            sid = session.session_id
            if session.reconciled:
                result.reconciled_sessions += 1
            if len(session.nf_chains) > 1 and not session.reconciled and not session.expiry_gap:
                result.anomalies.append(
                    {"event": "anomaly", "reason": "session crossed multiple chains",
                     "session": sid,
                     "chains": sorted(c.forward_tag for c in session.nf_chains)}
                )
            if (
                session.slave_chain is not None
                and session.master_chain is not None
                and session.slave_chain != session.master_chain
                and not session.reconciled
            ):
                result.anomalies.append(
                    {"event": "anomaly", "reason": "unresolved master/slave divergence",
                     "session": sid}
                )
        for action in self._unacked:
            # fired too late to finish, or not at all, by the horizon
            result.anomalies.append(
                {"event": "anomaly", "reason": f"action {action.op} at t={action.at} "
                 "got no ack by the horizon", "session": -1}
            )
        result.message_trace = self.transport.trace
        result.scheduled_events = self.loop._seq + arrived
        return result


def run(scenario: Scenario) -> RunResult:
    """Execute one scenario end to end."""
    return NetSim(scenario).run()
