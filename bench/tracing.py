"""Span tracing installed from outside the program, and the per-layer metrics.

Each wrapper replaces a function on the name its caller looks up: a module
global (``netsim.canonical_key``) or a class attribute (``SwitchNode.handle``).
Spans are aggregated in memory per (name, parent name); a span's self time is
its duration minus the time its child spans took. Nothing is written until
the run ends.

A target the program no longer has is skipped and listed in ``missing``, so
a refactor of the program degrades the layer figures instead of breaking the
end-to-end run.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (label, owner, attribute) for every span; the owner is resolved by name
# against the imported chainbalance modules. Labels name the module that owns
# the code, so per-layer sums are prefix sums.
SPANS = (
    ("netsim.EventLoop.run", "netsim.EventLoop", "run"),
    ("netsim.EventLoop.schedule", "netsim.EventLoop", "schedule"),
    ("netsim.NetSim.inject", "netsim.NetSim", "inject"),
    ("netsim.NetSim.transmit", "netsim.NetSim", "transmit"),
    ("netsim.NetSim._arrive", "netsim.NetSim", "_arrive"),
    ("netsim.SwitchNode.handle", "netsim.SwitchNode", "handle"),
    ("netsim.route", "netsim", "route"),
    ("netsim.BalancerNode.handle", "netsim.BalancerNode", "handle"),
    ("netsim.HostNode.handle", "netsim.HostNode", "handle"),
    ("netsim.NfInstance.handle", "netsim.NfInstance", "handle"),
    ("netsim.NfInstance._depart", "netsim.NfInstance", "_depart"),
    ("netsim.NetSim.note_mapped", "netsim.NetSim", "note_mapped"),
    ("netsim.NetSim.note_nf", "netsim.NetSim", "note_nf"),
    ("netsim.NetSim.note_reconcile", "netsim.NetSim", "note_reconcile"),
    # canonical_key is looked up in two module namespaces
    ("hashing.canonical_key", "netsim", "canonical_key"),
    ("hashing.canonical_key", "balancer", "canonical_key"),
    ("hashing.hash_key", "hashing", "hash_key"),
    ("hashing.BucketVector.lookup", "hashing.BucketVector", "lookup"),
    ("hashing.build_buckets", "balancer", "build_buckets"),
    ("hashing.BucketVector.chains", "hashing.BucketVector", "chains"),
    ("hashing.BucketVector.counts", "hashing.BucketVector", "counts"),
    ("balancer.Balancer.map_packet", "balancer.Balancer", "map_packet"),
    ("balancer.Balancer.expire_sessions", "balancer.Balancer", "expire_sessions"),
    ("balancer.Balancer.path_active", "balancer.Balancer", "path_active"),
    ("balancer.Balancer.snapshot_window", "balancer.Balancer", "snapshot_window"),
    ("balancer.Balancer.install", "balancer.Balancer", "install"),
    ("rebalance.bias", "rebalance", "bias"),
    ("rebalance.redistribute", "rebalance", "redistribute"),
    ("rebalance.add_chain", "rebalance", "add_chain"),
    ("rebalance.remove_chain", "rebalance", "remove_chain"),
    ("rebalance.allocate_buckets", "rebalance", "allocate_buckets"),
    # the codec as the simulator's transport calls it
    ("control.encode_message", "netsim", "encode_message"),
    ("control.decode_message", "netsim", "decode_message"),
    # control-plane handling, so that it is not counted as event dispatch
    ("control.deliver", "control._Endpoint", "deliver"),
    ("traffic.generate_traffic", "netsim", "generate_traffic"),
)

# per-layer metrics that count work; they must repeat bit-for-bit for one
# (workload, seed)
EXACT = (
    "netsim.events", "netsim.events_per_packet", "netsim.heap_peak",
    "netsim.nf.departures", "netsim.nf.queue_drops", "balancer.map_packet.calls",
    "balancer.table_hit_ratio", "balancer.table_peak", "balancer.path_active.calls",
    "hashing.canonical_key.calls", "hashing.hash_key.calls", "hashing.build_buckets.calls",
    "hashing.buckets_moved_ratio", "rebalance.calls", "control.messages",
    "control.divergences", "traffic.packets", "traffic.sessions", "cli.output_bytes",
)

LOOKUP = "hashing.BucketVector.lookup"
MAP_PACKET = "balancer.Balancer.map_packet"


class Tracer:
    """In-memory span aggregator; one per traced process."""

    def __init__(self):
        # (label, parent label) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str | None], list] = {}
        self.missing: list[str] = []
        self.heap_peak = 0
        self.table_peak = 0
        self.packets = 0
        self.installs: list[tuple] = []  # (old vector, new vector) on the master
        self._stack: list[list] = []

    def wrap(self, label, fn, track_children=False):
        """Return fn timed as a span named label.

        With track_children, the span records the labels of its direct
        children, which ``_label_for`` uses to split map_packet into hit and
        miss calls.
        """
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            # frame: [label, child seconds, child labels or None]
            frame = [label, 0.0, set() if track_children else None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                name = _label_for(frame)
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                    if parent[2] is not None:
                        parent[2].add(name)
                key = (name, parent[0] if parent is not None else None)
                agg = spans.get(key)
                if agg is None:
                    spans[key] = [1, elapsed, elapsed - frame[1]]
                else:
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += elapsed - frame[1]

        return traced

    def install(self, modules: dict):
        """Wrap every target in SPANS; modules maps short names to modules."""
        for label, owner_path, attr in SPANS:
            owner = _resolve(modules, owner_path)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            fn = vars(owner)[attr]
            fn = self._with_probe(label, fn)
            setattr(owner, attr, self.wrap(label, fn, track_children=label == MAP_PACKET))

    def _with_probe(self, label, fn):
        """Add the counters a few spans record beside their time.

        The probes sit inside the span, so their small cost is charged to the
        probed function; the reported times carry it.
        """
        if label == "netsim.EventLoop.schedule":
            def probed(loop, *args):
                entry = fn(loop, *args)
                size = len(getattr(loop, "_heap", ()))
                if size > self.heap_peak:
                    self.heap_peak = size
                return entry
            return probed
        if label == "balancer.Balancer.expire_sessions":
            def probed(balancer, *args):
                size = len(balancer.table)
                if size > self.table_peak:
                    self.table_peak = size
                return fn(balancer, *args)
            return probed
        if label == "balancer.Balancer.install":
            def probed(balancer, vector, *args, **kwargs):
                if balancer.role == "master":
                    self.installs.append((balancer.buckets, vector))
                return fn(balancer, vector, *args, **kwargs)
            return probed
        if label == "traffic.generate_traffic":
            def probed(*args, **kwargs):
                packets = fn(*args, **kwargs)
                self.packets += len(packets)
                return packets
            return probed
        return fn

    # -- aggregation

    def by_label(self) -> dict[str, list]:
        """[calls, total, self] per label, summed over parents."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, _), (calls, total, self_s) in self.spans.items():
            agg = out[name]
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        return out

    def span_rows(self) -> list[dict]:
        """Every (name, parent) aggregate, for the detailed results file."""
        return [
            {"name": name, "parent": parent, "calls": calls,
             "total_s": total, "self_s": self_s}
            for (name, parent), (calls, total, self_s) in sorted(
                self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
            )
        ]

    def moved_ratios(self) -> list[float]:
        """Share of slots that changed owner at each master commit."""
        ratios = []
        for old, new in self.installs:
            if old is None:
                continue
            moved = sum(1 for a, b in zip(old.slots, new.slots) if a != b)
            ratios.append(moved / len(new.slots))
        return ratios


def _label_for(frame) -> str:
    if frame[2] is None:
        return frame[0]
    return frame[0] + (".miss" if LOOKUP in frame[2] else ".hit")


def _resolve(modules: dict, path: str):
    head, _, rest = path.partition(".")
    obj = modules.get(head)
    for part in filter(None, rest.split(".")):
        obj = vars(obj).get(part) if obj is not None else None
    return obj


def layer_metrics(tracer: Tracer, run: dict) -> dict[str, float]:
    """Per-layer figures of one traced run.

    ``run`` carries what the benchmark measured around its own calls:
    the spans of parse_scenario and write_outputs, and the run's outputs.
    Self times are seconds; per-call costs are inclusive span durations.
    """
    spans = tracer.by_label()

    def calls(*labels):
        return sum(spans[x][0] for x in labels if x in spans)

    def total(*labels):
        return sum(spans[x][1] for x in labels if x in spans)

    def self_s(*labels):
        return sum(spans[x][2] for x in labels if x in spans)

    def per_call(scale, labels, count):
        return scale * total(*labels) / count if count else 0.0

    hit, miss = MAP_PACKET + ".hit", MAP_PACKET + ".miss"
    map_calls = calls(hit, miss)
    events = calls("netsim.EventLoop.schedule")
    packets = tracer.packets
    rebalance = [x for x in spans if x.startswith("rebalance.")]
    moved = tracer.moved_ratios()
    messages = calls("control.encode_message")
    nf = ("netsim.NfInstance.handle", "netsim.NfInstance._depart")
    return {
        # exact work counts
        "netsim.events": events,
        "netsim.events_per_packet": events / packets if packets else 0.0,
        "netsim.heap_peak": tracer.heap_peak,
        "netsim.nf.departures": calls("netsim.NfInstance._depart"),
        "netsim.nf.queue_drops": run["queue_drops"],
        "balancer.map_packet.calls": map_calls,
        "balancer.table_hit_ratio": calls(hit) / map_calls if map_calls else 0.0,
        "balancer.table_peak": tracer.table_peak,
        "balancer.path_active.calls": calls("balancer.Balancer.path_active"),
        "hashing.canonical_key.calls": calls("hashing.canonical_key"),
        "hashing.hash_key.calls": calls("hashing.hash_key"),
        "hashing.build_buckets.calls": calls("hashing.build_buckets"),
        "hashing.buckets_moved_ratio": sum(moved) / len(moved) if moved else 0.0,
        "rebalance.calls": calls(*rebalance),
        "control.messages": run["messages"],
        "control.divergences": run["divergences"],
        "traffic.packets": packets,
        "traffic.sessions": run["sessions"],
        "cli.output_bytes": run["output_bytes"],
        # self times
        "netsim.transmit.self_s": self_s(
            "netsim.NetSim.inject", "netsim.NetSim.transmit", "netsim.NetSim._arrive"
        ),
        "netsim.switch.self_s": self_s("netsim.SwitchNode.handle", "netsim.route"),
        "netsim.balancer_node.self_s": self_s("netsim.BalancerNode.handle"),
        "netsim.host.self_s": self_s("netsim.HostNode.handle"),
        "netsim.nf.self_s": self_s(*nf),
        "netsim.bookkeeping.self_s": self_s(
            "netsim.NetSim.note_mapped", "netsim.NetSim.note_nf",
            "netsim.NetSim.note_reconcile",
        ),
        "balancer.map_packet.self_s": self_s(hit, miss),
        "balancer.expire.self_s": self_s("balancer.Balancer.expire_sessions"),
        "balancer.path_active.self_s": self_s("balancer.Balancer.path_active"),
        "balancer.snapshot.self_s": self_s("balancer.Balancer.snapshot_window"),
        "balancer.install.self_s": self_s("balancer.Balancer.install"),
        "hashing.canonical_key.self_s": self_s("hashing.canonical_key"),
        "hashing.hash_key.self_s": self_s("hashing.hash_key"),
        "hashing.build_buckets.self_s": self_s("hashing.build_buckets"),
        "hashing.vector_scan.self_s": self_s(
            "hashing.BucketVector.chains", "hashing.BucketVector.counts"
        ),
        "rebalance.self_s": self_s(*rebalance),
        "control.codec.self_s": self_s("control.encode_message", "control.decode_message"),
        "traffic.generate.self_s": self_s("traffic.generate_traffic"),
        "scenario.parse.self_s": run["parse_s"],
        "cli.write_outputs.self_s": run["write_s"],
        # per-call costs (inclusive); dispatch counts the heap push and the
        # pop loop, which is what one scheduled event costs the engine
        "netsim.dispatch_us_per_event": (
            1e6 * self_s("netsim.EventLoop.run", "netsim.EventLoop.schedule") / events
            if events else 0.0
        ),
        "netsim.switch.us_per_call": per_call(
            1e6, ["netsim.SwitchNode.handle"], calls("netsim.SwitchNode.handle")
        ),
        "netsim.balancer_node.us_per_call": per_call(
            1e6, ["netsim.BalancerNode.handle"], calls("netsim.BalancerNode.handle")
        ),
        "netsim.nf.us_per_call": per_call(1e6, nf, calls("netsim.NfInstance.handle")),
        "netsim.host.us_per_call": per_call(
            1e6, ["netsim.HostNode.handle"], calls("netsim.HostNode.handle")
        ),
        "balancer.map_packet.hit_us": per_call(1e6, [hit], calls(hit)),
        "balancer.map_packet.miss_us": per_call(1e6, [miss], calls(miss)),
        "hashing.canonical_key.us_per_call": per_call(
            1e6, ["hashing.canonical_key"], calls("hashing.canonical_key")
        ),
        "hashing.hash_key.us_per_call": per_call(
            1e6, ["hashing.hash_key"], calls("hashing.hash_key")
        ),
        "hashing.build_buckets.ms_per_call": per_call(
            1e3, ["hashing.build_buckets"], calls("hashing.build_buckets")
        ),
        "rebalance.us_per_call": per_call(1e6, rebalance, calls(*rebalance)),
        "control.codec.us_per_round_trip": per_call(
            1e6, ["control.encode_message", "control.decode_message"], messages
        ),
    }
