"""Scenario files: the YAML schema driving simulator runs.

A scenario names the shared balancer parameters, the chain tag pairs, the
traffic profile, the NF behavior and a list of timed management actions.
See the README for the documented schema and a worked example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from .balancer import DEFAULT_SESSION_TIMEOUT
from .control import DEFAULT_BARRIER_TIMEOUT, MIN_SLOTS_PER_CHAIN
from .errors import ParseError, ValidationError
from .hashing import MASK64, ChainId
from .traffic import TrafficProfile

VALID_OPS = ("add", "remove", "rebalance")
NF_MODES = ("passthrough", "capacity")

# the keys each mapping may hold: any other key is a typo that would
# otherwise fall back to a default without a word
TOP_FIELDS = (
    "name", "seed", "hash", "session_timeout", "window", "chains", "traffic", "nf",
    "actions", "horizon", "link_latency", "control_latency", "poll_interval",
)
HASH_FIELDS = ("seed", "buckets")
TRAFFIC_FIELDS = (
    "sessions", "rate", "bytes_per_session", "packet_size", "request_bytes", "duration",
    "duration_jitter", "response_delay", "collide_fraction",
)
NF_FIELDS = ("mode", "capacity", "queue_limit")
ACTION_FIELDS = ("at", "op", "pair")


@dataclass(frozen=True)
class Action:
    at: float
    op: str
    pair: ChainId | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    hash_seed: int
    bucket_count: int
    session_timeout: float
    window_length: float
    chains: tuple[ChainId, ...]
    traffic: TrafficProfile
    actions: tuple[Action, ...] = ()
    nf_mode: str = "passthrough"
    nf_capacity: float = 0.0
    nf_queue_limit: int = 0  # packets; 0 means unbounded
    horizon: float = 60.0
    link_latency: float = 0.001
    control_latency: float = 0.001
    poll_interval: float = 0.25

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)

    def all_pairs(self) -> tuple[ChainId, ...]:
        """Every chain the run can ever use: initial plus added ones."""
        pairs = list(self.chains)
        for action in self.actions:
            if action.op == "add":
                pairs.append(action.pair)
        return tuple(pairs)


def _known(mapping, allowed, where) -> dict:
    """Return the mapping after rejecting any key the schema does not define."""
    if not isinstance(mapping, dict):
        raise ValidationError(f"must be a mapping, got {type(mapping).__name__}", location=where)
    for key in mapping:
        if key not in allowed:
            raise ValidationError(
                f"unknown field {key!r} (expected one of {', '.join(allowed)})", location=where
            )
    return mapping


def _require(mapping, key, kind, where):
    if key not in mapping:
        raise ValidationError(f"missing required field {key!r}", location=where)
    value = mapping[key]
    if kind is float and type(value) is int:
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValidationError(
            f"field {key!r} must be {kind.__name__}, got {type(value).__name__}",
            location=where,
        )
    if kind is float and not math.isfinite(value):
        raise ValidationError(f"field {key!r} must be finite, got {value}", location=where)
    return value


def _optional(mapping, key, kind, default, where):
    """A field that may be left out: the default, or a value of the given kind."""
    return _require(mapping, key, kind, where) if key in mapping else default


def _in_range(value, low, high, key, where):
    if not low <= value <= high:
        raise ValidationError(
            f"field {key!r} must lie in [{low}, {high}], got {value}", location=where
        )
    return value


def _positive(mapping, key, default, where) -> float:
    """A period or latency: a number greater than zero, or the default."""
    value = mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(
            f"field {key!r} must be a number, got {type(value).__name__}", location=where
        )
    if not 0 < value < math.inf:  # also rejects NaN
        raise ValidationError(
            f"field {key!r} must be positive and finite, got {value}", location=where
        )
    return float(value)


def _parse_pair(obj, where) -> ChainId:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ValidationError(f"tag pair must be a 2-item list, got {obj!r}", location=where)
    fwd, rev = obj
    if not isinstance(fwd, int) or not isinstance(rev, int):
        raise ValidationError(f"tags must be integers, got {obj!r}", location=where)
    try:
        return ChainId(fwd, rev)
    except ValueError as exc:
        raise ValidationError(str(exc), location=where)


def scenario_from_mapping(obj: dict, name_hint: str = "scenario") -> Scenario:
    """Validate a parsed mapping and build the Scenario, or raise with the field."""
    if not isinstance(obj, dict):
        raise ValidationError("scenario document must be a mapping", location=name_hint)
    name = obj.get("name", name_hint)
    _known(obj, TOP_FIELDS, name)

    chains = [_parse_pair(p, f"{name}.chains[{i}]") for i, p in enumerate(obj.get("chains", []))]
    if not chains:
        raise ValidationError("at least one chain required", location=f"{name}.chains")

    actions = []
    for i, entry in enumerate(obj.get("actions", []) or []):
        where = f"{name}.actions[{i}]"
        _known(entry, ACTION_FIELDS, where)
        op = _require(entry, "op", str, where)
        if op not in VALID_OPS:
            raise ValidationError(f"op must be one of {VALID_OPS}, got {op!r}", location=where)
        at = _require(entry, "at", float, where)
        pair = None
        if op in ("add", "remove"):
            pair = _parse_pair(_require(entry, "pair", list, where), where)
        actions.append(Action(at=at, op=op, pair=pair))
    if actions != sorted(actions, key=lambda a: a.at):
        raise ValidationError("actions must be sorted by time", location=f"{name}.actions")

    declared = list(chains)
    for i, action in enumerate(actions):
        where = f"{name}.actions[{i}]"
        if action.op == "add":
            declared.append(action.pair)
        elif action.op == "remove":
            if action.pair not in declared:
                raise ValidationError(
                    f"remove of undeclared pair {action.pair}", location=where
                )
    tags = [t for c in declared for t in (c.forward_tag, c.reverse_tag)]
    if len(set(tags)) != len(tags):
        raise ValidationError("a tag is used by more than one chain", location=f"{name}")

    hashing = _known(obj.get("hash", {}), HASH_FIELDS, f"{name}.hash")
    hash_seed = _in_range(
        _require(hashing, "seed", int, f"{name}.hash"), 0, MASK64, "seed", f"{name}.hash"
    )
    bucket_count = _require(hashing, "buckets", int, f"{name}.hash")
    if bucket_count < MIN_SLOTS_PER_CHAIN * len(declared):
        raise ValidationError(
            f"{bucket_count} buckets is too small for {len(declared)} chains "
            f"(need at least {MIN_SLOTS_PER_CHAIN} per chain)",
            location=f"{name}.hash.buckets",
        )

    where = f"{name}.traffic"
    tr = _known(obj.get("traffic", {}), TRAFFIC_FIELDS, where)
    traffic = TrafficProfile(
        sessions=_require(tr, "sessions", int, where),
        rate=_require(tr, "rate", float, where),
        bytes_per_session=_require(tr, "bytes_per_session", int, where),
        packet_size=_optional(tr, "packet_size", int, TrafficProfile.packet_size, where),
        request_bytes=_optional(tr, "request_bytes", int, TrafficProfile.request_bytes, where),
        duration=_optional(tr, "duration", float, TrafficProfile.duration, where),
        duration_jitter=_optional(
            tr, "duration_jitter", float, TrafficProfile.duration_jitter, where
        ),
        response_delay=_optional(
            tr, "response_delay", float, TrafficProfile.response_delay, where
        ),
        collide_fraction=_optional(
            tr, "collide_fraction", float, TrafficProfile.collide_fraction, where
        ),
    )
    try:
        traffic.validate()
    except ValueError as exc:
        raise ValidationError(str(exc), location=where)

    where = f"{name}.nf"
    nf = _known(obj.get("nf", {}) or {}, NF_FIELDS, where)
    nf_mode = nf.get("mode", Scenario.nf_mode)
    if nf_mode not in NF_MODES:
        raise ValidationError(f"nf.mode must be one of {NF_MODES}", location=f"{name}.nf.mode")
    nf_capacity = _optional(nf, "capacity", float, Scenario.nf_capacity, where)
    nf_queue_limit = _in_range(
        _optional(nf, "queue_limit", int, Scenario.nf_queue_limit, where),
        0, math.inf, "queue_limit", where,
    )
    if nf_mode == "capacity" and nf_capacity <= 0:
        raise ValidationError("capacity mode needs nf.capacity > 0", location=f"{name}.nf.capacity")

    horizon = _positive(obj, "horizon", Scenario.horizon, name)
    for i, action in enumerate(actions):
        if not 0 <= action.at < horizon:
            raise ValidationError(
                f"action time {action.at} outside [0, horizon)", location=f"{name}.actions[{i}]"
            )

    control_latency = _positive(obj, "control_latency", Scenario.control_latency, name)
    if 2 * control_latency >= DEFAULT_BARRIER_TIMEOUT:
        # the prepare round trip would never beat the master's barrier timer
        raise ValidationError(
            f"field 'control_latency' must be below {DEFAULT_BARRIER_TIMEOUT / 2} s "
            f"(half the barrier timeout), got {control_latency}",
            location=name,
        )

    return Scenario(
        name=name,
        seed=_optional(obj, "seed", int, 1, name),
        hash_seed=hash_seed,
        bucket_count=bucket_count,
        session_timeout=_positive(obj, "session_timeout", DEFAULT_SESSION_TIMEOUT, name),
        window_length=_positive(obj, "window", 5.0, name),
        chains=tuple(chains),
        traffic=traffic,
        actions=tuple(actions),
        nf_mode=nf_mode,
        nf_capacity=nf_capacity,
        nf_queue_limit=nf_queue_limit,
        horizon=horizon,
        link_latency=_positive(obj, "link_latency", Scenario.link_latency, name),
        control_latency=control_latency,
        poll_interval=_positive(obj, "poll_interval", Scenario.poll_interval, name),
    )


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    try:
        obj = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid YAML in {path}: {exc}")
    return scenario_from_mapping(obj, name_hint=path.stem)
