"""Scenario files: the YAML schema driving simulator runs.

A scenario names the shared balancer parameters, the chain tag pairs, the
traffic profile, the NF behavior and a list of timed management actions.
See the README for the documented schema and a worked example.

Each mapping of the schema declares its keys once, as a table of `Field`s
(kind, default, range), and `_read` checks a mapping against its table:
unknown keys, presence, type, finiteness and range. Only the rules that tie
several fields together are written out by hand.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple, get_type_hints

import yaml

from .balancer import DEFAULT_SESSION_TIMEOUT
from .control import DEFAULT_BARRIER_TIMEOUT, MIN_SLOTS_PER_CHAIN
from .errors import ParseError, ValidationError
from .hashing import MASK64, ChainId
from .traffic import TrafficProfile


@dataclass(frozen=True)
class Action:
    at: float
    op: str
    pair: ChainId | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    hash_seed: int
    bucket_count: int
    chains: tuple[ChainId, ...]
    traffic: TrafficProfile
    seed: int = 1
    session_timeout: float = DEFAULT_SESSION_TIMEOUT
    window_length: float = 5.0
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


class Field(NamedTuple):
    """One key of a mapping: its kind, its default (MISSING: required) and its range."""

    kind: type
    default: object = MISSING
    low: float = -math.inf  # inclusive bounds of a number
    high: float = math.inf
    positive: bool = False  # a number that must also exceed zero
    choices: tuple = ()


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list",
               dict: "a mapping"}


def _period(default: float) -> Field:
    return Field(float, default, positive=True)


# one declaration per mapping: its keys, and nothing else, may appear in it
TOP = {
    "name": Field(str, None),  # None: the file's stem
    "seed": Field(int, Scenario.seed),
    "hash": Field(dict),
    "session_timeout": _period(Scenario.session_timeout),
    "window": _period(Scenario.window_length),
    "chains": Field(list),
    "traffic": Field(dict),
    "nf": Field(dict, {}),
    "actions": Field(list, ()),
    "horizon": _period(Scenario.horizon),
    "link_latency": _period(Scenario.link_latency),
    "control_latency": _period(Scenario.control_latency),
    "poll_interval": _period(Scenario.poll_interval),
}
# 16 times the largest vector of any bundled scenario or bench workload: the
# vector is built slot by slot, so a larger one is refused, never allocated
MAX_BUCKETS = 2**20
HASH = {"seed": Field(int, low=0, high=MASK64), "buckets": Field(int, high=MAX_BUCKETS)}
# seconds between two session sweeps of both balancers' tables
SWEEP_PERIOD = 1.0
# about 250 times the most periods of any bundled scenario or bench workload
# (66 s of 0.25 s drain polls): each stats window, drain poll and session
# sweep in the horizon is control work, so a run with more is refused
MAX_PERIODS = 2**16
# read off the profile, whose defaults are the schema's; its ranges live in validate()
TRAFFIC = {
    f.name: Field(get_type_hints(TrafficProfile)[f.name], f.default)
    for f in fields(TrafficProfile)
}
NF = {
    "mode": Field(str, Scenario.nf_mode, choices=("passthrough", "capacity")),
    "capacity": Field(float, Scenario.nf_capacity),
    "queue_limit": Field(int, Scenario.nf_queue_limit, low=0),
}
ACTION = {
    "at": Field(float),
    "op": Field(str, choices=("add", "remove", "rebalance")),
    "pair": Field(list, None),  # required by add and remove, refused for rebalance
}


def _field(mapping: dict, key: str, spec: Field, where: str):
    """The value of one key: its default when absent, else the value checked
    against the spec (bools are not numbers; ints widen to float)."""
    if key not in mapping:
        if spec.default is MISSING:
            raise ValidationError(f"missing required field {key!r}", location=where)
        return spec.default
    value = mapping[key]
    if spec.kind is float and type(value) is int:  # too large an int reads as inf
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if isinstance(value, bool) or not isinstance(value, spec.kind):
        problem = f"must be {_KIND_NAMES[spec.kind]}, got {type(value).__name__}"
    elif spec.kind is float and not math.isfinite(value):
        problem = f"must be finite, got {value}"
    elif spec.choices and value not in spec.choices:
        problem = f"must be one of {', '.join(spec.choices)}, got {value!r}"
    elif spec.positive and value <= 0:
        problem = f"must be positive, got {value}"
    elif spec.kind in (int, float) and not spec.low <= value <= spec.high:
        problem = f"must lie in [{spec.low}, {spec.high}], got {value}"
    else:
        return value
    raise ValidationError(f"field {key!r} {problem}", location=where)


def _read(mapping, declaration: dict[str, Field], where: str) -> dict:
    """Every declared key's value, after rejecting a key the declaration lacks."""
    if not isinstance(mapping, dict):
        raise ValidationError(f"must be a mapping, got {type(mapping).__name__}", location=where)
    for key in mapping:
        if key not in declaration:
            raise ValidationError(
                f"unknown field {key!r} (expected one of {', '.join(declaration)})",
                location=where,
            )
    return {key: _field(mapping, key, spec, where) for key, spec in declaration.items()}


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
    name = _field(obj, "name", TOP["name"]._replace(default=name_hint), name_hint)
    # `run` names its output directory after it, under out/
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ValidationError(f"field 'name' must be one plain path component, got {name!r}",
                              location=name_hint)
    top = _read(obj, TOP, name)
    horizon = top["horizon"]
    for key, period in (("horizon", SWEEP_PERIOD), ("window", top["window"]),
                        ("poll_interval", top["poll_interval"])):
        if horizon / period > MAX_PERIODS:
            raise ValidationError(f"field {key!r} must leave at most {MAX_PERIODS} periods of "
                                  f"{period:g} s in the horizon, got {horizon / period:g}",
                                  location=name)

    chains = [_parse_pair(p, f"{name}.chains[{i}]") for i, p in enumerate(top["chains"])]
    if not chains:
        raise ValidationError("at least one chain required", location=f"{name}.chains")

    declared, actions = list(chains), []
    for i, entry in enumerate(top["actions"]):
        where = f"{name}.actions[{i}]"
        entry = _read(entry, ACTION, where)
        at, op, pair = entry["at"], entry["op"], None
        if actions and at < actions[-1].at:
            raise ValidationError("actions must be sorted by time", location=where)
        if not 0 <= at < top["horizon"]:
            raise ValidationError(f"action time {at} outside [0, horizon)", location=where)
        if op == "rebalance":
            if entry["pair"] is not None:
                raise ValidationError("field 'pair' is not allowed for op 'rebalance'",
                                      location=where)
        elif entry["pair"] is None:
            raise ValidationError(f"op {op!r} needs field 'pair'", location=where)
        else:
            pair = _parse_pair(entry["pair"], where)
        if op == "add":
            declared.append(pair)
        elif op == "remove" and pair not in declared:
            raise ValidationError(f"remove of undeclared pair {pair}", location=where)
        actions.append(Action(at=at, op=op, pair=pair))
    tags = [t for c in declared for t in (c.forward_tag, c.reverse_tag)]
    if len(set(tags)) != len(tags):
        raise ValidationError("a tag is used by more than one chain", location=f"{name}")

    hashing = _read(top["hash"], HASH, f"{name}.hash")
    if hashing["buckets"] < MIN_SLOTS_PER_CHAIN * len(declared):
        raise ValidationError(
            f"{hashing['buckets']} buckets is too small for {len(declared)} chains "
            f"(need at least {MIN_SLOTS_PER_CHAIN} per chain)",
            location=f"{name}.hash.buckets",
        )

    where = f"{name}.traffic"
    traffic = TrafficProfile(**_read(top["traffic"], TRAFFIC, where))
    try:
        traffic.validate()
    except ValueError as exc:
        raise ValidationError(str(exc), location=where)

    nf = _read(top["nf"], NF, f"{name}.nf")
    if nf["mode"] == "capacity" and nf["capacity"] <= 0:
        raise ValidationError("capacity mode needs nf.capacity > 0", location=f"{name}.nf.capacity")
    for key in ("capacity", "queue_limit"):
        if nf["mode"] != "capacity" and key in top["nf"]:  # a passthrough NF would ignore it
            raise ValidationError(f"field {key!r} needs mode 'capacity'", location=f"{name}.nf")

    if 2 * top["control_latency"] >= DEFAULT_BARRIER_TIMEOUT:
        # the prepare round trip would never beat the master's barrier timer
        raise ValidationError(
            f"field 'control_latency' must be below {DEFAULT_BARRIER_TIMEOUT / 2} s "
            f"(half the barrier timeout), got {top['control_latency']}",
            location=name,
        )

    return Scenario(
        name=name,
        hash_seed=hashing["seed"],
        bucket_count=hashing["buckets"],
        chains=tuple(chains),
        traffic=traffic,
        seed=top["seed"],
        session_timeout=top["session_timeout"],
        window_length=top["window"],
        actions=tuple(actions),
        nf_mode=nf["mode"],
        nf_capacity=nf["capacity"],
        nf_queue_limit=nf["queue_limit"],
        horizon=top["horizon"],
        link_latency=top["link_latency"],
        control_latency=top["control_latency"],
        poll_interval=top["poll_interval"],
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
