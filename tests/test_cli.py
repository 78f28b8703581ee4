import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainbalance
from chainbalance import cli
from chainbalance.errors import ValidationError
from chainbalance.hashing import ChainId
from chainbalance.scenario import Scenario, parse_scenario, scenario_from_mapping
from chainbalance.traffic import TrafficProfile

ROOT = Path(__file__).resolve().parent.parent

MINIMAL = """
name: mini
seed: 1
hash:
  seed: 7
  buckets: 256
chains:
  - [2, 3]
traffic:
  sessions: 40
  rate: 75.0
  bytes_per_session: 15000
  packet_size: 3000
horizon: 10.0
"""


def write(tmp_path, text, name="scn.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_minimal_scenario(tmp_path):
    scenario = parse_scenario(write(tmp_path, MINIMAL))
    assert scenario.name == "mini"
    assert scenario.chains == (ChainId(2, 3),)
    assert scenario.bucket_count == 256
    assert scenario.traffic.sessions == 40


def test_parse_action_with_undeclared_pair(tmp_path):
    text = MINIMAL + "actions:\n  - {at: 2.0, op: remove, pair: [8, 9]}\n"
    with pytest.raises(ValidationError) as err:
        parse_scenario(write(tmp_path, text))
    assert "undeclared" in str(err.value)


def test_parse_duplicate_forward_tag(tmp_path):
    text = MINIMAL.replace("  - [2, 3]", "  - [2, 3]\n  - [2, 9]")
    with pytest.raises(ValidationError) as err:
        parse_scenario(write(tmp_path, text))
    assert "tag" in str(err.value)


def test_parse_rejects_small_bucket_count(tmp_path):
    text = MINIMAL.replace("buckets: 256", "buckets: 32")
    with pytest.raises(ValidationError):
        parse_scenario(write(tmp_path, text))


def test_parse_rejects_unsorted_actions(tmp_path):
    text = MINIMAL + (
        "actions:\n"
        "  - {at: 5.0, op: add, pair: [4, 5]}\n"
        "  - {at: 2.0, op: rebalance}\n"
    )
    with pytest.raises(ValidationError):
        parse_scenario(write(tmp_path, text))


def test_parse_missing_field_names_it(tmp_path):
    text = MINIMAL.replace("  rate: 75.0\n", "")
    with pytest.raises(ValidationError) as err:
        parse_scenario(write(tmp_path, text))
    assert "rate" in str(err.value)


def test_parse_capacity_mode_requires_capacity(tmp_path):
    text = MINIMAL + "nf:\n  mode: capacity\n"
    with pytest.raises(ValidationError):
        parse_scenario(write(tmp_path, text))


def test_run_writes_outputs_and_exits_zero(tmp_path):
    scn = write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    code = cli.main(["run", str(scn), "--out", str(out)])
    assert code == 0
    assert (out / "series.csv").exists()
    assert (out / "events.jsonl").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["clean"] is True
    assert report["bytes"]["leftover"] == 0
    assert abs(sum(report["shares"].values()) - 1.0) < 1e-3


def test_run_same_seed_byte_identical(tmp_path):
    scn = write(tmp_path, MINIMAL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(scn), "--out", str(out1)]) == 0
    assert cli.main(["run", str(scn), "--out", str(out2)]) == 0
    for name in ("series.csv", "events.jsonl", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_seed_override_changes_output(tmp_path):
    scn = write(tmp_path, MINIMAL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["run", str(scn), "--out", str(out1)])
    cli.main(["run", str(scn), "--seed", "9", "--out", str(out2)])
    assert (out1 / "series.csv").read_bytes() != (out2 / "series.csv").read_bytes()


@pytest.mark.parametrize("at, horizon", [
    # fired, and acked after the horizon: the run recorded action_add and no
    # commit, and reported "clean"
    (4.999, 5.0),
    # delayed to the handshake's end (4 ms), past the horizon: never fired
    (0.001, 0.003),
])
def test_run_with_an_action_unfinished_at_the_horizon_exits_one(tmp_path, at, horizon):
    text = MINIMAL.replace("horizon: 10.0\n", f"horizon: {horizon}\nactions:\n"
                           f"  - {{at: {at}, op: add, pair: [4, 5]}}\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(write(tmp_path, text)), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["anomalies"] == [{"event": "anomaly", "session": -1,
                                    "reason": f"action add at t={at} got no ack by the horizon"}]
    fired = [e for e in map(json.loads, (out / "events.jsonl").read_text().splitlines())
             if e["event"].endswith("_add")]
    assert [e["event"] for e in fired] == (["action_add"] if at == 4.999 else [])


def test_run_invalid_file_exits_two(tmp_path):
    bad = write(tmp_path, MINIMAL.replace("buckets: 256", "buckets: 32"))
    assert cli.main(["run", str(bad)]) == 2


def test_run_missing_file_exits_two(tmp_path):
    assert cli.main(["run", str(tmp_path / "absent.yaml")]) == 2


def unusable_out(tmp_path, under):
    """An --out that cannot be a directory: an existing file, or a path
    under one."""
    taken = write(tmp_path, "", name="taken")
    return taken / "sub" if under else taken


def refuse_to_simulate(scenario):
    raise AssertionError("simulated before the output directory was made")


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_run_with_an_unusable_out_exits_two_before_simulating(tmp_path, capsys, monkeypatch,
                                                               under):
    scn = write(tmp_path, MINIMAL)
    out = unusable_out(tmp_path, under)
    monkeypatch.setattr(cli.netsim, "run", refuse_to_simulate)
    assert cli.main(["run", str(scn), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_replicate_with_an_unusable_out_exits_two_before_simulating(tmp_path, capsys,
                                                                     monkeypatch, under):
    out = unusable_out(tmp_path, under)
    monkeypatch.setattr(cli.netsim, "run", refuse_to_simulate)
    assert cli.main(["replicate", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


def unusable_out_file(tmp_path, monkeypatch, how):
    """An --out directory whose `series.csv` cannot be written: a directory
    of that name, a file that os.access reports as not writable, or no file
    in a directory that os.access reports as not writable."""
    out = tmp_path / "out"
    if how == "directory":
        (out / "series.csv").mkdir(parents=True)
    elif how == "read-only":
        out.mkdir()
        (out / "series.csv").write_text("")
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    else:
        out.mkdir()
        monkeypatch.setattr(cli.os, "access", lambda path, mode: path != out)
    return out


@pytest.mark.parametrize("how", ["directory", "read-only", "read-only-directory"])
def test_run_with_an_unusable_out_file_exits_two_before_simulating(tmp_path, capsys,
                                                                   monkeypatch, how):
    scn = write(tmp_path, MINIMAL)
    out = unusable_out_file(tmp_path, monkeypatch, how)
    monkeypatch.setattr(cli.netsim, "run", refuse_to_simulate)
    assert cli.main(["run", str(scn), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / "series.csv") in err


@pytest.mark.parametrize("file", ["seed-3/events.jsonl", "summary.json"])
def test_replicate_with_an_unusable_out_file_exits_two_before_simulating(tmp_path, capsys,
                                                                         monkeypatch, file):
    out = tmp_path / "out"
    taken = out / file.replace("seed-3", f"{cli.SCENARIO_ORDER[-1]}/seed-3")
    taken.mkdir(parents=True)
    monkeypatch.setattr(cli.netsim, "run", refuse_to_simulate)
    assert cli.main(["replicate", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err


def test_bundled_scenarios_all_parse():
    for name in cli.SCENARIO_ORDER:
        scenario = cli.bundled_scenario(name)
        assert scenario.name == name
        assert scenario.bucket_count == 1024
    # the benchmark's workloads too, so a stricter rule cannot reject one unnoticed
    workloads = sorted((ROOT / "bench" / "workloads").glob("*.yaml"))
    assert workloads
    for path in workloads:
        assert parse_scenario(path).name == path.stem


def test_csv_header_format(tmp_path):
    scn = write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    cli.main(["run", str(scn), "--out", str(out)])
    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0] == "time_s,chain_fwd_tag,bytes"
    fields = lines[1].split(",")
    assert len(fields) == 3 and fields[1] == "2"


@pytest.mark.parametrize(
    "field", ["window", "session_timeout", "poll_interval", "link_latency", "control_latency"]
)
@pytest.mark.parametrize("value", ["0", "-1.0"])
def test_run_rejects_non_positive_period(tmp_path, capsys, field, value):
    # window: 0 used to hang the run; a negative timeout made it unclean
    scn = write(tmp_path, MINIMAL + f"{field}: {value}\n")
    assert cli.main(["run", str(scn), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0.5", "0.75"])
def test_run_rejects_control_latency_at_barrier_timeout(tmp_path, capsys, value):
    # a prepare round trip of 2 x latency >= the barrier timeout always aborts
    scn = write(tmp_path, MINIMAL + f"control_latency: {value}\n")
    assert cli.main(["run", str(scn), "--out", str(tmp_path / "out")]) == 2
    assert "control_latency" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


UNKNOWN_KEYS = [  # (location, misspelt key, line of MINIMAL it follows, added YAML)
    ("mini", "windwo", "horizon: 10.0\n", "windwo: 0\n"),
    ("mini.hash", "bukets", "  buckets: 256\n", "  bukets: 512\n"),
    ("mini.traffic", "durration", "  rate: 75.0\n", "  durration: 2.0\n"),
    ("mini.traffic", "start_offset", "  rate: 75.0\n", "  start_offset: 1.0\n"),
    ("mini.nf", "capacty", "horizon: 10.0\n", "nf:\n  mode: passthrough\n  capacty: 5000\n"),
    ("mini.actions[0]", "pari", "horizon: 10.0\n",
     "actions:\n  - {at: 2.0, op: rebalance, pari: [2, 3]}\n"),
]


@pytest.mark.parametrize(
    "where, key, anchor, added", [pytest.param(*c, id=f"{c[0]}.{c[1]}") for c in UNKNOWN_KEYS]
)
def test_run_rejects_unknown_key(tmp_path, capsys, where, key, anchor, added):
    # a misspelt key used to run silently on the field's default
    scn = write(tmp_path, MINIMAL.replace(anchor, anchor + added))
    assert cli.main(["run", str(scn), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{where}: unknown field {key!r}" in err
    assert not (tmp_path / "out").exists()


MALFORMED_FIELDS = [  # (location, field, line of MINIMAL, its replacement)
    ("mini.traffic", "packet_size", "  packet_size: 3000\n", "  packet_size: abc\n"),
    ("mini.traffic", "request_bytes", "  rate: 75.0\n", "  rate: 75.0\n  request_bytes: 1.5\n"),
    ("mini.traffic", "collide_fraction", "  rate: 75.0\n", "  rate: 75.0\n  collide_fraction: x\n"),
    ("mini.hash", "seed", "  seed: 7\n", "  seed: -1\n"),
    ("mini.hash", "seed", "  seed: 7\n", f"  seed: {2**64}\n"),
    # a vector this long was allocated slot by slot, a list entry per bucket
    ("mini.hash", "buckets", "  buckets: 256\n", f"  buckets: {2**20 + 1}\n"),
    ("mini.hash", "buckets", "  buckets: 256\n", f"  buckets: {10**12}\n"),
    ("mini.nf", "queue_limit", "horizon: 10.0\n", "horizon: 10.0\nnf:\n  queue_limit: x\n"),
    ("mini.nf", "queue_limit", "horizon: 10.0\n", "horizon: 10.0\nnf:\n  queue_limit: -1\n"),
    ("mini.nf", "capacity", "horizon: 10.0\n", "horizon: 10.0\nnf:\n  capacity: x\n"),
    ("mini", "horizon", "horizon: 10.0\n", "horizon: x\n"),
    ("mini", "seed", "\nseed: 1\n", "\nseed: x\n"),
    ("mini", "seed", "\nseed: 1\n", "\nseed: true\n"),
    # non-finite numbers
    ("mini.traffic", "duration", "  rate: 75.0\n", "  rate: 75.0\n  duration: .nan\n"),
    ("mini.traffic", "duration_jitter", "  rate: 75.0\n",
     "  rate: 75.0\n  duration_jitter: .nan\n"),
    ("mini.traffic", "rate", "  rate: 75.0\n", "  rate: .nan\n"),
    ("mini.traffic", "rate", "  rate: 75.0\n", "  rate: .inf\n"),
    ("mini.nf", "capacity", "horizon: 10.0\n",
     "horizon: 10.0\nnf:\n  mode: capacity\n  capacity: .nan\n"),
    ("mini", "horizon", "horizon: 10.0\n", "horizon: .inf\n"),
    ("mini", "window", "horizon: 10.0\n", "horizon: 10.0\nwindow: .nan\n"),
    ("mini", "session_timeout", "horizon: 10.0\n", "horizon: 10.0\nsession_timeout: .inf\n"),
    ("mini.actions[0]", "at", "horizon: 10.0\n",
     "horizon: 10.0\nactions:\n  - op: rebalance\n    at: .nan\n"),
    # traffic ranges: each of these ran and reported "clean" on wrong traffic
    ("mini.traffic", "request_bytes", "  rate: 75.0\n", "  rate: 75.0\n  request_bytes: 0\n"),
    ("mini.traffic", "request_bytes", "  rate: 75.0\n",
     "  rate: 75.0\n  request_bytes: -100\n"),
    ("mini.traffic", "response_delay", "  rate: 75.0\n",
     "  rate: 75.0\n  response_delay: -0.5\n"),
    ("mini.traffic", "duration_jitter", "  rate: 75.0\n",
     "  rate: 75.0\n  duration: 6.0\n  duration_jitter: 7.0\n"),
    ("mini.traffic", "collide_fraction", "  rate: 75.0\n",
     "  rate: 75.0\n  collide_fraction: 2.0\n"),
    # untyped before: a TypeError traceback, or (name) an output directory
    # named after a list
    ("mini", "chains", "chains:\n  - [2, 3]\n", "chains: 5\n"),
    ("mini", "actions", "horizon: 10.0\n", "horizon: 10.0\nactions: 5\n"),
    ("mini", "actions", "horizon: 10.0\n", "horizon: 10.0\nactions: true\n"),
    ("scn", "name", "name: mini\n", "name: [a, b]\n"),
    # run writes to out/<name>-seed<seed>: a name with a separator wrote
    # outside out/, and a NUL exited 1 with a ValueError traceback
    ("scn", "name", "name: mini\n", "name: /some/dir/evil\n"),
    ("scn", "name", "name: mini\n", "name: ../escaped\n"),
    ("scn", "name", "name: mini\n", "name: 'a\\b'\n"),
    ("scn", "name", "name: mini\n", 'name: "a\\x00b"\n'),
    ("scn", "name", "name: mini\n", "name: ''\n"),
    ("scn", "name", "name: mini\n", "name: .\n"),
    ("scn", "name", "name: mini\n", "name: '..'\n"),
    # an int beyond the float range used to raise OverflowError
    ("mini.traffic", "rate", "  rate: 75.0\n", f"  rate: {10**400}\n"),
    # a rebalance ran and reported "clean" with its pair, even an undeclared
    # one, silently ignored
    ("mini.actions[0]", "pair", "horizon: 10.0\n",
     "horizon: 10.0\nactions:\n  - {at: 2.0, op: rebalance, pair: [40, 41]}\n"),
    ("mini.actions[0]", "pair", "horizon: 10.0\n",
     "horizon: 10.0\nactions:\n  - {at: 2.0, op: rebalance, pair: [2, 3]}\n"),
    # read only in capacity mode: a passthrough run ignored them and
    # reported "clean", with no drop even for a 1-packet queue
    ("mini.nf", "capacity", "horizon: 10.0\n", "horizon: 10.0\nnf:\n  capacity: 1000.0\n"),
    ("mini.nf", "queue_limit", "horizon: 10.0\n", "horizon: 10.0\nnf:\n  queue_limit: 1\n"),
    # one period past MAX_PERIODS: a 1e-9 s window parsed, and its run would
    # schedule 1e10 stats polls; the 1 s session sweep spans the horizon
    ("mini", "window", "horizon: 10.0\n", f"horizon: 10.0\nwindow: {10.0 / (2**16 + 1)!r}\n"),
    ("mini", "window", "horizon: 10.0\n", "horizon: 10.0\nwindow: 1.0e-9\n"),
    ("mini", "poll_interval", "horizon: 10.0\n",
     f"horizon: 10.0\npoll_interval: {10.0 / (2**16 + 1)!r}\n"),
    ("mini", "horizon", "horizon: 10.0\n", f"horizon: {2.0**16 + 1}\n"),
    # a plan just past MAX_PLAN_PACKETS (6 packets a session), and one that
    # parsed clean and would have been built until memory ran out
    ("mini.traffic", "sessions", "  sessions: 40\n", "  sessions: 349526\n"),
    ("mini.traffic", "sessions", "  sessions: 40\n  rate: 75.0\n  bytes_per_session: 15000\n",
     "  sessions: 1000000000\n  rate: 75.0\n  bytes_per_session: 1000000000000\n"),
]


@pytest.mark.parametrize(
    "where, key, line, replacement",
    [pytest.param(*c, id=f"{c[0]}.{c[1]}={c[3].split(': ')[-1].strip()[:20]}")
     for c in MALFORMED_FIELDS],
)
def test_run_rejects_malformed_optional_field(tmp_path, capsys, where, key, line, replacement):
    # these used to exit 1 with a traceback, or (queue_limit: -1) to drop
    # every packet as queue overflow; a NaN duration or capacity exited 1
    # after a session or two with no field named, rate: .nan exited 0 with
    # no sessions, and horizon: .inf never ended
    assert line in MINIMAL
    scn = write(tmp_path, MINIMAL.replace(line, replacement))
    assert cli.main(["run", str(scn), "--out", str(tmp_path / "out")]) == 2
    assert f"{where}: field {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parse_accepts_the_largest_bucket_count():
    # parsed only; a vector this long is never built here
    mapping = {
        "hash": {"seed": 7, "buckets": 2**20},
        "chains": [[2, 3]],
        "traffic": {"sessions": 40, "rate": 75.0, "bytes_per_session": 15000},
    }
    assert scenario_from_mapping(mapping, name_hint="wide").bucket_count == 2**20


AT_THE_BOUNDS = [  # top-level keys and traffic keys of scenarios that just fit
    ({"horizon": 2.0**16, "poll_interval": 1.0}, {}),
    ({"horizon": 10.0, "window": 10.0 / 2**16}, {}),
    ({"horizon": 10.0, "poll_interval": 10.0 / 2**16}, {}),
    # 2**21 planned packets: one request and 15 response packets a session
    ({}, {"sessions": 2**21 // 16, "bytes_per_session": 45_400}),
]


@pytest.mark.parametrize("top, traffic", AT_THE_BOUNDS)
def test_parse_accepts_a_scenario_at_each_bound(top, traffic):
    # parsed only; no such plan is built and no such run simulated here
    mapping = {
        "hash": {"seed": 7, "buckets": 256},
        "chains": [[2, 3]],
        "traffic": {"sessions": 40, "rate": 75.0, "bytes_per_session": 15000, **traffic},
        **top,
    }
    scenario = scenario_from_mapping(mapping, name_hint="edge")
    assert scenario.horizon == top.get("horizon", 60.0)
    assert scenario.traffic.sessions == traffic.get("sessions", 40)


def test_parse_required_keys_only_takes_declared_defaults():
    # every optional field falls back to the default its dataclass declares
    mapping = {
        "hash": {"seed": 7, "buckets": 256},
        "chains": [[2, 3]],
        "traffic": {"sessions": 40, "rate": 75.0, "bytes_per_session": 15000},
    }
    assert scenario_from_mapping(mapping, name_hint="bare") == Scenario(
        name="bare",
        seed=1,
        hash_seed=7,
        bucket_count=256,
        session_timeout=6.0,
        window_length=5.0,
        chains=(ChainId(2, 3),),
        traffic=TrafficProfile(
            sessions=40, rate=75.0, bytes_per_session=15000, packet_size=3000,
            request_bytes=400, duration=6.0, duration_jitter=0.5, response_delay=0.02,
            collide_fraction=0.0,
        ),
        actions=(),
        nf_mode="passthrough",
        nf_capacity=0.0,
        nf_queue_limit=0,
        horizon=60.0,
        link_latency=0.001,
        control_latency=0.001,
        poll_interval=0.25,
    )


def test_parse_accepts_control_latency_below_half_barrier_timeout(tmp_path):
    scn = parse_scenario(write(tmp_path, MINIMAL + "control_latency: 0.49\n"))
    assert scn.control_latency == 0.49


def run_module(*args, cwd=None):
    """`python -m chainbalance ARGS` in a fresh interpreter on this checkout."""
    src = str(Path(chainbalance.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "chainbalance", *args],
        capture_output=True, text=True, timeout=60, env=env, cwd=cwd,
    )


def test_module_entry_point_runs_cli():
    proc = run_module("--help")
    assert proc.returncode == 0
    assert "replicate" in proc.stdout


@pytest.mark.parametrize("args", [
    ("run", "SCN", "--horizon", "inf"),
    ("run", "SCN", "--band", "0.2"),
    ("replicate", "--band", "0.2"),
], ids=lambda args: " ".join(args).replace("SCN ", ""))
def test_run_parameters_come_only_from_the_file(tmp_path, args):
    # the horizon and the band have no flag: --horizon inf never ended, and
    # --horizon nan, --horizon -5 and --band -1 ran to exit 0
    scn = write(tmp_path, MINIMAL)
    args = [str(scn) if a == "SCN" else a for a in args]
    proc = run_module(*args, "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 2
    assert f"unrecognized arguments: {args[-2]}" in proc.stderr
    assert not (tmp_path / "out").exists()


# -- the replicate roll-up against the acceptance thresholds


def synthetic(shares, transitions=()):
    """A per-seed report holding only the fields `_aggregate` reads."""
    return {"seed": 1, "clean": True, "shares": shares, "steady_shares": shares,
            "transitions": list(transitions)}


def shares_of(n, first=None):
    """n chains at 1/n each, the first one at `first` when given."""
    shares = {str(2 * i + 2): 1.0 / n for i in range(n)}
    if first is not None:
        shares["2"] = first
    return shares


def removal(**fields):
    return {"kind": "remove", "drained_after_s": 1.0, "reclaim_within_timeout": True, **fields}


@pytest.mark.parametrize("limit", [cli.CRITERIA["share_deviation"], 1 / 64])
def test_aggregate_share_limit_is_inclusive(monkeypatch, limit):
    monkeypatch.setitem(cli.CRITERIA, "share_deviation", limit)
    # both differences from 1/32 are exact in binary: `at` deviates by the
    # limit itself, `past` by one ulp more
    at, past = 1 / 32 - limit, 1 / 32 - math.nextafter(limit, 1.0)
    assert abs(at - 1 / 32) == limit < abs(past - 1 / 32)
    for share, expected in ((at, True), (past, False)):
        static = cli._aggregate("static-32", [synthetic(shares_of(32, share))])
        assert static["balance_ok"] is expected
        drained = [synthetic(shares_of(32), [removal(survivor_shares=shares_of(32, share))])]
        assert cli._aggregate("cooldown-x", drained)["survivors_even_ok"] is expected


@pytest.mark.parametrize("name, field, flag, key", [
    ("warmup-1to2", "converged_after_s", "convergence_ok", "convergence_s"),
    ("cooldown-2to1", "drained_after_s", "drain_ok", "drain_s"),
])
@pytest.mark.parametrize("limit", [None, 3.0])
def test_aggregate_time_limits_are_inclusive(monkeypatch, name, field, flag, key, limit):
    if limit is not None:
        monkeypatch.setitem(cli.CRITERIA, key, limit)
    limit = cli.CRITERIA[key]
    for seconds, expected in ((limit, True), (math.nextafter(limit, math.inf), False)):
        transition = removal(**{field: seconds}) if key == "drain_s" else {field: seconds}
        summary = cli._aggregate(name, [synthetic(shares_of(2), [transition])])
        assert summary[flag] is expected
    missing = removal(**{field: None})
    assert cli._aggregate(name, [synthetic(shares_of(2), [missing])])[flag] is False
