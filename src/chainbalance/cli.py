"""Command-line front end: run scenario files, reports, and the bundled suite.

Exit codes: 0 when the run finished with zero invariant violations, 1
otherwise, 2 for unusable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import resources
from pathlib import Path

from . import netsim
from .control import alloc_from_wire
from .errors import NeverConverged, ScenarioError
from .netsim import RunResult, measure_convergence, measure_drain
from .scenario import Scenario, parse_scenario

REPLICATE_SEEDS = (1, 2, 3, 4, 5)
# acceptance thresholds, shared by `_aggregate` and the acceptance tests
CRITERIA = {
    "share_deviation": 0.02,  # |mean share - 1/N|: static balance, drain survivors
    "convergence_s": 7.0,  # warm-up: every live chain inside the band
    "drain_s": 7.0,  # cool-down: the removed chain carries no more bytes
    "wall_s": 30.0,  # one desk-scale run, wall clock
    "band": 0.10,  # converged: every live share within this fraction of 1/N
}
# one encoder for every events.jsonl line: json.dumps with separators
# builds a new one per call
EVENT_ENCODER = json.JSONEncoder(separators=(",", ":"))
STEADY_INTERVAL = (5.0, 14.0)  # covers the bulk of a static desk-scale run
SCENARIO_ORDER = (
    "static-1",
    "static-2",
    "static-3",
    "warmup-1to2",
    "warmup-2to3",
    "cooldown-2to1",
    "cooldown-3to2",
    "combined-add-add",
    "combined-remove-remove",
)


def bundled_scenario(name: str) -> Scenario:
    """Load one scenario from the corpus shipped inside the package."""
    ref = resources.files("chainbalance") / "scenarios" / f"{name}.yaml"
    with resources.as_file(ref) as path:
        return parse_scenario(path)


def build_report(result: RunResult, band: float = CRITERIA["band"]) -> dict:
    """Aggregate one run into the JSON report structure."""
    series = result.series
    totals = {c: series.total_for(c) for c in series.chains}
    grand = sum(totals.values())
    shares = {
        str(c.forward_tag): (totals[c] / grand if grand else 0.0) for c in series.chains
    }
    steady = {
        str(c.forward_tag): (
            series.total_for(c, *STEADY_INTERVAL)
            / max(1, sum(series.total_for(x, *STEADY_INTERVAL) for x in series.chains))
        )
        for c in series.chains
    }

    rho = result.scenario.session_timeout
    transitions = []
    for commit in result.commits:
        live = [c for c, _ in alloc_from_wire(commit["alloc"])]
        entry = {
            "generation": commit["generation"],
            "committed_at": commit["t"],
            "kind": "remove" if commit["drain"] is not None else "add_or_rebalance",
        }
        if commit["drain"] is not None:
            victim = next(
                c for c in series.chains if c.forward_tag == commit["drain"]
            )
            try:
                entry["drained_after_s"] = measure_drain(series, victim, commit["t"])
            except NeverConverged as exc:
                entry["drained_after_s"] = None
                entry["drain_error"] = str(exc)
            reclaim_t = result.reclaims.get(victim)
            last_packet = result.last_packet_on.get(victim)
            entry["reclaimed_at"] = reclaim_t
            entry["last_packet_at"] = last_packet
            if reclaim_t is not None and last_packet is not None:
                lag = reclaim_t - (last_packet + rho)
                entry["reclaim_lag_s"] = round(lag, 6)
                entry["reclaim_within_timeout"] = (
                    -0.01 <= lag <= result.scenario.poll_interval + 0.01
                )
            entry["survivors"] = [c.forward_tag for c in live]
            if entry["drained_after_s"] is not None:
                start = commit["t"] + entry["drained_after_s"]
                window = {c: series.total_for(c, start, start + 10.0) for c in live}
                total = sum(window.values())
                entry["survivor_shares"] = {
                    str(c.forward_tag): (window[c] / total if total else 0.0)
                    for c in live
                }
        else:
            try:
                entry["converged_after_s"] = measure_convergence(
                    series, live, commit["t"], band
                )
            except NeverConverged as exc:
                entry["converged_after_s"] = None
                entry["convergence_error"] = str(exc)
        transitions.append(entry)

    return {
        "scenario": result.scenario.name,
        "seed": result.scenario.seed,
        "band": band,
        "sessions": len(result.session_starts),
        "bytes": {
            "injected": result.injected_bytes,
            "delivered": result.delivered_bytes,
            "dropped": result.dropped_bytes,
            "leftover": result.leftover_bytes,
        },
        "shares": shares,
        "steady_shares": steady,
        "transitions": transitions,
        "anomaly_count": len(result.anomalies),
        "anomalies": result.anomalies[:20],
        "divergences": result.divergences,
        "reconciled_sessions": result.reconciled_sessions,
        "vectors_equal": result.vectors_equal,
        "clean": result.clean,
        "outputs": {"series": "series.csv", "events": "events.jsonl"},
    }


# the files `write_outputs` writes into a run's output directory
OUTPUT_FILES = ("series.csv", "events.jsonl", "report.json")


def write_outputs(result: RunResult, out_dir: Path, band: float = CRITERIA["band"]) -> dict:
    """Write series.csv, events.jsonl and report.json; returns the report."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "series.csv", "w", newline="\n") as fh:
        for row in result.series.csv_rows():
            fh.write(row + "\n")
    with open(out_dir / "events.jsonl", "w", newline="\n") as fh:
        encode = EVENT_ENCODER.encode
        for event in result.events:
            fh.write(encode(event) + "\n")
    report = build_report(result, band)
    with open(out_dir / "report.json", "w", newline="\n") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def _print_report(report: dict, elapsed: float):
    shares = ", ".join(f"{tag}: {value:.3f}" for tag, value in report["shares"].items())
    print(f"{report['scenario']} seed={report['seed']}: shares {{{shares}}}")
    for tr in report["transitions"]:
        if tr["kind"] == "remove":
            print(
                f"  gen {tr['generation']} remove: drained in {tr.get('drained_after_s')}s, "
                f"reclaimed at {tr.get('reclaimed_at')}"
            )
        else:
            print(f"  gen {tr['generation']}: converged in {tr.get('converged_after_s')}s")
    status = "clean" if report["clean"] else f"{report['anomaly_count']} anomalies"
    print(
        f"  {report['sessions']} sessions, {report['bytes']['injected']} bytes, "
        f"{status}, {elapsed:.1f}s wall time"
    )


def _make_out_dirs(paths) -> bool:
    """Create each output directory before anything is simulated; False,
    with the error printed, when one cannot be created."""
    for path in paths:
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create output directory {path}: {exc.strerror}",
                  file=sys.stderr)
            return False
    return True


def _usable_out_files(paths) -> bool:
    """Check each output file path before anything is simulated: one that
    exists must be a file that can be written, and one that does not must
    be in a directory where a file can be made. False, with the error
    printed, for the first that is not."""
    for path in paths:
        if path.is_dir():
            problem = "it is a directory"
        elif path.exists():
            if os.access(path, os.W_OK):
                continue
            problem = "it is not writable"
        elif not os.access(path.parent, os.W_OK | os.X_OK):
            problem = "its directory is not writable"
        else:
            continue
        print(f"error: cannot write output file {path}: {problem}", file=sys.stderr)
        return False
    return True


def cmd_run(args) -> int:
    try:
        scenario = parse_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        scenario = scenario.with_seed(args.seed)
    out_dir = Path(args.out) if args.out else Path("out") / f"{scenario.name}-seed{scenario.seed}"
    if not (_make_out_dirs([out_dir])
            and _usable_out_files([out_dir / name for name in OUTPUT_FILES])):
        return 2
    started = time.monotonic()
    result = netsim.run(scenario)
    report = write_outputs(result, out_dir)
    _print_report(report, time.monotonic() - started)
    print(f"  outputs in {out_dir}")
    return 0 if report["clean"] else 1


def _aggregate(name: str, reports: list[dict]) -> dict:
    """Per-scenario roll-up across seeds, checked against the shipped thresholds."""
    n_chains = len(reports[0]["shares"])
    mean_steady = {
        tag: sum(r["steady_shares"][tag] for r in reports) / len(reports)
        for tag in reports[0]["steady_shares"]
    }
    summary = {
        "scenario": name,
        "seeds": [r["seed"] for r in reports],
        "all_clean": all(r["clean"] for r in reports),
        "mean_steady_shares": mean_steady,
    }
    if name.startswith("static"):
        target = 1.0 / n_chains
        summary["balance_ok"] = all(
            abs(share - target) <= CRITERIA["share_deviation"] for share in mean_steady.values()
        )
    if name.startswith("warmup") or name.startswith("combined-add"):
        convs = [
            tr.get("converged_after_s")
            for r in reports
            for tr in r["transitions"]
        ]
        summary["convergence_s"] = convs
        summary["convergence_ok"] = all(
            c is not None and c <= CRITERIA["convergence_s"] for c in convs
        )
    if name.startswith("cooldown") or name.startswith("combined-remove"):
        drains = [
            tr.get("drained_after_s")
            for r in reports
            for tr in r["transitions"]
            if tr["kind"] == "remove"
        ]
        summary["drain_s"] = drains
        summary["drain_ok"] = all(d is not None and d <= CRITERIA["drain_s"] for d in drains)
        summary["reclaim_ok"] = all(
            tr.get("reclaim_within_timeout", False)
            for r in reports
            for tr in r["transitions"]
            if tr["kind"] == "remove"
        )
        # mean survivor shares per removal event, across seeds
        survivor_even = True
        per_event = {}
        for r in reports:
            for idx, tr in enumerate(r["transitions"]):
                if tr["kind"] == "remove" and "survivor_shares" in tr:
                    per_event.setdefault(idx, []).append(tr["survivor_shares"])
        for shares_list in per_event.values():
            tags = shares_list[0].keys()
            for tag in tags:
                mean = sum(s[tag] for s in shares_list) / len(shares_list)
                if abs(mean - 1.0 / len(tags)) > CRITERIA["share_deviation"]:
                    survivor_even = False
        summary["survivors_even_ok"] = survivor_even
    return summary


def cmd_replicate(args) -> int:
    out_root = Path(args.out) if args.out else Path("out") / "replicate"
    out_dirs = [out_root / name / f"seed-{seed}"
                for name in SCENARIO_ORDER for seed in REPLICATE_SEEDS]
    files = [out_dir / name for out_dir in out_dirs for name in OUTPUT_FILES]
    if not (_make_out_dirs(out_dirs) and _usable_out_files([*files, out_root / "summary.json"])):
        return 2
    summaries = []
    worst = 0
    for name in SCENARIO_ORDER:
        scenario = bundled_scenario(name)
        reports = []
        for seed in REPLICATE_SEEDS:
            started = time.monotonic()
            result = netsim.run(scenario.with_seed(seed))
            elapsed = time.monotonic() - started
            report = write_outputs(result, out_root / name / f"seed-{seed}")
            reports.append(report)
            _print_report(report, elapsed)
            if not report["clean"]:
                worst = 1
        summaries.append(_aggregate(name, reports))
    with open(out_root / "summary.json", "w", newline="\n") as fh:
        json.dump(summaries, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {out_root / 'summary.json'}")
    for summary in summaries:
        checks = {k: v for k, v in summary.items() if k.endswith("_ok") or k == "all_clean"}
        print(f"  {summary['scenario']}: {checks}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chainbalance",
        description="Simulate connection-affine scaling of NF chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario file")
    run_p.add_argument("scenario", help="path to a scenario YAML file")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.set_defaults(fn=cmd_run)

    rep_p = sub.add_parser("replicate", help="run the bundled scenario corpus, 5 seeds each")
    rep_p.add_argument("--out", default=None, help="output directory")
    rep_p.set_defaults(fn=cmd_replicate)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
