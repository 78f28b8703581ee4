"""sha256 of every run output, so that two checkouts compare with one diff.

    python3 tools/digests.py [--src DIR] [scenario ...]

Runs each bundled scenario at seeds 1-5 (the ``chainbalance replicate``
seeds) and each ``bench/workloads/*.yaml`` at seeds 1-3 as ``chainbalance
run`` does, and prints one line per output file:

    <scenario> <seed> <file> <sha256>

for ``series.csv``, ``events.jsonl`` and ``report.json``. Scenario names
(bundled or workload) restrict the run to those. ``--src`` imports
chainbalance from another checkout's ``src`` directory and takes the
workloads from that checkout's ``bench/workloads``. Outputs go to a temporary
directory, so the checkout is only read. The byte-identity check between two
checkouts A and B is then

    diff <(python3 tools/digests.py --src A/src) <(python3 tools/digests.py --src B/src)
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_FILES = ("series.csv", "events.jsonl", "report.json")
WORKLOAD_SEEDS = (1, 2, 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding chainbalance")
    parser.add_argument("scenarios", nargs="*", help="scenario names to run (default: all)")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from chainbalance import cli, netsim
    from chainbalance.scenario import parse_scenario

    # (name, load, seeds) in print order: bundled scenarios, then workloads
    runs = [(name, lambda n=name: cli.bundled_scenario(n), cli.REPLICATE_SEEDS)
            for name in cli.SCENARIO_ORDER]
    runs += [(path.stem, lambda p=path: parse_scenario(p), WORKLOAD_SEEDS)
             for path in sorted((src.parent / "bench" / "workloads").glob("*.yaml"))]
    unknown = set(args.scenarios) - {name for name, _, _ in runs}
    if unknown:
        print(f"error: unknown scenario {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for name, load, seeds in runs:
            if args.scenarios and name not in args.scenarios:
                continue
            scenario = load()
            for seed in seeds:
                out = Path(tmp) / name / str(seed)
                cli.write_outputs(netsim.run(scenario.with_seed(seed)), out)
                for file in OUTPUT_FILES:
                    digest = hashlib.sha256((out / file).read_bytes()).hexdigest()
                    print(f"{name} {seed} {file} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
