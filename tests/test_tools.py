"""Smoke tests for the scripts under tools/: each must still run against src/."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_microbench_runs_and_reports_every_figure():
    # one timed repetition (about a second); the figures themselves are noise
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "microbench.py"), "--repeat", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    figures = json.loads(done.stdout)
    assert set(figures) == {
        "python", "map_packet_hit_us", "map_packet_miss_us", "build_buckets_ms",
        "build_buckets_again_ms", "codec_round_trip_us",
    }
    for name in ("build_buckets_ms", "build_buckets_again_ms"):
        assert set(figures[name]) == {"1024", "65536"}
    assert set(figures["codec_round_trip_us"]) == {"allocation_commit_prepare", "stats_ack"}
    assert figures["map_packet_hit_us"] > 0 and figures["map_packet_miss_us"] > 0
