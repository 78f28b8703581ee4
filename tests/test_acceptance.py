"""Acceptance suite: every shipped behavior gate, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. The simulation-backed criteria share a run cache, so the
whole suite costs about two dozen desk-scale runs (a few minutes).
"""

import hashlib
import math
import random
import time
from pathlib import Path

import pytest

from chainbalance import netsim
from chainbalance.cli import CRITERIA, bundled_scenario, build_report, write_outputs
from chainbalance.control import (
    ClusterConfig,
    ManagementSystem,
    MasterAgent,
    SlaveAgent,
    Transport,
)
from chainbalance.engine import EventLoop
from chainbalance.hashing import ChainId, Endpoint, canonical_key
from chainbalance.netsim import measure_convergence
from chainbalance.rebalance import (
    TrafficWindow,
    WeightProfile,
    add_chain,
    allocate_buckets,
    redistribute,
    remove_chain,
)
from chainbalance.scenario import parse_scenario

SEEDS = (1, 2, 3, 4, 5)
RUN_CACHE = {}


def get_run(name, seed):
    key = (name, seed)
    if key not in RUN_CACHE:
        started = time.monotonic()
        result = netsim.run(bundled_scenario(name).with_seed(seed))
        RUN_CACHE[key] = (result, time.monotonic() - started)
    return RUN_CACHE[key]


def verdict(number, label, ok, detail):
    print(f"\nCRITERION {number} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def commit_chains(commit):
    return [ChainId(f, r) for f, r, _ in commit["alloc"]]


def test_criterion_1_static_balance():
    # 3-chain desk-scale scenario: mean byte share per chain over the steady
    # interval within 33.3% +- 2pp across the 5 seeds; every run < 30 s.
    per_chain = {}
    slowest = 0.0
    for seed in SEEDS:
        result, elapsed = get_run("static-3", seed)
        slowest = max(slowest, elapsed)
        assert result.clean, f"static-3 seed {seed} not clean"
        report = build_report(result, band=CRITERIA["band"])
        for tag, share in report["steady_shares"].items():
            per_chain.setdefault(tag, []).append(share)
    means = {tag: sum(v) / len(v) for tag, v in per_chain.items()}
    max_dev = max(abs(m - 1 / 3) for m in means.values())
    limit, wall = CRITERIA["share_deviation"], CRITERIA["wall_s"]
    ok = max_dev <= limit and slowest < wall
    verdict(
        1, "static balance",
        ok,
        f"mean shares {({t: round(m, 4) for t, m in means.items()})}, "
        f"max deviation {max_dev:.4f} (limit {limit}), "
        f"slowest run {slowest:.1f}s (limit {wall:g}s)",
    )


def test_criterion_2_warmup_convergence():
    # after AddChain every live chain's per-second share stays within
    # +-10% of 1/N within 7 simulated seconds, for every seed
    worst = 0.0
    details = []
    for name in ("warmup-1to2", "warmup-2to3"):
        for seed in SEEDS:
            result, _ = get_run(name, seed)
            assert result.clean, f"{name} seed {seed} not clean"
            commit = result.commits[0]
            seconds = measure_convergence(
                result.series, commit_chains(commit), commit["t"], band=CRITERIA["band"]
            )
            worst = max(worst, seconds)
            details.append(f"{name}/s{seed}={seconds:.2f}")
    limit = CRITERIA["convergence_s"]
    ok = worst <= limit
    verdict(
        2, "warm-up convergence", ok,
        f"worst {worst:.2f}s (limit {limit:g}s); {', '.join(details)}",
    )


def test_criterion_3_new_session_split():
    # right after an AddChain commit, new sessions hit the new chain at
    # 1/(N+1), pooled over the 5 seeds, within +-0.05
    lines = []
    ok = True
    for name, n_before in (("warmup-1to2", 1), ("warmup-2to3", 2)):
        hits = total = 0
        for seed in SEEDS:
            result, _ = get_run(name, seed)
            commit = result.commits[0]
            new_chain = ChainId(commit["alloc"][-1][0], commit["alloc"][-1][1])
            window = [
                s for s in result.session_starts if commit["t"] < s[0] <= commit["t"] + 2.0
            ]
            hits += sum(1 for s in window if s[2] == new_chain)
            total += len(window)
        fraction = hits / total
        target = 1 / (n_before + 1)
        ok = ok and abs(fraction - target) <= 0.05
        lines.append(f"N={n_before}: {fraction:.4f} vs {target:.4f} (n={total})")
    verdict(3, "immediate new-session split", ok, "; ".join(lines))


def test_criterion_4_cooldown_drain():
    # removed chain's per-second bytes hit zero within 7 s; survivors split
    # evenly (+-2pp on the cross-seed mean); path_active flips false within
    # the session timeout of the last packet on the chain
    worst_drain = 0.0
    reclaim_ok = True
    survivor_means = {}
    for name in ("cooldown-2to1", "cooldown-3to2"):
        acc = {}
        for seed in SEEDS:
            result, _ = get_run(name, seed)
            assert result.clean, f"{name} seed {seed} not clean"
            report = build_report(result, band=CRITERIA["band"])
            tr = report["transitions"][0]
            worst_drain = max(worst_drain, tr["drained_after_s"])
            reclaim_ok = reclaim_ok and tr["reclaim_within_timeout"]
            for tag, share in tr.get("survivor_shares", {}).items():
                acc.setdefault(tag, []).append(share)
        survivor_means[name] = {tag: sum(v) / len(v) for tag, v in acc.items()}
    even_dev = max(
        abs(mean - 1 / len(means))
        for means in survivor_means.values()
        for mean in means.values()
    )
    drain_limit, share_limit = CRITERIA["drain_s"], CRITERIA["share_deviation"]
    ok = worst_drain <= drain_limit and even_dev <= share_limit and reclaim_ok
    verdict(
        4, "cool-down drain",
        ok,
        f"worst drain {worst_drain:.2f}s (limit {drain_limit:g}s), survivor deviation "
        f"{even_dev:.4f} (limit {share_limit}), reclaim within timeout: {reclaim_ok}",
    )


def brute_redistribute(probs, counts):
    floored = [max(t, 1.0) for t in counts]
    norm = math.fsum(p / t for p, t in zip(probs, floored))
    return [p / (t * norm) for p, t in zip(probs, floored)]


def brute_add(probs, counts):
    n = len(probs)
    base = brute_redistribute(probs, counts)
    return [x * n / (n + 1) for x in base] + [1.0 / (n + 1)]


def brute_remove(probs, counts, victim_idx):
    floored = [max(t, 1.0) for t in counts]
    norm = math.fsum(
        p / t for i, (p, t) in enumerate(zip(probs, floored)) if i != victim_idx
    )
    return [
        0.0 if i == victim_idx else p / (t * norm)
        for i, (p, t) in enumerate(zip(probs, floored))
    ]


def test_criterion_5_rebalance_algebra_oracle():
    rng = random.Random(20240501)
    max_err = 0.0
    max_sum_err = 0.0
    for trial in range(1000):
        n = rng.randrange(2, 9)
        chains = [ChainId(2 * i + 2, 2 * i + 3) for i in range(n + 1)]
        raw = [rng.random() + 1e-6 for _ in range(n)]
        total = sum(raw)
        probs = [x / total for x in raw]
        counts = [float(rng.randrange(0, 50_000)) for _ in range(n)]
        profile = WeightProfile(dict(zip(chains[:n], probs)))
        window = TrafficWindow(5.0, dict(zip(chains[:n], counts)))

        got = redistribute(profile, window)
        want = brute_redistribute(probs, counts)
        for chain, expect in zip(chains[:n], want):
            max_err = max(max_err, abs(got.probs[chain] - expect))
        max_sum_err = max(max_sum_err, abs(math.fsum(got.probs.values()) - 1.0))

        got = add_chain(profile, window, chains[n])
        want = brute_add(probs, counts)
        for chain, expect in zip(chains[: n + 1], want):
            max_err = max(max_err, abs(got.probs[chain] - expect))
        assert got.probs[chains[n]] == 1.0 / (n + 1), "new entry must be exactly 1/(N+1)"
        max_sum_err = max(max_sum_err, abs(math.fsum(got.probs.values()) - 1.0))

        victim = rng.randrange(n)
        got = remove_chain(profile, window, chains[victim])
        want = brute_remove(probs, counts, victim)
        for chain, expect in zip(chains[:n], want):
            max_err = max(max_err, abs(got.probs[chain] - expect))
        max_sum_err = max(max_sum_err, abs(math.fsum(got.probs.values()) - 1.0))

        # equal traffic leaves the profile untouched
        even = TrafficWindow(5.0, {c: 1234.0 for c in chains[:n]})
        fixed = redistribute(profile, even)
        for chain in chains[:n]:
            max_err = max(max_err, abs(fixed.probs[chain] - profile.probs[chain]))

    ok = max_err <= 1e-12 and max_sum_err <= 1e-12
    verdict(
        5, "rebalance algebra oracle",
        ok,
        f"1000 instances; max per-entry error {max_err:.2e} (limit 1e-12), "
        f"max sum error {max_sum_err:.2e}",
    )


class _AffinityHarness:
    """Drives a master/slave pair directly with an interleaved op schedule."""

    SERVER = Endpoint.parse("10.99.0.1", 80)

    def __init__(self):
        self.loop = EventLoop()
        self.transport = Transport(self.loop, 0.0)
        self.slave = SlaveAgent("slave", self.transport)
        self.master = MasterAgent("master", self.transport)
        self.ms = ManagementSystem("ms", self.transport, "master", "slave")
        self.call(
            self.ms.handshake,
            ClusterConfig(
                hash_seed=5,
                bucket_count=1024,
                session_timeout=6.0,
                chains=(ChainId(2, 3), ChainId(4, 5)),
            ),
        )

    def call(self, method, *args, **kwargs):
        """Run one management-system operation to completion; it must succeed."""
        replies = []
        method(*args, on_done=replies.append, **kwargs)
        self.loop.run()
        assert [r.payload["ok"] for r in replies] == [True], replies

    def endpoints(self, i):
        client = Endpoint(bytes([10, 1, (i >> 8) & 0xFF, i & 0xFF]), 1024 + (i % 60000))
        return client, self.SERVER

    def map_forward(self, i, t):
        client, server = self.endpoints(i)
        return self.master.balancer.map_packet(canonical_key(client, server), 1000, t)

    def map_reverse(self, i, t):
        client, server = self.endpoints(i)
        return self.slave.balancer.map_packet(canonical_key(server, client), 1000, t)

    def key(self, i):
        return canonical_key(*self.endpoints(i))


def test_criterion_6_affinity_property_suite():
    # 10k bidirectional sessions with add/remove/rebalance interleaved every
    # ten seconds; 1% of sessions deliver their reverse packet first and hold
    # the forward one back until after the next management op, which is the
    # race the reconcile path exists for
    n_sessions = 10_000
    ops = [
        ("add", ChainId(6, 7)), ("rebalance", None), ("remove", ChainId(6, 7)),
        ("add", ChainId(8, 9)), ("rebalance", None), ("remove", ChainId(8, 9)),
        ("add", ChainId(10, 11)), ("rebalance", None), ("remove", ChainId(10, 11)),
    ]
    h = _AffinityHarness()
    chains_seen = {}
    # ten per block of 1000, all within the session timeout of the next op
    reversed_offsets = set(range(510, 1000, 50))
    reversed_ids = {b * 1000 + r for b in range(10) for r in reversed_offsets}
    stash = []  # reversed sessions waiting for their forward packet
    straddled = {}
    op_idx = 0

    def note(i, chain):
        chains_seen.setdefault(i, set()).add(chain)

    def flush_stash(now):
        for j, s_chain in stash:
            m_chain = h.map_forward(j, now)
            straddled[j] = (m_chain, s_chain, now)
        stash.clear()

    for i in range(n_sessions):
        t = i * 0.01
        if i > 0 and i % 1000 == 0 and op_idx < len(ops):
            op, pair = ops[op_idx]
            op_idx += 1
            if op == "add":
                h.call(h.ms.add_chain, pair, now=t)
            elif op == "remove":
                h.call(h.ms.remove_chain, pair, now=t)
            else:
                h.call(h.ms.request_rebalance, now=t)
            flush_stash(t + 0.001)
        if i in reversed_ids:
            stash.append((i, h.map_reverse(i, t)))
            continue
        m_chain = h.map_forward(i, t)
        s_chain = h.map_reverse(i, t + 0.001)
        note(i, m_chain)
        note(i, s_chain)
        # two more exchanges inside the timeout window
        for dt in (2.0, 4.0):
            note(i, h.map_forward(i, t + dt))
            note(i, h.map_reverse(i, t + dt + 0.001))
    flush_stash(n_sessions * 0.01)

    multi = [i for i, seen in chains_seen.items() if len(seen) != 1]
    forward_first_ok = not multi

    # the master adopts the chain observed on returning packets, after which
    # both directions of every straddled session use one chain again
    diverged = {i for i, (m, s, _) in straddled.items() if m != s}
    restored = 0
    for i, (m, s, t) in sorted(straddled.items()):
        h.master.balancer.reconcile(h.key(i), s, now=t + 0.001)
        after_m = h.map_forward(i, t + 0.5)
        after_s = h.map_reverse(i, t + 0.501)
        if after_m == after_s == s:
            restored += 1
    reversed_ok = restored == len(straddled) == len(reversed_ids)

    ok = forward_first_ok and reversed_ok
    verdict(
        6, "affinity property suite",
        ok,
        f"{n_sessions - len(reversed_ids)} forward-first sessions all single-chain "
        f"and in agreement: {forward_first_ok}; {len(straddled)} reversed-arrival "
        f"sessions ({len(diverged)} diverged across an op), agreement restored "
        f"for all: {reversed_ok}",
    )


def test_criterion_7_determinism(tmp_path):
    cached, _ = get_run("static-3", 1)
    fresh = netsim.run(bundled_scenario("static-3").with_seed(1))
    a, b = tmp_path / "a", tmp_path / "b"
    write_outputs(cached, a, band=CRITERIA["band"])
    write_outputs(fresh, b, band=CRITERIA["band"])
    identical = all(
        (a / name).read_bytes() == (b / name).read_bytes()
        for name in ("series.csv", "events.jsonl", "report.json")
    )
    vectors_ok = all(result.vectors_equal for result, _ in RUN_CACHE.values())
    commit_flags = [
        event["vectors_equal"]
        for result, _ in RUN_CACHE.values()
        for event in result.events
        if event["event"].startswith("committed_")
    ]
    ok = identical and vectors_ok and all(commit_flags)
    verdict(
        7, "determinism",
        ok,
        f"byte-identical outputs: {identical}; vectors equal after all "
        f"{len(commit_flags)} commits across {len(RUN_CACHE)} cached runs: "
        f"{vectors_ok and all(commit_flags)}",
    )


# sha256 of the three outputs of two bundled runs. A refactor must leave them
# as they are; a change that moves any byte is a behaviour change and
# re-pins them.
PINNED_DIGESTS = {
    ("warmup-1to2", 1): {
        "series.csv": "b994ccd5e60590f7251a546d4f95877ac84843f7df1133f09deb47ea8a83a55b",
        "events.jsonl": "1577a306dac11139b00346cf3a694f5ce3dbf07e7f3f550f9655ce2de75b767d",
        "report.json": "a09e27a1ddee3048535b93d684f5af5ab7af1769e699baf2360223b48afb6992",
    },
    ("cooldown-3to2", 1): {
        "series.csv": "bbaa118bd598c342339daf496cac9d04780232dc85998c9665a4ca00457274cb",
        "events.jsonl": "aeec0ee092d0b176049b494e70b8387a6012b7dfe9ab3160667d76c28d4be930",
        "report.json": "4cb30d82aad09576868e6e55ccef95d5fd2e9fd24926c82e01dcdb71f74db5d0",
    },
}


@pytest.mark.parametrize("name, seed", sorted(PINNED_DIGESTS))
def test_outputs_match_pinned_digests(tmp_path, name, seed):
    result, _ = get_run(name, seed)
    write_outputs(result, tmp_path, band=CRITERIA["band"])
    digests = {
        output: hashlib.sha256((tmp_path / output).read_bytes()).hexdigest()
        for output in PINNED_DIGESTS[(name, seed)]
    }
    assert digests == PINNED_DIGESTS[(name, seed)]


# The same for two bench workloads, read from bench/, never written:
# capacity-drain, the one whose NFs run in capacity mode (token buckets,
# 40-packet queues, scale-in 3 -> 2 -> 1), since every run pinned above has
# passthrough NFs; and short-flows, the one run at L=65536 and the one with
# a rebalance action.
WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"
PINNED_CAPACITY_DIGESTS = {
    "series.csv": "437e92657e91616125afe90dfaa2804e8c16f51d05792ff424423cae5f3796f0",
    "events.jsonl": "6c33f7497032c5b2bdd68859edbe7eafb7b4af7f8761c5eb1a0286f3046fed6e",
    "report.json": "88a3507ed167803c33c9408c891f442ac1cf07693191631c9f9f92c065de3a9a",
}
PINNED_SHORT_FLOWS_DIGESTS = {
    "series.csv": "60049d7f137e8220df6a0034f10570c1826d03048d77e4970d6849550b8bd77b",
    "events.jsonl": "0c3e13794520626d87464d4d50b7c4f2e3219222eb70e0e5b839805f8c1648fa",
    "report.json": "378d79a6794cae2d23ee63409c0281cf2a513d154c8780beec1d3c91e7abf472",
}


def workload_digests(tmp_path, name):
    """sha256 of each output of the named workload's run at seed 1."""
    result = netsim.run(parse_scenario(WORKLOADS / f"{name}.yaml").with_seed(1))
    write_outputs(result, tmp_path)
    return {
        output: hashlib.sha256((tmp_path / output).read_bytes()).hexdigest()
        for output in ("series.csv", "events.jsonl", "report.json")
    }


def test_capacity_drain_outputs_match_pinned_digests(tmp_path):
    assert workload_digests(tmp_path, "capacity-drain") == PINNED_CAPACITY_DIGESTS


def test_short_flows_outputs_match_pinned_digests(tmp_path):
    assert workload_digests(tmp_path, "short-flows") == PINNED_SHORT_FLOWS_DIGESTS


def test_criterion_8_bucket_allocation():
    rng = random.Random(77001)
    worst = 0.0
    for trial in range(10_000):
        n = rng.randrange(1, 13)
        chains = [ChainId(2 * i + 2, 2 * i + 3) for i in range(n)]
        if rng.random() < 0.25:
            raw = [float(rng.choice([0, 1, 1, 2])) for _ in range(n)]
        else:
            raw = [rng.random() for _ in range(n)]
        if sum(raw) == 0:
            raw[rng.randrange(n)] = 1.0
        total = sum(raw)
        profile = WeightProfile({c: x / total for c, x in zip(chains, raw)})
        bucket_count = rng.choice([64 * n, 1000, 1024, 4096])
        alloc = allocate_buckets(profile, bucket_count)
        assert sum(c for _, c in alloc) == bucket_count
        for chain, count in alloc:
            worst = max(worst, abs(count - profile.probs[chain] * bucket_count))
    ok = worst < 1.0
    verdict(
        8, "bucket allocation",
        ok,
        f"10000 profiles: every allocation sums exactly; max |count - quota| "
        f"= {worst:.6f} (limit < 1)",
    )
