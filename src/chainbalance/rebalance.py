"""Traffic-share algebra: bias estimation and probability reallocation.

Given the byte counts t_i observed per chain over a window and the
probabilities p_i currently encoded in the bucket vector, these functions
compute the corrected probabilities used to rebuild the vector:

    bias          b_i = t_i / (T * p_i)
    redistribute  p_i' = p_i / (t_i * S),          S = sum_j p_j / t_j
    add_chain     p_i' = (N/(N+1)) * p_i / (t_i * S),  p_new' = 1/(N+1)
    remove_chain  p_i' = p_i / (t_i * S'),         S' over survivors only

All functions are pure; they never touch session-affinity state, so they
may run concurrently with packet mapping. Byte counts are clamped to a
1-byte floor before any division: a chain that saw nothing in the window
gets the strongest claim on future traffic instead of a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DuplicateChain, EmptyWindow, LastChain, UnknownChain, ZeroProbability
from .hashing import ChainId


@dataclass
class TrafficWindow:
    """Per-chain byte counts (both directions summed) over one window."""

    window_length: float
    bytes: dict[ChainId, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.bytes.values())

    def merged(self, other: "TrafficWindow") -> "TrafficWindow":
        """Sum per-chain counts of two windows (master + slave view)."""
        out = dict(self.bytes)
        for chain, count in other.bytes.items():
            out[chain] = out.get(chain, 0.0) + count
        return TrafficWindow(max(self.window_length, other.window_length), out)


@dataclass
class WeightProfile:
    """Target assignment probability per chain; sums to 1."""

    probs: dict[ChainId, float] = field(default_factory=dict)

    @classmethod
    def uniform(cls, chains) -> "WeightProfile":
        chains = list(chains)
        return cls({c: 1.0 / len(chains) for c in chains})

    @property
    def size(self) -> int:
        return len(self.probs)


def _clamped_counts(profile: WeightProfile, window: TrafficWindow) -> dict[ChainId, float]:
    """Byte count per profile chain, floored at 1 byte."""
    counts = {}
    for chain in profile.probs:
        if chain not in window.bytes:
            raise UnknownChain(f"no traffic entry for chain {chain}")
        counts[chain] = max(window.bytes[chain], 1.0)
    return counts


def _check(profile: WeightProfile, window: TrafficWindow):
    if window.total <= 0.0:
        raise EmptyWindow("window carries no traffic")
    for chain, p in profile.probs.items():
        if p == 0.0:
            raise ZeroProbability(f"live chain {chain} has zero probability")


def _counts_and_norm(profile: WeightProfile, window: TrafficWindow,
                     left_out: ChainId | None = None) -> tuple[dict[ChainId, float], float]:
    """Check the window, then its clamped counts and S = sum_j p_j / t_j over
    every chain but `left_out`."""
    _check(profile, window)
    counts = _clamped_counts(profile, window)
    norm = sum(p / counts[chain] for chain, p in profile.probs.items() if chain != left_out)
    return counts, norm


def bias(profile: WeightProfile, window: TrafficWindow) -> dict[ChainId, float]:
    """Session bias per chain: observed over assigned traffic, 1.0 on target."""
    _check(profile, window)
    counts = _clamped_counts(profile, window)
    total = window.total
    return {chain: counts[chain] / (total * p) for chain, p in profile.probs.items()}


def redistribute(profile: WeightProfile, window: TrafficWindow) -> WeightProfile:
    """Correct the probabilities so next-window traffic splits evenly."""
    counts, norm = _counts_and_norm(profile, window)
    return WeightProfile(
        {chain: p / (counts[chain] * norm) for chain, p in profile.probs.items()}
    )


def add_chain(profile: WeightProfile, window: TrafficWindow, new_id: ChainId) -> WeightProfile:
    """Admit a new chain at probability 1/(N+1), scaling the rest to fit."""
    if new_id in profile.probs:
        raise DuplicateChain(f"chain {new_id} already present")
    counts, norm = _counts_and_norm(profile, window)
    n = profile.size
    scale = n / (n + 1)
    probs = {
        chain: scale * p / (counts[chain] * norm) for chain, p in profile.probs.items()
    }
    probs[new_id] = 1.0 / (n + 1)
    return WeightProfile(probs)


def remove_chain(profile: WeightProfile, window: TrafficWindow, victim: ChainId) -> WeightProfile:
    """Zero the victim's probability and renormalize the survivors."""
    if victim not in profile.probs:
        raise UnknownChain(f"chain {victim} not present")
    if profile.size < 2:
        raise LastChain("cannot remove the only chain")
    counts, norm = _counts_and_norm(profile, window, victim)
    probs = {}
    for chain, p in profile.probs.items():
        probs[chain] = 0.0 if chain == victim else p / (counts[chain] * norm)
    return WeightProfile(probs)


def allocate_buckets(profile: WeightProfile, bucket_count: int) -> list[tuple[ChainId, int]]:
    """Integer slot counts per chain via largest-remainder rounding.

    Counts sum to bucket_count exactly; ties on the fractional part are
    broken by ascending forward tag. Zero-probability chains get zero slots.
    """
    if bucket_count <= 0:
        raise ValueError("bucket_count must be positive")
    quotas = {chain: p * bucket_count for chain, p in profile.probs.items()}
    counts = {chain: int(q) for chain, q in quotas.items()}
    leftover = bucket_count - sum(counts.values())
    eligible = sorted(
        (chain for chain, p in profile.probs.items() if p > 0.0),
        key=lambda c: (-(quotas[c] - counts[c]), c.forward_tag),
    )
    for chain in eligible[:leftover]:
        counts[chain] += 1
    return [(chain, counts[chain]) for chain in profile.probs]
