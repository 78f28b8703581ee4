import math
import random

import pytest

from chainbalance.errors import (
    DuplicateChain,
    EmptyWindow,
    LastChain,
    UnknownChain,
    ZeroProbability,
)
from chainbalance.hashing import ChainId
from chainbalance.rebalance import (
    TrafficWindow,
    WeightProfile,
    add_chain,
    allocate_buckets,
    bias,
    redistribute,
    remove_chain,
)

C1 = ChainId(2, 3)
C2 = ChainId(4, 5)
C3 = ChainId(6, 7)


def profile(*pairs):
    return WeightProfile(dict(pairs))


def window(*pairs):
    return TrafficWindow(5.0, dict(pairs))


def test_bias_balanced():
    result = bias(profile((C1, 0.5), (C2, 0.5)), window((C1, 200), (C2, 200)))
    assert result == {C1: 1.0, C2: 1.0}


def test_bias_skewed():
    # b_i = t_i / (T p_i) with T = 400
    result = bias(profile((C1, 0.5), (C2, 0.5)), window((C1, 300), (C2, 100)))
    assert result[C1] == pytest.approx(1.5)
    assert result[C2] == pytest.approx(0.5)


def test_bias_single_chain():
    result = bias(profile((C1, 1.0)), window((C1, 500)))
    assert result == {C1: 1.0}


def test_bias_errors():
    with pytest.raises(EmptyWindow):
        bias(profile((C1, 1.0)), window((C1, 0)))
    with pytest.raises(ZeroProbability):
        bias(profile((C1, 0.0), (C2, 1.0)), window((C1, 10), (C2, 10)))
    with pytest.raises(UnknownChain):
        bias(profile((C1, 0.5), (C2, 0.5)), window((C1, 10)))


def test_redistribute_hand_value():
    # p_i / t_i = {1/600, 1/200}; normalizer 4/600
    result = redistribute(profile((C1, 0.5), (C2, 0.5)), window((C1, 300), (C2, 100)))
    assert result.probs[C1] == pytest.approx(0.25, abs=1e-12)
    assert result.probs[C2] == pytest.approx(0.75, abs=1e-12)


def test_redistribute_fixed_point_on_equal_traffic():
    p = profile((C1, 0.2), (C2, 0.3), (C3, 0.5))
    result = redistribute(p, window((C1, 400), (C2, 400), (C3, 400)))
    for chain in p.probs:
        assert result.probs[chain] == pytest.approx(p.probs[chain], abs=1e-12)


def test_redistribute_uniform_when_traffic_tracks_probability():
    # t_i proportional to p_i means every bias is 1: the result is uniform
    p = profile((C1, 0.2), (C2, 0.3), (C3, 0.5))
    result = redistribute(p, window((C1, 200), (C2, 300), (C3, 500)))
    for chain in p.probs:
        assert result.probs[chain] == pytest.approx(1 / 3, abs=1e-12)


def test_add_chain_from_single():
    result = add_chain(profile((C1, 1.0)), window((C1, 7777)), C2)
    assert result.probs[C1] == pytest.approx(0.5, abs=1e-12)
    assert result.probs[C2] == 0.5


def test_add_chain_skewed():
    # redistribute gives [0.25, 0.75]; scaled by 2/3, new chain gets exactly 1/3
    result = add_chain(profile((C1, 0.5), (C2, 0.5)), window((C1, 300), (C2, 100)), C3)
    assert result.probs[C1] == pytest.approx(1 / 6, abs=1e-12)
    assert result.probs[C2] == pytest.approx(1 / 2, abs=1e-12)
    assert result.probs[C3] == 1 / 3


def test_add_chain_balanced():
    result = add_chain(profile((C1, 0.5), (C2, 0.5)), window((C1, 200), (C2, 200)), C3)
    for chain in (C1, C2, C3):
        assert result.probs[chain] == pytest.approx(1 / 3, abs=1e-12)


def test_add_chain_split_is_exact():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 8)
        chains = [ChainId(2 * i + 2, 2 * i + 3) for i in range(n + 1)]
        raw = [rng.random() + 1e-3 for _ in range(n)]
        total = sum(raw)
        p = WeightProfile({c: x / total for c, x in zip(chains[:-1], raw)})
        t = TrafficWindow(1.0, {c: rng.randrange(0, 10_000) for c in chains[:-1]})
        result = add_chain(p, t, chains[-1])
        assert result.probs[chains[-1]] == 1.0 / (n + 1)
        assert math.fsum(result.probs[c] for c in chains[:-1]) == pytest.approx(
            n / (n + 1), abs=1e-12
        )
        assert math.fsum(result.probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_add_chain_duplicate():
    with pytest.raises(DuplicateChain):
        add_chain(profile((C1, 1.0)), window((C1, 10)), C1)


def test_remove_chain_two_equal():
    result = remove_chain(profile((C1, 0.5), (C2, 0.5)), window((C1, 100), (C2, 100)), C2)
    assert result.probs[C1] == pytest.approx(1.0, abs=1e-12)
    assert result.probs[C2] == 0.0


def test_remove_chain_equal_traffic_renormalizes():
    result = remove_chain(
        profile((C1, 0.2), (C2, 0.3), (C3, 0.5)),
        window((C1, 100), (C2, 100), (C3, 100)),
        C2,
    )
    assert result.probs[C1] == pytest.approx(2 / 7, abs=1e-12)
    assert result.probs[C2] == 0.0
    assert result.probs[C3] == pytest.approx(5 / 7, abs=1e-12)


def test_remove_chain_symmetric_survivors():
    p = profile((C1, 1 / 3), (C2, 1 / 3), (C3, 1 / 3))
    result = remove_chain(p, window((C1, 300), (C2, 100), (C3, 100)), C1)
    assert result.probs[C1] == 0.0
    assert result.probs[C2] == pytest.approx(0.5, abs=1e-12)
    assert result.probs[C3] == pytest.approx(0.5, abs=1e-12)


def test_remove_chain_errors():
    with pytest.raises(LastChain):
        remove_chain(profile((C1, 1.0)), window((C1, 10)), C1)
    with pytest.raises(UnknownChain):
        remove_chain(profile((C1, 0.5), (C2, 0.5)), window((C1, 10), (C2, 10)), C3)


def test_zero_traffic_clamp():
    # a chain with no bytes in the window must not crash the algebra and
    # comes out with the largest claim on future traffic
    result = redistribute(profile((C1, 0.5), (C2, 0.5)), window((C1, 0), (C2, 1000)))
    assert result.probs[C1] > result.probs[C2]
    assert math.fsum(result.probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_remove_then_add_still_normalized():
    # the algebra is not an involution; only normalization is guaranteed
    p = profile((C1, 0.5), (C2, 0.3), (C3, 0.2))
    t = window((C1, 100), (C2, 100), (C3, 100))
    removed = remove_chain(p, t, C3)
    survivors = WeightProfile({c: v for c, v in removed.probs.items() if v > 0})
    t2 = window((C1, 100), (C2, 100))
    readded = add_chain(survivors, t2, C3)
    assert math.fsum(readded.probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_allocate_hand_example():
    # quotas [2.5, 7.5], one leftover slot, remainder tie broken by lower tag
    alloc = allocate_buckets(profile((C1, 0.25), (C2, 0.75)), 10)
    assert alloc == [(C1, 3), (C2, 7)]


def test_allocate_exact_division():
    alloc = allocate_buckets(profile((C1, 1 / 3), (C2, 1 / 3), (C3, 1 / 3)), 9)
    assert alloc == [(C1, 3), (C2, 3), (C3, 3)]


def test_allocate_zero_probability_chain():
    alloc = allocate_buckets(profile((C1, 0.5), (C2, 0.5), (C3, 0.0)), 8)
    assert alloc == [(C1, 4), (C2, 4), (C3, 0)]


def test_allocate_thirds_of_1024():
    alloc = allocate_buckets(profile((C1, 1 / 3), (C2, 1 / 3), (C3, 1 / 3)), 1024)
    assert alloc == [(C1, 342), (C2, 341), (C3, 341)]


def test_allocate_sums_exactly_randomized():
    rng = random.Random(77)
    for _ in range(1000):
        n = rng.randrange(1, 12)
        chains = [ChainId(2 * i + 2, 2 * i + 3) for i in range(n)]
        raw = [rng.random() for _ in range(n)]
        # occasionally force ties and zeros
        if rng.random() < 0.3:
            raw = [rng.choice([0.0, 1.0, 2.0]) for _ in range(n)]
        total = sum(raw)
        if total == 0:
            raw[0] = 1.0
            total = 1.0
        p = WeightProfile({c: x / total for c, x in zip(chains, raw)})
        bucket_count = rng.choice([64, 128, 1000, 1024])
        alloc = allocate_buckets(p, bucket_count)
        assert sum(n for _, n in alloc) == bucket_count
        for chain, count in alloc:
            assert abs(count - p.probs[chain] * bucket_count) < 1.0


def test_window_merge():
    a = TrafficWindow(5.0, {C1: 300})
    b = TrafficWindow(5.0, {C1: 200, C2: 50})
    merged = a.merged(b)
    assert merged.bytes == {C1: 500, C2: 50}
    assert merged.total == 550
