"""Direction-invariant session keying and the shared bucket vector.

Both balancers of a pair run this module with the same seed, so every
function here must be bit-for-bit deterministic across processes and
hosts: no per-process hash randomization, no library RNG.

Primitives:
    canonical_key       — pack the two endpoints of a flow into one `bytes` key
    hash_key            — FNV-1a over the key bytes, finished with a 64-bit mixer
    fnv_fixed_parts     — FNV-1a's state after a fixed prefix, and a fixed
                          suffix's FNV-1a as one multiply-add and a table read
    build_buckets       — fill slots per allocation, Fisher-Yates shuffle (SplitMix64)
    BucketVector.lookup — table[index[h mod L]], h = hash_key(k) unless passed in

A session key is one `bytes` value: the flow's lo endpoint then its hi
endpoint by `Endpoint` order, each as address bytes plus a 2-byte big-endian
port, so 12 bytes for IPv4 and 36 for IPv6. The traffic plan packs each
client's key once, and hashes it once per session, into the session's
record (`traffic.Session`): a new client's key from the fixed parts of
`fnv_fixed_parts` and its four drawn bytes, a reused one with `hash_key`.
Both balancers key their tables with the key and map a new session by the
carried hash.

A chain is a `ChainId`, a tuple of (forward tag, reverse tag), so the
per-chain dicts, sets and comparisons of the packet path run in C.

Vector layout: `table` holds the live chains sorted by forward tag, `tally`
their slot counts, and `index` one small int per slot pointing into `table`
(bytes up to 256 chains, array('H') beyond). Chains, counts and equality
therefore cost O(chains), never O(L). The index depends only on the slot
runs (each live chain's table position and count, in allocation order) and
on seed XOR generation, so each committed generation is shuffled once: the
Fisher-Yates swaps run on the filled slots themselves, and the master's and
the slave's vectors of that generation share the one index.

The shuffle's SplitMix64 draws are computed a block of `_LANES` at a time in
one Python int, one draw per 128-bit lane: every state, xor-shift and
64x64-bit product of a block is a handful of big-int operations, and a lane's
product never carries into the next lane. The lanes are read back through
`array('Q')` in the host's byte order, so the draws, and the swaps they
drive, are the same on every host as drawing one at a time.
"""

from __future__ import annotations

import ipaddress
import sys
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter

from .errors import AllocationMismatch

MASK64 = 0xFFFF_FFFF_FFFF_FFFF

# FNV-1a 64-bit constants
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
# the multipliers of the 64-bit finalizer (fmix64)
FMIX64_M1 = 0xFF51AFD7ED558CCD
FMIX64_M2 = 0xC4CEB9FE1A85EC53

TAG_MIN = 2
TAG_MAX = 4094  # 12-bit field, 0/1 reserved, 4095 reserved

DEFAULT_BUCKET_COUNT = 1024

# SplitMix64 in lanes: draw k of a block sits in bits [128k, 128k + 64) of
# one int, the upper 64 bits of its lane zero, so a lane holds a full product
_GAMMA = 0x9E3779B97F4A7C15
_LANES = 1024
_LANE_BYTES = 16
# the array('Q') words of such an int's bytes that hold each lane's low half,
# first lane first, by the byte order the bytes are in
_LOW_WORDS = {"little": slice(0, None, 2), "big": slice(None, None, -2)}


def _from_lanes(values) -> int:
    """The int holding values[k] in lane k, packed as `_splitmix_block` unpacks."""
    words = array("Q", bytes(_LANE_BYTES * len(values)))
    words[_LOW_WORDS[sys.byteorder]] = array("Q", values)
    return int.from_bytes(words, sys.byteorder)


_ONES = _from_lanes([1] * _LANES)
_STEPS = _GAMMA * _from_lanes(range(1, _LANES + 1))
_LOW64 = MASK64 * _ONES


@dataclass(frozen=True, order=True)
class Endpoint:
    """One side of a flow: packed network address plus transport port."""

    address: bytes
    port: int

    def __post_init__(self):
        if len(self.address) not in (4, 16):
            raise ValueError(f"address must be 4 or 16 bytes, got {len(self.address)}")
        if not 0 < self.port <= 0xFFFF:
            raise ValueError(f"port out of range: {self.port}")

    @classmethod
    def parse(cls, address: str, port: int) -> "Endpoint":
        return cls(ipaddress.ip_address(address).packed, port)

    def __str__(self):
        return f"{ipaddress.ip_address(self.address)}:{self.port}"


class ChainId(tuple):
    """Tag pair naming one chain instance: forward path tag, reverse path tag.

    A tuple, so it hashes, compares and sorts in C exactly as the plain tuple
    (forward_tag, reverse_tag), which it equals. The tags are validated once,
    on construction.
    """

    __slots__ = ()

    def __new__(cls, forward_tag: int, reverse_tag: int):
        for tag in (forward_tag, reverse_tag):
            if not TAG_MIN <= tag <= TAG_MAX:
                raise ValueError(f"tag out of range [{TAG_MIN}, {TAG_MAX}]: {tag}")
        if forward_tag == reverse_tag:
            raise ValueError(f"forward and reverse tags must differ: {forward_tag}")
        return tuple.__new__(cls, (forward_tag, reverse_tag))

    forward_tag = property(itemgetter(0), doc="Tag the master pushes on forward packets.")
    reverse_tag = property(itemgetter(1), doc="Tag the slave pushes on reverse packets.")

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__, which takes two tags
        return tuple(self)

    def __str__(self):
        return f"({self[0]},{self[1]})"

    def __repr__(self):
        return f"ChainId(forward_tag={self[0]!r}, reverse_tag={self[1]!r})"


@dataclass(frozen=True)
class HashParams:
    """Shared hashing parameters: shuffle seed and bucket-vector length."""

    seed: int
    bucket_count: int = DEFAULT_BUCKET_COUNT

    def __post_init__(self):
        if self.bucket_count <= 0:
            raise ValueError("bucket_count must be positive")
        if not 0 <= self.seed <= MASK64:
            raise ValueError("seed must fit in 64 bits")


def canonical_key(a: Endpoint, b: Endpoint) -> bytes:
    """Pack the direction-invariant key for the flow between a and b."""
    lo, hi = (a, b) if a <= b else (b, a)
    return lo.address + lo.port.to_bytes(2, "big") + hi.address + hi.port.to_bytes(2, "big")


def hash_key(key: bytes) -> int:
    """Map a session key to a 64-bit integer, identically on every host."""
    h = FNV_OFFSET
    for byte in key:
        h = ((h ^ byte) * FNV_PRIME) & MASK64
    # 64-bit finalizer (fmix64); keeps low bits well distributed for mod-L indexing
    h ^= h >> 33
    h = (h * FMIX64_M1) & MASK64
    h ^= h >> 33
    h = (h * FMIX64_M2) & MASK64
    return h ^ (h >> 33)


def fnv_fixed_parts(prefix: bytes, suffix: bytes) -> tuple[int, int, tuple[int, ...]]:
    """FNV-1a's state after `prefix`, and `suffix`'s FNV-1a as (power, table).

    FNV-1a over `suffix` takes any state h to
    (h * power + table[h & 0xFF]) & MASK64, with power = FNV_PRIME **
    len(suffix) mod 2**64: a step's xor changes only the low byte of h, and
    the low byte of its product depends only on that byte, so whatever the
    steps add beyond h * power is fixed by h's low byte. A key made of
    `prefix`, a drawn middle and `suffix` so hashes as hash_key does, with
    only the middle's bytes stepped one at a time.
    """
    state = FNV_OFFSET
    for byte in prefix:
        state = ((state ^ byte) * FNV_PRIME) & MASK64
    power = pow(FNV_PRIME, len(suffix), 1 << 64)
    table = []
    for low in range(256):
        h = low
        for byte in suffix:
            h = ((h ^ byte) * FNV_PRIME) & MASK64
        table.append((h - low * power) & MASK64)
    return state, power, tuple(table)


@dataclass(frozen=True)
class BucketVector:
    """Immutable bucket vector; replaced wholesale, never mutated.

    Slot k belongs to table[index[k]]. Equality compares the table (one
    ChainId comparison per chain), the index (in C), seed and generation.
    """

    table: tuple[ChainId, ...]
    index: bytes | array = field(hash=False)
    tally: tuple[int, ...] = field(compare=False)
    seed: int
    generation: int

    def __len__(self):
        return len(self.index)

    @property
    def slots(self) -> tuple[ChainId, ...]:
        """The chain id of every slot, in slot order."""
        return tuple(map(self.table.__getitem__, self.index))

    def lookup(self, key: bytes, key_hash: int | None = None) -> ChainId:
        """The chain of the key's slot; `key_hash`, when given, is
        hash_key(key), computed by the caller beforehand."""
        if key_hash is None:
            key_hash = hash_key(key)
        index = self.index
        return self.table[index[key_hash % len(index)]]

    def chains(self) -> tuple[ChainId, ...]:
        """Distinct chains present, ordered by forward tag."""
        return self.table

    def counts(self) -> dict[ChainId, int]:
        """Slot count per chain, ordered by forward tag."""
        return dict(zip(self.table, self.tally))


def _splitmix_block(state: int, count: int) -> array:
    """The next `count` (at most `_LANES`) SplitMix64 outputs after `state`.

    Lane k starts at state + (k+1)*gamma. Each mixer step acts on all lanes
    at once and is masked back to 64 bits per lane before it multiplies, so
    neither a bit shifted in from the next lane nor a carry crosses a lane.
    """
    low = _LOW64 if count == _LANES else _LOW64 & ((1 << (8 * _LANE_BYTES * count)) - 1)
    z = (state * _ONES + _STEPS) & low
    z = (((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
    z = (((z ^ (z >> 27)) & low) * 0x94D049BB133111EB) & low
    z = (z ^ (z >> 31)) & low
    return array("Q", z.to_bytes(_LANE_BYTES * count, sys.byteorder))[_LOW_WORDS[sys.byteorder]]


@lru_cache(maxsize=2)
def _shuffled_index(runs: tuple[tuple[int, int], ...], state: int) -> bytes | array:
    """The slot index of a vector filled with `runs` and shuffled from `state`.

    `runs` holds one (table position, slot count) per live chain, in
    allocation order; the slots are filled run by run, then shuffled in
    place by Fisher-Yates: swap i (from L-1 down to 1) takes SplitMix64
    draw L-i mod (i+1). The draws come a block at a time from
    `_splitmix_block`, so only the modulo and the swap run per slot. The
    master and the slave build each generation from the same runs and
    seed XOR generation, so the cache hands the second build the first
    one's index. Every caller gets the same object: read it, never mutate it.
    """
    slots: list[int] = []
    for position, count in runs:
        slots += [position] * count
    length = len(slots)
    for done in range(0, length - 1, _LANES):
        top = length - 1 - done
        count = min(_LANES, top)
        draws = _splitmix_block((state + done * _GAMMA) & MASK64, count)
        for i, z in zip(range(top, top - count, -1), draws):
            j = z % (i + 1)
            slots[i], slots[j] = slots[j], slots[i]
    return bytes(slots) if len(runs) <= 256 else array("H", slots)


def build_buckets(
    alloc: list[tuple[ChainId, int]],
    params: HashParams,
    generation: int,
) -> BucketVector:
    """Fill one slot run per chain, then Fisher-Yates shuffle the slots.

    The shuffle is driven by SplitMix64 seeded with seed XOR generation,
    with the swap index drawn as next() mod (i+1) for i from L-1 down to 1.
    Both balancers must call this with an identically ordered alloc to get
    bit-identical vectors; the second call for a generation reuses the
    first one's shuffled index (see `_shuffled_index`), so each generation
    is shuffled once for both.
    """
    total = sum(count for _, count in alloc)
    if total != params.bucket_count:
        raise AllocationMismatch(
            f"allocation sums to {total}, vector length is {params.bucket_count}"
        )
    if any(count < 0 for _, count in alloc):
        raise AllocationMismatch("negative slot count")
    ids = [chain for chain, _ in alloc]
    if len(set(ids)) != len(ids):
        raise AllocationMismatch("duplicate chain in allocation")

    # one slot run per chain, in allocation order, each slot holding its
    # chain's position in the sorted table; zero-count chains take no slot
    # and no table entry
    table = tuple(sorted(chain for chain, count in alloc if count))
    position = {chain: i for i, chain in enumerate(table)}
    runs = tuple((position[chain], count) for chain, count in alloc if count)
    tally = tuple(count for _, count in sorted(runs))
    index = _shuffled_index(runs, (params.seed ^ generation) & MASK64)
    return BucketVector(table, index, tally, params.seed, generation)
