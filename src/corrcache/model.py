"""Library model: files assembled from shared subfiles, plus cache bookkeeping.

A library holds n_files files over n_users cache-equipped users.  Every
nonempty subset S of file indices owns one subfile; file i is the
concatenation of all subfiles whose subset contains i.  All subfiles with
|S| = l ("level l") have the same size, so a config is fully described by
(n_files, n_users, cache_capacity, per-level sizes).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .combinat import (
    comb0,
    concat_bits,
    divisibility_unit,
    mix_seed,
    part_labels,
)

# Relative tolerance applied to the cache capacity constraint.
CAPACITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class LibraryConfig:
    """Static description of a library and its cache network.

    subfile_sizes[l-1] is the bit size of every level-l subfile.  Sizes are
    ints for anything that will be simulated bit-for-bit; floats are accepted
    so the closed-form calculators can work on exact unrounded sizes.
    cache_capacity is in file units (a cache holds cache_capacity * file_size
    bits) and is clamped to the whole library.
    """

    n_files: int
    n_users: int
    cache_capacity: float
    subfile_sizes: tuple

    def __post_init__(self):
        if self.n_files < 1 or self.n_files > 20:
            raise ValueError("n_files must be in [1, 20]")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        sizes = tuple(self.subfile_sizes)
        if len(sizes) != self.n_files:
            raise ValueError("need one size per level 1..n_files")
        # written so that NaN fails too, and inf with it
        if not all(0 <= s < math.inf for s in sizes):
            raise ValueError(f"subfile_sizes must be finite and nonnegative, got {sizes}")
        object.__setattr__(self, "subfile_sizes", sizes)
        n = self.n_files
        # an empty level only ever adds an exact 0 to a sum over levels
        nonempty = tuple(l for l, s in enumerate(sizes, start=1) if s)
        object.__setattr__(self, "_nonempty_levels", nonempty)
        object.__setattr__(
            self,
            "_file_size",
            sum(comb0(n - 1, l - 1) * sizes[l - 1] for l in nonempty),
        )
        object.__setattr__(
            self,
            "_library_bits",
            sum(comb0(n, l) * sizes[l - 1] for l in nonempty),
        )
        if self.file_size <= 0:
            raise ValueError("file size must be positive")
        if not self.cache_capacity >= 0:
            raise ValueError("cache capacity is nonnegative")
        lib_files = self.library_bits / self.file_size
        if self.cache_capacity > lib_files:
            object.__setattr__(self, "cache_capacity", lib_files)

    @property
    def file_size(self):
        """Bits per file: sum over levels of binom(N-1, l-1) * F_l (summed once,
        in __post_init__)."""
        return self._file_size

    @property
    def library_bits(self):
        """Total distinct bits stored at the server: sum over levels of
        binom(N, l) * F_l (summed once, in __post_init__)."""
        return self._library_bits

    def level_size(self, level: int):
        if not 1 <= level <= self.n_files:
            raise ValueError(f"level {level} out of range [1, {self.n_files}]")
        return self.subfile_sizes[level - 1]

    def is_integral(self) -> bool:
        return all(float(s).is_integer() for s in self.subfile_sizes)

    def levels(self) -> range:
        return range(1, self.n_files + 1)

    def nonempty_levels(self) -> tuple[int, ...]:
        """The levels whose subfiles hold bits, ascending (listed once, in
        __post_init__).  Loops over levels walk these: an empty level adds
        nothing to any sum and owns no subfile."""
        return self._nonempty_levels


def file_layout(config: LibraryConfig, file_index: int):
    """(subfile mask, size, offset) triples making up one file, in
    concatenation order: level ascending, then lexicographic members.  Only
    nonempty subfiles are listed."""
    if not 1 <= file_index <= config.n_files:
        raise ValueError("file index out of range")
    bit = 1 << (file_index - 1)
    out = []
    offset = 0
    for level in config.nonempty_levels():
        size = int(config.subfile_sizes[level - 1])
        for m in part_labels(config.n_files, level):
            if m & bit:
                out.append((m, size, offset))
                offset += size
    return out


def as_demands(demands, config: LibraryConfig) -> tuple[int, ...]:
    """One validated file request per user, as a tuple of 1-based indices."""
    demands = tuple(demands)
    if len(demands) != config.n_users:
        raise ValueError("need one demand per user")
    for d in demands:
        if not 1 <= d <= config.n_files:
            raise ValueError(f"demand {d} outside [1, {config.n_files}]")
    return demands


@dataclass(frozen=True)
class CacheAllocation:
    """Per-level cached fraction p_l in [0, 1] of every level-l subfile."""

    fractions: tuple[float, ...]

    def __post_init__(self):
        fr = tuple(map(float, self.fractions))
        if fr:
            lo, hi = min(fr), max(fr)
            # NaN passes min and max unseen, but not the sum: clamping below
            # would make it 0
            if lo < -1e-12 or hi > 1 + 1e-12 or sum(fr) != sum(fr):
                raise ValueError(f"fractions must lie in [0, 1], got {fr}")
            if lo < 0.0 or hi > 1.0:
                fr = tuple(min(1.0, max(0.0, p)) for p in fr)
        object.__setattr__(self, "fractions", fr)

    @classmethod
    def from_replication(cls, counts, n_users: int) -> "CacheAllocation":
        """Build from per-level replication counts t_l = K * p_l."""
        return cls(tuple(c / n_users for c in counts))

    def level_fractions(self, config: LibraryConfig) -> tuple[float, ...]:
        """The fractions, checked to hold one per level of `config`: the
        level loops read only the nonempty levels' entries, so a short or
        long tuple would otherwise go unseen."""
        if len(self.fractions) != config.n_files:
            raise ValueError("allocation needs one fraction per level")
        return self.fractions

    def cached_bits(self, config: LibraryConfig):
        """Bits one user stores under this allocation: sum binom(N,l) p_l F_l."""
        n, fractions = config.n_files, self.level_fractions(config)
        return sum(
            comb0(n, l) * fractions[l - 1] * config.subfile_sizes[l - 1]
            for l in config.nonempty_levels()
        )

    def satisfies_capacity(self, config: LibraryConfig) -> bool:
        return within_capacity(config, self.cached_bits(config))


def within_capacity(config: LibraryConfig, bits) -> bool:
    """Whether a cache of `bits` bits fits the budget cache_capacity * F,
    up to CAPACITY_TOLERANCE of a file for float noise in the budget."""
    budget = config.cache_capacity * config.file_size
    return bits <= budget + CAPACITY_TOLERANCE * config.file_size


@dataclass
class ContentStore:
    """Server-side ground truth: concrete bits for every nonempty subfile.

    An item, the unit placement and delivery move, is a subfile named by
    its file-set mask; its bits are the store's entry for that mask.
    Contents are pseudorandom from the seed; files are assembled by
    concatenating the subfiles containing the file index in canonical order
    (level ascending, then lexicographic members), least-significant bits
    first within each subfile.
    """

    config: LibraryConfig
    seed: int
    _contents: dict = field(repr=False)

    @classmethod
    def generate(cls, config: LibraryConfig, seed: int = 0) -> "ContentStore":
        if not config.is_integral():
            raise ValueError("content generation needs integer subfile sizes")
        contents = {}
        for level in config.nonempty_levels():
            size = int(config.subfile_sizes[level - 1])
            for m in part_labels(config.n_files, level):
                contents[m] = random.Random(mix_seed(seed, level, m)).getrandbits(size)
        return cls(config=config, seed=seed, _contents=contents)

    def item_bits(self, item: int) -> int:
        """Bits of a placement/delivery item, the subfile of file-set mask `item`."""
        return self._contents[item]

    def file_bits(self, file_index: int) -> int:
        """Ground-truth assembled file, file_size bits."""
        return concat_bits(
            (self._contents[m], size) for m, size, _ in file_layout(self.config, file_index)
        )


def exact_sizes_from_ratios(n_files: int, ratios, file_bits) -> tuple[float, ...]:
    """Unrounded per-level sizes F_l = r_l * F / binom(N-1, l-1) for the
    commonness ratios r_l (the share of one file held in level-l subfiles,
    one per level, summing to 1) and the target file size F."""
    ratios = tuple(map(float, ratios))
    if len(ratios) != n_files:
        raise ValueError("need one ratio per level")
    # written so that NaN fails too, and inf with it
    if not all(0 <= r < math.inf for r in ratios):
        raise ValueError(f"ratios must be finite and nonnegative, got {ratios}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:
        raise ValueError("ratios must sum to 1")
    if file_bits <= 0:
        raise ValueError("file_bits must be positive")
    return tuple(
        r * file_bits / comb0(n_files - 1, l - 1) for l, r in enumerate(ratios, start=1)
    )


def ratios_to_sizes(n_files: int, n_users: int, ratios, file_bits) -> tuple[int, ...]:
    """Integer per-level sizes realizing the ratios as closely as divisibility allows.

    Each level size is rounded down to a multiple of the divisibility unit
    lcm{binom(K, t)} so bit-level placement splits evenly for every integer
    share; the per-level loss is below one unit.  A level with a positive
    ratio that would round to 0 bits raises ValueError instead of silently
    leaving that part of the library out.
    """
    exact_sizes = exact_sizes_from_ratios(n_files, ratios, file_bits)
    unit = divisibility_unit(n_users)
    sizes = tuple(int(exact // unit) * unit for exact in exact_sizes)
    for level, (r, size) in enumerate(zip(ratios, sizes), start=1):
        if r > 0 and size == 0:
            raise ValueError(
                f"level {level} ratio {r:g} rounds to 0 bits (divisibility unit "
                f"{unit}); increase file_bits"
            )
    return sizes
