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
        object.__setattr__(
            self,
            "_file_size",
            sum(comb0(n - 1, l - 1) * sizes[l - 1] for l in range(1, n + 1)),
        )
        object.__setattr__(
            self,
            "_library_bits",
            sum(comb0(n, l) * sizes[l - 1] for l in range(1, n + 1)),
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


def file_layout(config: LibraryConfig, file_index: int):
    """(subfile mask, size, offset) triples making up one file, in
    concatenation order: level ascending, then lexicographic members.  Only
    nonempty subfiles are listed."""
    if not 1 <= file_index <= config.n_files:
        raise ValueError("file index out of range")
    bit = 1 << (file_index - 1)
    out = []
    offset = 0
    for level in config.levels():
        size = int(config.subfile_sizes[level - 1])
        if not size:
            continue
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
        fr = tuple(float(p) for p in self.fractions)
        # written so that NaN fails too: clamping below would make it 0
        if not all(-1e-12 <= p <= 1 + 1e-12 for p in fr):
            raise ValueError(f"fractions must lie in [0, 1], got {fr}")
        object.__setattr__(
            self, "fractions", tuple(min(1.0, max(0.0, p)) for p in fr)
        )

    @classmethod
    def from_replication(cls, counts, n_users: int) -> "CacheAllocation":
        """Build from per-level replication counts t_l = K * p_l."""
        return cls(tuple(c / n_users for c in counts))

    def cached_bits(self, config: LibraryConfig):
        """Bits one user stores under this allocation: sum binom(N,l) p_l F_l."""
        n = config.n_files
        return sum(
            comb0(n, l) * self.fractions[l - 1] * config.subfile_sizes[l - 1]
            for l in config.levels()
        )

    def satisfies_capacity(self, config: LibraryConfig) -> bool:
        budget = config.cache_capacity * config.file_size
        return self.cached_bits(config) <= budget + CAPACITY_TOLERANCE * config.file_size


def check_allocation(config: LibraryConfig, alloc: CacheAllocation) -> None:
    if len(alloc.fractions) != config.n_files:
        raise ValueError("allocation needs one fraction per level")
    if not alloc.satisfies_capacity(config):
        raise ValueError("allocation exceeds cache capacity")


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
        for level in config.levels():
            size = int(config.subfile_sizes[level - 1])
            if not size:
                continue
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


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of a sweep/simulation experiment.

    ratios are commonness ratios r_l (fraction of one file made of level-l
    subfiles, summing to 1); file_bits is the target file size F before
    divisibility rounding.
    """

    n_files: int
    n_users: int
    cache_capacity: float
    ratios: tuple[float, ...]
    file_bits: int

    def __post_init__(self):
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        if len(self.ratios) != self.n_files:
            raise ValueError("need one ratio per level")
        # written so that NaN fails too, and inf with it
        if not all(0 <= r < math.inf for r in self.ratios):
            raise ValueError(f"ratios must be finite and nonnegative, got {self.ratios}")
        if not abs(sum(self.ratios) - 1.0) <= 1e-9:
            raise ValueError("ratios must sum to 1")
        if self.file_bits <= 0:
            raise ValueError("file_bits must be positive")


def exact_sizes_from_ratios(n_files: int, ratios, file_bits) -> tuple[float, ...]:
    """Unrounded per-level sizes F_l = r_l * F / binom(N-1, l-1).

    Levels whose ratio is 0 get size 0; a positive ratio on a level with no
    subfiles through one file (impossible for l <= N) cannot occur.
    """
    sizes = []
    for l in range(1, n_files + 1):
        share = comb0(n_files - 1, l - 1)
        r = ratios[l - 1]
        sizes.append(r * file_bits / share if share else 0.0)
    return tuple(sizes)


def ratios_to_sizes(spec: ExperimentSpec) -> LibraryConfig:
    """Integer config realizing the requested ratios as closely as divisibility allows.

    Each level size is rounded down to a multiple of the divisibility unit
    lcm{binom(K, t)} so bit-level placement splits evenly for every integer
    share; the per-level loss is below one unit.  A level with a positive
    ratio that would round to 0 bits raises ValueError instead of silently
    leaving that part of the library out.
    """
    unit = divisibility_unit(spec.n_users)
    sizes = []
    exact_sizes = exact_sizes_from_ratios(spec.n_files, spec.ratios, spec.file_bits)
    for level, (r, exact) in enumerate(zip(spec.ratios, exact_sizes), start=1):
        size = int(exact // unit) * unit
        if r > 0 and size == 0:
            raise ValueError(
                f"level {level} ratio {r:g} rounds to 0 bits (divisibility unit "
                f"{unit}); increase file_bits"
            )
        sizes.append(size)
    return LibraryConfig(
        n_files=spec.n_files,
        n_users=spec.n_users,
        cache_capacity=spec.cache_capacity,
        subfile_sizes=tuple(sizes),
    )
