"""Shared helpers for the test suite."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from corrcache import LibraryConfig, cacc_level_rate
from corrcache.combinat import divisibility_unit
from corrcache.rates import _slope_table


def interpolate(points, vertices, t):
    """The envelope through `vertices` at share t, over points[t] = (t, rate):
    a vertex reads its point, any other share the rate module's float
    interpolation between the two vertices that bracket it."""
    if t in vertices:
        return points[round(t)][1]
    t0 = max(v for v in vertices if v < t)
    t1 = min(v for v in vertices if v > t)
    r0, r1 = points[t0][1], points[t1][1]
    return r0 + (t - t0) / (t1 - t0) * (r1 - r0)


def envelope_at(config, level, t):
    """Level `level`'s coded envelope at share t: the slope table's vertices,
    valued by cacc_level_rate at integer shares."""
    points = [(u, cacc_level_rate(config, level, u)) for u in range(config.n_users + 1)]
    verts = _slope_table(config.n_files, config.n_users).vertices[level - 1]
    return interpolate(points, verts, t)


def single_level_config(n, k, level, units=1, capacity=None):
    """Config whose library lives entirely at one commonness level.

    Sizes are multiples of the divisibility unit so bit-level placement
    splits evenly for every integer share.
    """
    sizes = [0] * n
    sizes[level - 1] = units * divisibility_unit(k)
    if capacity is None:
        capacity = float(n)  # roomy: capacity checks are separate tests
    return LibraryConfig(
        n_files=n, n_users=k, cache_capacity=capacity, subfile_sizes=tuple(sizes)
    )


def random_config(rng: random.Random, n_max=5, k_max=5, units_max=6, m=None):
    n = rng.randint(1, n_max)
    k = rng.randint(1, k_max)
    unit = divisibility_unit(k)
    sizes = [0] * n
    for l in rng.sample(range(1, n + 1), rng.randint(1, n)):
        sizes[l - 1] = rng.randint(1, units_max) * unit
    capacity = rng.uniform(0.0, n) if m is None else m
    return LibraryConfig(
        n_files=n, n_users=k, cache_capacity=capacity, subfile_sizes=tuple(sizes)
    )


@st.composite
def config_strategy(draw, n_max=5, k_max=5, units_max=4):
    """Hypothesis strategy over small integral configs."""
    n = draw(st.integers(1, n_max))
    k = draw(st.integers(1, k_max))
    unit = divisibility_unit(k)
    sizes = draw(
        st.lists(st.integers(0, units_max), min_size=n, max_size=n).filter(
            lambda s: any(s)
        )
    )
    m = draw(st.floats(0.0, float(n), allow_nan=False))
    return LibraryConfig(
        n_files=n,
        n_users=k,
        cache_capacity=m,
        subfile_sizes=tuple(u * unit for u in sizes),
    )
