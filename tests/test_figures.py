"""Golden check of the headline figure sweeps: `corrcache sweep` must write
the six CSVs under fixtures/figures/ byte for byte."""

import os

import pytest

from corrcache import rates
from corrcache.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "fixtures", "figures")


def _figure_argvs(n, points):
    """Per CSV name, the `corrcache sweep` flags that draw it: the level-2 and
    the level-N ratio sweeps at capacity 1, and the capacity sweep of the
    half-private, half-pairwise library.  Eleven points use the default
    grids; other counts pass the same grids as repr values."""
    ratio_grid, capacity_grid = [], []
    if points != 11:
        ratio_grid = ["--grid", ",".join(repr(i / (points - 1)) for i in range(points))]
        capacity_grid = [
            "--grid", ",".join(repr(n * i / (points - 1)) for i in range(points))
        ]
    shape = ["sweep", "--n", str(n), "--k", str(n)]
    return {
        "ratio_level2.csv": shape + ["--m", "1", "--sweep-level", "2"] + ratio_grid,
        f"ratio_level{n}.csv": shape + ["--m", "1", "--sweep-level", str(n)] + ratio_grid,
        "capacity.csv": shape + ["--ratios", "0.5,0.5"] + capacity_grid,
    }


def _write_figures(directory, n=10, points=11):
    directory.mkdir(exist_ok=True)
    for name, argv in _figure_argvs(n, points).items():
        assert main(argv + ["--out", str(directory / name)]) == 0, argv


@pytest.mark.parametrize(
    "name, flags", [("default", {}), ("n20_k20_p101", {"n": 20, "points": 101})]
)
def test_figure_csvs_match_golden(tmp_path, name, flags):
    _write_figures(tmp_path, **flags)
    golden_dir = os.path.join(GOLDEN, name)
    want = sorted(os.listdir(golden_dir))
    assert sorted(os.listdir(tmp_path)) == want
    for csv in want:
        with open(os.path.join(golden_dir, csv), "rb") as fh:
            expected = fh.read()
        assert (tmp_path / csv).read_bytes() == expected, csv


def _read_csvs(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def test_figure_csvs_do_not_depend_on_memo_state(tmp_path):
    """The default sweeps, warm and then after emptying every lru_cache of
    the rate layer, write the same bytes: memo state never leaks into output."""
    warm, cold = tmp_path / "warm", tmp_path / "cold"
    _write_figures(warm)
    _write_figures(warm)
    memos = [
        value for value in vars(rates).values() if callable(getattr(value, "cache_clear", None))
    ]
    assert {rates._slope_table, rates._cut_totals} <= set(memos)
    for memo in memos:
        memo.cache_clear()
    _write_figures(cold)
    assert _read_csvs(cold) == _read_csvs(warm)
