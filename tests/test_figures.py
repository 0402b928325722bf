"""Golden check of scripts/run_figure_sweeps.py: the three figure CSVs must
stay byte-identical to the committed fixtures under fixtures/figures/."""

import importlib.util
import os

import pytest

from corrcache import rates

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "fixtures", "figures")


def _sweep_script():
    path = os.path.join(ROOT, "scripts", "run_figure_sweeps.py")
    spec = importlib.util.spec_from_file_location("run_figure_sweeps", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, flags",
    [
        ("default", []),
        ("n20_k20_p101", ["--n", "20", "--k", "20", "--points", "101"]),
    ],
)
def test_figure_csvs_match_golden(tmp_path, capsys, name, flags):
    assert _sweep_script().main(flags + ["--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    golden_dir = os.path.join(GOLDEN, name)
    want = sorted(os.listdir(golden_dir))
    assert sorted(os.listdir(tmp_path)) == want
    for csv in want:
        with open(os.path.join(golden_dir, csv), "rb") as fh:
            expected = fh.read()
        assert (tmp_path / csv).read_bytes() == expected, csv


def _read_csvs(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def test_figure_csvs_do_not_depend_on_memo_state(tmp_path, capsys):
    """The default sweeps, warm and then after emptying every lru_cache of
    the rate layer, write the same bytes: memo state never leaks into output."""
    script = _sweep_script()
    warm, cold = tmp_path / "warm", tmp_path / "cold"
    assert script.main(["--out-dir", str(warm)]) == 0
    assert script.main(["--out-dir", str(warm)]) == 0
    memos = [
        value for value in vars(rates).values() if callable(getattr(value, "cache_clear", None))
    ]
    assert {rates._level_curve, rates._cut_totals} <= set(memos)
    for memo in memos:
        memo.cache_clear()
    assert script.main(["--out-dir", str(cold)]) == 0
    capsys.readouterr()
    assert _read_csvs(cold) == _read_csvs(warm)
