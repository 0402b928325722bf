import contextlib
import dataclasses
import importlib
import io
import os
import pkgutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrcache
from corrcache import ExperimentSpec, LibraryConfig, __version__, cli, scheduling
from corrcache.cli import main, rate_row
from corrcache.model import exact_sizes_from_ratios
from corrcache.scheduling import EXAMPLE1_TEXT


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_simulate_pinned_example(capsys):
    rc, out, _ = run_cli(
        capsys,
        "simulate", "--n", "5", "--k", "5", "--demands", "1,2,3,4,5",
        "--level-sizes", "0,10000", "--fixture", "example1",
    )
    assert rc == 0
    assert "total_bits=72000" in out
    assert "rate=1.8" in out
    assert "step_counts=9,9,9,9" in out
    assert "decode=ok" in out


def test_simulate_repeated_demands(capsys):
    rc, out, _ = run_cli(
        capsys,
        "simulate", "--n", "5", "--k", "5", "--demands", "1,1,1,3,4",
        "--level-sizes", "0,10000", "--fixture", "example1",
    )
    assert rc == 0
    assert "total_bits=60000" in out
    assert "step_counts=7,9,7,7" in out


def test_simulate_other_schemes(capsys):
    rc, out, _ = run_cli(
        capsys,
        "simulate", "--n", "3", "--k", "3", "--demands", "1,2,3",
        "--level-sizes", "6,6,6", "--scheme", "cauc", "--t", "1,1,1",
    )
    assert rc == 0 and "decode=ok" in out
    rc, out, _ = run_cli(
        capsys,
        "simulate", "--n", "3", "--k", "3", "--demands", "1,2,3",
        "--level-sizes", "6,6,6", "--scheme", "cicc", "--m", "1",
    )
    assert rc == 0 and "decode=ok" in out


def test_simulate_cauc_with_capacity_uses_whole_bit_uncoded_prefixes(capsys):
    """--scheme cauc with --m and no --t takes the uncoded optimum with its
    2.4-bit level-1 prefix rounded down to 2 bits: levels 2 and 3 are cached
    whole, and each demanded level-1 subfile sends its other 4 bits."""
    rc, out, _ = run_cli(
        capsys,
        "simulate", "--n", "3", "--k", "3", "--level-sizes", "6,6,6",
        "--m", "1.3", "--scheme", "cauc", "--demands", "1,2,3",
    )
    assert rc == 0 and "decode=ok" in out
    assert "per_level_bits=1:12;2:0;3:0" in out


def test_simulate_reports_a_decode_fault_and_exits_1(capsys, monkeypatch):
    """User 1's cache loses one bit of subfile {1}, so its decode raises.
    simulate still prints every result line, with decode=FAILED, reports
    the user on stderr and exits 1 (a decode failure, not a usage error)."""
    place = cli.place

    def place_dropping_a_bit(*args, **kwargs):
        caches = place(*args, **kwargs)
        item = 0b001
        mask = caches[0].known_masks[item]
        caches[0].known_masks[item] = mask & (mask - 1)
        caches[0].known_bits[item] &= mask & (mask - 1)
        return caches

    monkeypatch.setattr(cli, "place", place_dropping_a_bit)
    rc, out, err = run_cli(
        capsys,
        "simulate", "--n", "3", "--k", "3", "--level-sizes", "6,6,6",
        "--t", "1,1,1", "--demands", "1,2,3",
    )
    assert rc == 1
    lines = out.splitlines()
    assert [line.partition("=")[0] for line in lines[1:]] == [
        "demands", "total_bits", "rate", "step_counts", "per_level_bits", "decode",
    ]
    assert lines[-1] == "decode=FAILED"
    assert err.splitlines() == [
        "violation: user 1 decode raised "
        "RuntimeError('user 1 cannot reconstruct subfile {1}')"
    ]


def test_rates_requires_capacity(capsys):
    rc, _, err = run_cli(
        capsys, "rates", "--n", "2", "--k", "2", "--level-sizes", "4,4"
    )
    assert rc == 2
    assert "error:" in err


def test_rates_table(capsys):
    rc, out, _ = run_cli(
        capsys,
        "rates", "--n", "10", "--k", "10", "--m", "1", "--ratios", "1",
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# n=10 k=10 m=1")
    assert lines[1] == "r_cauc,r_cacc,r_cicc,r_cutset"
    vals = dict(zip(lines[1].split(","), map(float, lines[2].split(","))))
    assert vals["r_cicc"] == pytest.approx(4.5)
    assert vals["r_cutset"] <= min(vals.values()) + 1e-9


def test_optimize_listing(capsys):
    rc, out, _ = run_cli(
        capsys,
        "optimize", "--n", "5", "--k", "5", "--m", "1",
        "--level-sizes", "0,10000",
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[2] == "level,fraction,t"
    assert len(lines) == 3 + 5
    level2 = lines[4].split(",")
    assert level2[0] == "2" and float(level2[2]) > 0


def test_sweep_schema_and_determinism(capsys, tmp_path):
    args = ("sweep", "--n", "4", "--k", "4", "--m", "1", "--sweep-level", "2")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    text = a.read_text()
    assert text == b.read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# n=4 k=4 m=1")
    assert lines[1] == "x,r_cauc,r_cacc,r_cicc,r_cutset"
    rows = [list(map(float, ln.split(","))) for ln in lines[2:]]
    assert len(rows) == 11
    assert rows[0][0] == 0.0 and rows[-1][0] == 1.0
    cicc_col = {r[3] for r in rows}
    assert max(cicc_col) - min(cicc_col) < 1e-9  # structure-blind scheme is flat
    for r in rows:
        assert r[4] <= min(r[1:4]) + 1e-9


def test_sweep_custom_grid(capsys):
    rc, out, _ = run_cli(
        capsys,
        "sweep", "--n", "3", "--k", "3", "--m", "1", "--grid", "0,0.5,1",
    )
    assert rc == 0
    assert len(out.strip().split("\n")) == 2 + 3


def test_sweep_capacity_axis(capsys):
    """A library flag and no --m sweep capacity: the default grid is N*i/10
    files, and each row is the rate row of that capacity."""
    rc, out, err = run_cli(capsys, "sweep", "--n", "4", "--k", "3", "--ratios", "0.5,0.5")
    assert rc == 0, err
    lines = out.strip().split("\n")
    assert lines[0] == "# n=4 k=3 ratios=0.5:level1,0.5:level2 file_bits=100000 points=11"
    assert lines[1] == "m,r_cauc,r_cacc,r_cicc,r_cutset"
    sizes = exact_sizes_from_ratios(4, (0.5, 0.5, 0, 0), 100_000)
    for i, line in enumerate(lines[2:]):
        m = 4 * i / 10
        want = (m, *rate_row(LibraryConfig(4, 3, m, sizes)))
        assert line == ",".join(f"{v:.10g}" for v in want)
    assert len(lines) == 2 + 11

    rc, out, _ = run_cli(
        capsys, "sweep", "--n", "2", "--k", "2", "--level-sizes", "6,6", "--grid", "0,1"
    )
    assert rc == 0
    assert out.split("\n")[:2] == [
        "# n=2 k=2 level_sizes=6,6 points=2",
        "m,r_cauc,r_cacc,r_cicc,r_cutset",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--m", "1", "--ratios", "0.5,0.5"),
        ("sweep", "--m", "1", "--level-sizes", "4,4"),
        ("sweep",),
        ("simulate", "--level-sizes", "6,6", "--file-bits", "5", "--demands", "1,2"),
        ("sweep", "--ratios", "0.5,0.5", "--sweep-level", "2"),
        ("rates", "--m", "1", "--level-sizes", "6,6", "--ratios", "0.9,0.1", "--file-bits", "5"),
        ("rates", "--m", "1", "--level-sizes", "6,6", "--ratios", "0.9,0.1"),
        ("optimize", "--m", "1", "--level-sizes", "6,6", "--file-bits", "5"),
        ("verify", "--level-sizes", "6,6", "--ratios", "0.5,0.5", "--t", "1,1"),
        ("sweep", "--level-sizes", "6,6", "--file-bits", "5"),
    ],
)
def test_flags_that_would_be_ignored_exit_2(capsys, argv):
    """A flag that cannot change the output is refused, not dropped."""
    rc, out, err = run_cli(capsys, argv[0], "--n", "2", "--k", "2", *argv[1:])
    assert rc == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["rates", "optimize", "sweep"])
def test_formula_commands_take_no_seed(capsys, command):
    """No formula-only command takes --seed: argparse refuses it (exit 2).
    The sweep's library flags pick the capacity axis, which draws nothing
    at random either."""
    library = ["--m", "1", "--level-sizes", "6,6"]
    if command == "sweep":
        library = ["--ratios", "0.5,0.5"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "2", "--k", "2", *library, "--seed", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_clean_grid(capsys):
    rc, out, _ = run_cli(
        capsys,
        "verify", "--n", "3", "--k", "3", "--m", "1",
        "--level-sizes", "6,6,6", "--t", "1,1,1",
    )
    assert rc == 0
    assert "violations=0" in out
    assert "demand,measured_rate,formula_rate,decode_ok" in out
    assert out.count("\n") >= 3 + 27


def test_verify_prints_formula_gap(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", "--n", "2", "--k", "4", "--level-sizes", "6000,0", "--t", "1,0",
    )
    assert rc == 0
    assert "# max_rate=1.25 argmax=1-1-1-2 gap=0.25 violations=0" in out


K9_SIMULATE = (
    "simulate", "--n", "9", "--k", "9", "--level-sizes", "0,0,252",
    "--t", "0,0,1", "--demands", "1,2,3,4,5,6,7,8,9",
)


def test_simulate_nine_users_finishes_and_decodes(capsys):
    """Window 9 with blocks of 3 needs hundreds of budgeted schedule
    attempts; the command still finishes and every user decodes."""
    rc, out, _ = run_cli(capsys, *K9_SIMULATE)
    assert rc == 0
    assert out.splitlines()[-1] == "decode=ok"


def test_simulate_sparse_twenty_file_library(capsys):
    """Twenty files whose only bits are the level-1 subfiles: placement,
    delivery and decode see only the twenty nonempty subfiles."""
    rc, out, _ = run_cli(
        capsys,
        "simulate", "--n", "20", "--k", "2", "--level-sizes", "6", "--demands", "1,2",
    )
    assert rc == 0
    assert out.splitlines()[-1] == "decode=ok"


def test_schedule_out_of_attempts_exits_2(capsys, monkeypatch):
    """The same command with one schedule attempt: the first attempt
    dead-ends, so simulate reports the shape and exits 2, no traceback."""
    monkeypatch.setattr(scheduling, "_ATTEMPTS", 1)
    rc, out, err = run_cli(capsys, *K9_SIMULATE)
    assert rc == 2 and out == ""
    assert err.splitlines() == [
        "error: no schedule found for window=(1, 2, 3, 4, 5, 6, 7, 8, 9) "
        "fixed=() level=3"
    ]


def test_usage_errors_exit_2(capsys):
    # demanded file index outside the library
    rc, _, err = run_cli(
        capsys,
        "simulate", "--n", "2", "--k", "2", "--demands", "1,9",
        "--level-sizes", "4,4",
    )
    assert rc == 2 and "error:" in err
    # wrong demand count
    rc, _, _ = run_cli(
        capsys,
        "simulate", "--n", "5", "--k", "5", "--demands", "1,2",
        "--level-sizes", "0,10000",
    )
    assert rc == 2
    # no sizes at all
    rc, _, _ = run_cli(capsys, "rates", "--n", "2", "--k", "2", "--m", "1")
    assert rc == 2


def test_non_finite_share_exits_2(capsys):
    """A NaN share is an error, not a silent share of 0."""
    rc, out, err = run_cli(
        capsys, "verify", "--n", "2", "--k", "2", "--level-sizes", "6,6", "--t", "1,nan",
    )
    assert rc == 2 and out == ""
    assert "error:" in err and "nan" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_ratio_exits_2(capsys, bad):
    """A NaN or infinite ratio is named in the error, not reported as a
    failed integer conversion further down."""
    rc, out, err = run_cli(
        capsys, "rates", "--n", "3", "--k", "3", "--m", "1", "--ratios", f"{bad},0.5,0.5",
    )
    assert rc == 2 and out == ""
    assert "error: ratios must be finite" in err


@pytest.mark.parametrize(
    "text, violation",
    [
        # member 1 recovers {1,2} in columns 1 and 2 and never sees {1,5}
        (EXAMPLE1_TEXT.replace("1,5 2,3 2,3", "1,2 2,3 2,3"), "member 1: coverage broken"),
        (EXAMPLE1_TEXT.replace("# level: 2", "# level: 9"), "blocks of 9"),
    ],
    ids=["repeated-subfile", "bad-level"],
)
def test_invalid_fixture_exits_2_naming_the_violation(capsys, tmp_path, text, violation):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    rc, out, err = run_cli(
        capsys,
        "simulate", "--n", "5", "--k", "5", "--demands", "1,2,3,4,5",
        "--level-sizes", "0,10000", "--fixture", str(path),
    )
    assert rc == 2
    assert out == ""
    assert "error: invalid schedule" in err and violation in err


_FIVE_FILES = ("--n", "5", "--k", "5", "--level-sizes", "0,100", "--t", "0,1",
               "--demands", "1,2,3,4,5")


@pytest.mark.parametrize(
    "argv, reason",
    [
        ((*_FIVE_FILES, "--scheme", "cauc"), "needs scheme cacc, not cauc"),
        ((*_FIVE_FILES, "--scheme", "cicc"), "needs scheme cacc, not cicc"),
        (("--n", "3", "--k", "3", "--level-sizes", "0,60", "--t", "0,1",
          "--demands", "1,2,3"), "is not 3 files inside 1..3"),
        (("--n", "5", "--k", "5", "--level-sizes", "10,0", "--t", "1",
          "--demands", "1,2,3,4,5"), "level 2 has no delivered sublayer"),
    ],
    ids=["cauc", "cicc", "window-outside-library", "level-not-delivered"],
)
def test_fixture_no_step_can_use_exits_2(capsys, argv, reason):
    """A fixture that no coded step would use is an error, not a silent
    no-op."""
    rc, out, err = run_cli(capsys, "simulate", *argv, "--fixture", "example1")
    assert rc == 2
    assert out == ""
    assert "error:" in err and reason in err


def test_fixture_fixed_part_outside_library_exits_2(capsys, tmp_path):
    """A valid level-3 schedule whose fixed part is file 6 cannot serve a
    five-file library."""
    lines = EXAMPLE1_TEXT.replace("# fixed: -", "# fixed: 6").replace(
        "# level: 2", "# level: 3"
    ).splitlines()
    columns = [" ".join(e + ",6" for e in line.split()) for line in lines[3:]]
    path = tmp_path / "fixed6.txt"
    path.write_text("\n".join(lines[:3] + columns) + "\n")
    rc, out, err = run_cli(
        capsys,
        "simulate", "--n", "5", "--k", "5", "--level-sizes", "0,0,100",
        "--t", "0,0,1", "--demands", "1,2,3,4,5", "--fixture", str(path),
    )
    assert rc == 2
    assert out == ""
    assert "fixed part (6,) lies outside 1..5" in err


def test_ratio_rounding_to_zero_bits_is_an_error(capsys):
    """Level 2's half of the library is below one divisibility unit (27720
    bits at K=12); dropping it silently would change the library."""
    rc, _, err = run_cli(
        capsys,
        "simulate", "--n", "4", "--k", "12", "--ratios", "0.5,0.5", "--m", "1",
        "--demands", "1,2,3,4,1,2,3,4,1,2,3,4", "--file-bits", "100000",
    )
    assert rc == 2
    assert "error:" in err and "level 2" in err


def test_rates_uses_exact_sizes_like_sweep(capsys):
    """Formula-only commands keep exact sizes: level 2's half of a 1000-bit
    file is below the divisibility unit, yet the rates are well defined and
    match the sweep's row for the same library."""
    rc, out, err = run_cli(
        capsys,
        "rates", "--n", "10", "--k", "10", "--m", "1", "--ratios", "0.5,0.5",
        "--file-bits", "1000",
    )
    assert rc == 0, err
    lines = out.strip().split("\n")
    vals = dict(zip(lines[1].split(","), map(float, lines[2].split(","))))
    # the sweep's row at x = 0.5: ratio 0.5 on level 2, 1 - 0.5 on level 1
    sizes = exact_sizes_from_ratios(10, (0.5, 0.5) + (0.0,) * 8, 1000)
    row = rate_row(LibraryConfig(10, 10, 1.0, sizes))
    assert vals["r_cacc"] == pytest.approx(row[1], rel=1e-9)
    rc, _, err = run_cli(
        capsys,
        "optimize", "--n", "10", "--k", "10", "--m", "1", "--ratios", "0.5,0.5",
        "--file-bits", "1000",
    )
    assert rc == 0, err


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--n", "0", "--k", "4", "--m", "1"),
        ("simulate", "--n", "4", "--k", "0", "--t", "0,0", "--level-sizes", "1,1",
         "--demands", "1"),
        ("verify", "--n", "2", "--k", "0", "--level-sizes", "4,4"),
    ],
    ids=["sweep-n0", "simulate-k0", "verify-k0"],
)
def test_no_files_or_no_users_exit_2(capsys, argv):
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 2
    assert "error:" in err


def test_missing_subcommand_is_parser_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [
            sys.executable, "-m", "corrcache.cli",
            "simulate", "--n", "5", "--k", "5", "--demands", "1,2,3,4,5",
            "--level-sizes", "0,10000", "--fixture", "example1",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        # the child imports the same package as this process
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(corrcache.__file__))},
    )
    assert proc.returncode == 0
    assert "total_bits=72000" in proc.stdout


def test_package_imports_without_numpy():
    """Every submodule imports with numpy unavailable: no runtime dependency."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(corrcache.__file__)))
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['numpy'] = None\n"
        f"sys.path.insert(0, {src!r})\n"
        "import corrcache\n"
        "for mod in pkgutil.iter_modules(corrcache.__path__):\n"
        "    importlib.import_module('corrcache.' + mod.name)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


REMOVED_API = (
    "UncodedRecord", "SubfileId", "DemandVector", "step_demands", "pool_subfiles",
    "compare_schemes", "RatePoint", "window_for", "remainder_delivery",
    "cauc_place", "cicc_place", "cicc_deliver", "schedule_to_text", "rounding_loss_bits",
    "SweepResult", "run_sweep",
)


def test_public_api_resolves_and_removed_names_are_gone():
    namespace = {}
    exec("from corrcache import *", namespace)
    assert set(corrcache.__all__) <= set(namespace)
    modules = [corrcache] + [
        importlib.import_module("corrcache." + mod.name)
        for mod in pkgutil.iter_modules(corrcache.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
        for name in REMOVED_API:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(corrcache.CacheAllocation, "replication")
    assert not hasattr(corrcache.ContentStore, "subfile_bits")
    fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
    assert not fields & {"seed", "sweep_level", "grid"}


# ---------------------------------------------------------------------------
# random flag sets never traceback

def _csv(elements, max_size=5):
    return st.lists(elements, max_size=max_size).map(lambda xs: ",".join(map(str, xs)))


_NUMBER_TEXT = st.sampled_from(["nan", "inf", "-inf", "1e9", "x"])
_FLAG_VALUES = {
    "--m": st.one_of(st.floats(-1.0, 6.0).map(repr), _NUMBER_TEXT),
    "--ratios": st.one_of(
        _csv(st.floats(0.0, 1.0)), _csv(st.sampled_from([0, 0.5, 1]))
    ),
    "--level-sizes": _csv(st.integers(-2, 10_000)),
    "--file-bits": st.integers(-5, 10_000).map(str),
    "--seed": st.integers(-3, 10**6).map(str),
    "--t": _csv(st.floats(-1.0, 5.0)),
    "--demands": _csv(st.integers(-1, 5), max_size=6),
    "--scheme": st.sampled_from(["cacc", "cauc", "cicc"]),
    "--fixture": st.sampled_from(["example1", "no-such-schedule.txt"]),
    "--sweep-level": st.integers(-1, 5).map(str),
    "--grid": _csv(st.floats(-0.5, 1.5), max_size=4),
}
_COMMAND_FLAGS = {
    "rates": ("--m", "--ratios", "--level-sizes", "--file-bits"),
    "optimize": ("--m", "--ratios", "--level-sizes", "--file-bits"),
    "simulate": (
        "--m", "--ratios", "--level-sizes", "--file-bits", "--seed", "--t",
        "--demands", "--scheme", "--fixture",
    ),
    "verify": (
        "--m", "--ratios", "--level-sizes", "--file-bits", "--seed", "--t", "--scheme",
    ),
    "sweep": (
        "--m", "--ratios", "--level-sizes", "--file-bits", "--sweep-level", "--grid",
    ),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command]
    for flag, value in (("--n", st.integers(-1, 4)), ("--k", st.integers(-1, 4))):
        if draw(st.integers(0, 9)):  # occasionally leave a required flag out
            argv += [flag, str(draw(value))]
    for flag in _COMMAND_FLAGS[command]:
        if draw(st.booleans()):
            argv += [flag, draw(_FLAG_VALUES[flag])]
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_cli_never_tracebacks(argv):
    """Any flag set gives exit 0, 1 or 2; the only exception allowed out of
    main is argparse's own SystemExit(2)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return
    assert rc in (0, 1, 2), argv
    if rc == 2:
        assert "error:" in err.getvalue(), argv
