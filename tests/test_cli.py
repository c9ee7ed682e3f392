"""Command line interface: flag handling, config merge, exit codes, CSV output."""

import contextlib
import csv
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ocmg.cli as cli
from ocmg.grid import GridSpec
from ocmg.problems import load_field
from ocmg.smoothers import PcgBreakdownError
from ocmg.ssn import SolverError, SsnResult


def run_cli(argv):
    """main() plus the SystemExit that argparse raises on bad usage."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


# ----------------------------------------------------------------- lfa

def test_lfa_reports_closed_and_sampled(capsys):
    code = run_cli(["lfa", "--scheme", "cjr", "--q", "2",
                    "--alpha", "1e-6", "--h", "0.00390625"])
    out = capsys.readouterr().out
    assert code == 0
    lines = {ln.split(":")[0]: ln for ln in out.splitlines()}
    closed = lines["closed-form"]
    sampled = lines["sampled"]
    mu_c = float(closed.split("mu=")[1].split()[0])
    mu_s = float(sampled.split("mu=")[1].split()[0])
    om_c = float(closed.split("omega=")[1].split()[0])
    om_s = float(sampled.split("omega=")[1].split()[0])
    assert mu_c == pytest.approx(0.6, abs=1e-3)
    assert mu_s == pytest.approx(mu_c, abs=1e-3)
    assert om_s == pytest.approx(om_c, abs=1e-3)
    assert "theta=" in sampled


def test_lfa_rejects_ibsr():
    assert run_cli(["lfa", "--scheme", "ibsr"]) == 1


def test_lfa_csv_output(tmp_path):
    out = tmp_path / "lfa.csv"
    code = run_cli(["lfa", "--scheme", "bsr", "--q", "3", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["scheme"] == "bsr"
    assert float(rows[0]["mu_closed"]) == pytest.approx(17.0 / 47.0, abs=1e-12)
    assert abs(float(rows[0]["mu_sampled"]) - 17.0 / 47.0) < 1e-3


def test_lfa_rejects_bad_q():
    assert run_cli(["lfa", "--q", "5"]) == 1


# ------------------------------------------------------------------ mg

def test_mg_writes_history_csv(tmp_path):
    out = tmp_path / "hist.csv"
    code = run_cli(["mg", "--scheme", "ibsr", "--q", "2", "--N", "32",
                    "--alpha", "1e-4", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["iter"] == "0"
    assert float(rows[0]["rel_residual"]) == 1.0
    assert float(rows[-1]["rel_residual"]) <= 1e-10
    # residual norms are written with full precision, not display rounding
    assert len(rows[1]["residual_norm"].replace(".", "").lstrip("0")) > 10


def test_mg_indivisible_grid_is_a_validation_error(capsys):
    code = run_cli(["mg", "--N", "255", "--q", "2"])
    assert code == 1
    assert "255" in capsys.readouterr().err


@pytest.mark.parametrize("N, q, scheme", [("50", "2", "cjr"), ("75", "3", "cjr"),
                                          ("100", "4", "bsr")])
def test_mg_coarsening_to_a_grid_above_n24_converges(capsys, N, q, scheme):
    # the level chain stops at N=25, which the coarse row-block LU solves directly
    code = run_cli(["mg", "--N", N, "--q", q, "--scheme", scheme])
    assert code == 0
    assert "converged=True" in capsys.readouterr().out


def test_package_has_no_dense_oracle_and_mg_and_ssn_run():
    # the dense oracle lives in tests/, so no solver path can load it
    code = (
        "import importlib.util\n"
        "from ocmg import cli\n"
        "assert importlib.util.find_spec('ocmg.oracle') is None, 'ocmg ships an oracle'\n"
        "assert cli.main(['mg', '--N', '16']) == 0\n"
        "assert cli.main(['ssn', '--N', '16']) == 0\n")
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)


def test_mg_unreached_tolerance_exits_2_but_writes_history(tmp_path):
    out = tmp_path / "hist.csv"
    code = run_cli(["mg", "--scheme", "cjr", "--q", "3", "--N", "27",
                    "--tol", "1e-30", "--out", str(out)])
    assert code == 2
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 101  # initial residual plus the full iteration budget


def _field_config(tmp_path, f_value: str) -> str:
    """Config for an N=16 mg solve from field files: f = f_value, g = 0."""
    N = 16
    for name, value in (("f", f_value), ("g", "0")):
        lines = [f"N {N}"] + [f"{i} {j} {value}" for j in range(1, N)
                              for i in range(1, N)]
        (tmp_path / f"{name}.txt").write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "fields.cfg"
    cfg.write_text(f"N = {N}\nf_file = {tmp_path / 'f.txt'}\n"
                   f"g_file = {tmp_path / 'g.txt'}\n")
    return str(cfg)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_mg_non_finite_data_is_a_validation_error(tmp_path, capsys, value):
    code = run_cli(["mg", "--config", _field_config(tmp_path, value)])
    assert code == 1
    assert "non-finite" in capsys.readouterr().err


def test_mg_data_whose_norm_overflows_is_a_validation_error(tmp_path, capsys):
    # field files of 1.7e308 and the example data at alpha=1e-308 (f holds
    # p*/alpha ~ 1e308) both used to pass as data and fail as a solve
    for argv in (["mg", "--config", _field_config(tmp_path, "1.7e308")],
                 ["mg", "--N", "16", "--alpha", "1e-308"]):
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ocmg: f has no finite norm")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["mg", "ssn"])
@pytest.mark.parametrize("key", ["f_file", "g_file"])
def test_a_config_with_one_field_file_is_a_validation_error(tmp_path, capsys, command, key):
    _field_config(tmp_path, "1")
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"N = 16\n{key} = {tmp_path / (key[0] + '.txt')}\n")
    assert run_cli([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ocmg: f_file and g_file must be given together\n"


def test_data_whose_residual_norm_passes_2_1023_is_solved(tmp_path, capsys):
    # a residual norm in [2^1023, DBL_MAX] has no power-of-two scale that
    # takes it to [1/2, 1): 2.0 ** 1024 raised OverflowError out of main
    for argv in (["mg", "--config", _field_config(tmp_path, "1e307")],
                 ["mg", "--N", "16", "--alpha", "1e-307"],
                 ["ssn", "--N", "16", "--alpha", "1e-307"]):
        assert run_cli(argv) == 0
        captured = capsys.readouterr()
        assert "converged=True" in captured.out
        assert captured.err == ""


def test_mg_overflowing_residual_exits_2_without_cycling(tmp_path, capsys):
    # data of a finite norm whose residual norm overflows (A v holds
    # p/alpha ~ 1e308): the solve must stop before cycling, instead of
    # handing inf/NaN to the coarse LAPACK solve
    out = tmp_path / "hist.csv"
    code = run_cli(["mg", "--config", _field_config(tmp_path, "1"),
                    "--alpha", "1e-308", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert "converged=False iters=0" in captured.out
    assert "not finite" in captured.err
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["iter"] for r in rows] == ["0"]
    assert rows[0]["residual_norm"] == "inf"


def test_mg_field_file_header_is_checked_before_allocating(tmp_path, capsys):
    # the header N=1e9 used to size an (N-1)^2 array before N was compared,
    # which died in numpy with a traceback
    cfg = _field_config(tmp_path, "1")
    (tmp_path / "f.txt").write_text("N 1000000000\n1 1 1\n")
    assert run_cli(["mg", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"ocmg: {tmp_path / 'f.txt'}:1: expected the header "
                            "'N 16': 'N 1000000000'\n")


def test_mg_config_matches_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme = ibsr\nN = 32\nalpha = 1e-4  # trailing comment\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_cli(["mg", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert run_cli(["mg", "--scheme", "ibsr", "--N", "32", "--alpha", "1e-4",
                    "--out", str(out_b)]) == 0
    assert out_a.read_text() == out_b.read_text()


def test_mg_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme = ibsr\nN = 32\nalpha = 1e-4\n")
    code = run_cli(["mg", "--config", str(cfg), "--scheme", "bsr"])
    assert code == 0
    assert "scheme=bsr" in capsys.readouterr().out


def test_config_rejects_unknown_key(tmp_path, capsys):
    # a key the command does not take is an error, not silently ignored
    cfg = tmp_path / "bad.cfg"
    for argv, key, value in [(["mg"], "bogus", "1"),
                             (["lfa"], "N", "16"),
                             (["lfa"], "cycle", "X"),
                             (["lfa"], "f_file", "/nonexistent"),
                             (["mg", "--N", "16"], "beta", "-5"),
                             (["mg", "--N", "16"], "u0", "7"),
                             (["ssn", "--N", "16"], "h", "0.1")]:
        cfg.write_text(f"{key} = {value}\n")
        assert run_cli(argv + ["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"bad.cfg:1: unknown key {key!r} for ocmg {argv[0]}" in err


def test_config_rejects_a_repeated_key(tmp_path, capsys):
    # the later value used to win without a word
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("N = 16\nnu = 1\n# nu = 2\nnu = 3\n")
    assert run_cli(["mg", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ocmg: {cfg}:4: duplicate key 'nu'\n"


def test_config_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scheme ibsr\n")
    assert run_cli(["mg", "--config", str(cfg)]) == 1


def test_mg_rejects_nonsense_values():
    assert run_cli(["mg", "--nu", "0", "--N", "32"]) == 1
    assert run_cli(["mg", "--alpha", "-1", "--N", "32"]) == 1
    assert run_cli(["mg", "--cycle", "X", "--N", "32"]) == 1


def _config(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return str(cfg)


@pytest.mark.parametrize("argv", [
    ["mg", "--N", "16", "--alpha", "nan"],
    ["mg", "--N", "16", "--tol", "nan"],
    ["mg", "--N", "16", "--tol", "-1"],
    ["mg", "--N", "16", "--tol", "inf"],
    ["mg", "--N", "16", "--alpha", "1e-320"],
    ["ssn", "--N", "16", "--alpha", "1e-320"],
    ["ssn", "--N", "16", "--beta", "nan"],
    ["lfa", "--h", "nan"],
    ["lfa", "--h", "1e5", "--alpha", "1e-300"],
    ["lfa", "--h", "1e-80"],
    ["lfa", "--h", "1e-200"],
])
def test_bad_values_exit_1_with_one_message_line(capsys, argv):
    # NaN passes "x <= 0" checks; 1e-320 is positive but 1/alpha overflows;
    # h = 1e-80 printed mu=nan and exited 0, h = 1e-200 raised a traceback
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ocmg: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command, text", [
    ("lfa", "scheme = ibsr\n"),
    ("mg", "cycle = X\nN = 16\n"),
    ("mg", "scheme = foo\nN = 16\n"),
    ("mg", "pcg_iters = 0\nN = 16\n"),
    ("ssn", "q = 5\nN = 16\n"),
])
def test_bad_config_values_are_rejected_by_the_library_types(tmp_path, capsys,
                                                             command, text):
    assert run_cli([command, "--config", _config(tmp_path, text)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ocmg: ") and captured.err.count("\n") == 1


def test_config_value_outside_a_flags_choices_is_refused_as_it_is_read(tmp_path,
                                                                        capsys):
    # a config scheme LFA lacks used to pass the reader and fail in the
    # analysis, after --out was opened, leaving an empty CSV behind
    out = tmp_path / "x.csv"
    for command, key, value in (("lfa", "scheme", "ibsr"), ("mg", "cycle", "X")):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ocmg: {cfg}:1: bad value for {key!r}: {value!r}\n"


# the numeric options of each command (lfa, mg and ssn; repro takes none)
_NUMERIC = [(command, key) for command, (_, flags, _) in cli._COMMANDS.items()
            for key in flags if cli._OPTIONS[key] in (int, float)]
_EDGE_VALUES = ("0", "-0.0", "5e-324", "1e300", "-1e300", "1e-300", "-1e-300",
                "inf", "-inf", "nan", "-1e3", "-1.5E-4", "-1")
_REFUSED = "refused"


def _read_flag(command, key, value):
    """opts[key] after `ocmg command --key value`, or _REFUSED for exit 1."""
    try:
        args = cli.build_parser().parse_args([command, "--" + key.replace("_", "-"), value])
    except SystemExit as exc:
        assert exc.code == 1
        return _REFUSED
    return cli._merge(args)[key]


def _read_config(command, key, value):
    """opts[key] after `ocmg command --config c` with the line `key = value`, or
    _REFUSED for the ValueError that main turns into exit 1."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        try:
            return cli._merge(cli.build_parser().parse_args([command, "--config", str(cfg)]))[key]
        except ValueError:
            return _REFUSED


@settings(max_examples=150, deadline=None)
@given(option=st.sampled_from(_NUMERIC),
       value=st.one_of(st.sampled_from(_EDGE_VALUES), st.floats().map(repr),
                       st.floats().map(lambda x: "%e" % x), st.integers().map(str)))
@example(option=("ssn", "u0"), value="-1e3")
def test_a_flag_and_a_config_line_read_a_value_the_same_way(option, value):
    # parse only, no solve: `--u0 -1e3` was refused as a flag ("expected one
    # argument") while `u0 = -1e3` read -1000.0; repr tells -0.0 from 0.0 and
    # reads every NaN alike
    command, key = option
    assert repr(_read_flag(command, key, value)) == repr(_read_config(command, key, value))


# the values a run draws for each option: ints from small ranges plus invalid
# ones, N at most 32 so no draw starts large work, floats from the edge pool
_RUN_VALUES = {"q": ("2", "3", "4", "0", "-1"), "nu": ("1", "2", "3", "0", "-1"),
               "pcg_iters": ("1", "2", "3", "0", "-1"), "seed": ("0", "7", "-1"),
               "cycle": ("V", "W")}
_FLOAT_EDGES = ("0", "-0.0", "5e-324", "1e300", "-1e300", "1e-300", "-1e-300",
                "inf", "-inf", "nan", "-1e3", "-1")
# the keys of each command's documented first line of output
_FIRST_LINE = {"lfa": ["scheme", "q", "alpha", "h"],
               "mg": ["scheme", "q", "N", "alpha", "cycle", "nu"],
               "ssn": ["scheme", "q", "N", "alpha", "beta", "u0", "u1", "cycle", "nu"]}


@st.composite
def _command_lines(draw):
    """(command, {key: value}) for lfa, mg or ssn; N is always set, to 16 or 32."""
    command = draw(st.sampled_from(sorted(_FIRST_LINE)))
    _, flags, choices = cli._COMMANDS[command]
    opts = {}
    for key in flags:
        if key == "N":
            opts[key] = draw(st.sampled_from(("16", "32")))
        elif key != "out" and draw(st.booleans()):
            opts[key] = draw(st.sampled_from(choices.get(key) or _RUN_VALUES.get(key)
                                             or _FLOAT_EDGES))
    return command, opts


@settings(max_examples=60, deadline=None)
@given(line=_command_lines(), with_out=st.booleans())
def test_every_command_line_keeps_the_exit_contract(line, with_out):
    # each value goes once as a flag and once as a config line: exit 0, 1 or
    # 2 with no exception, the same code both ways, no --out file left by
    # exit 1, and the documented first line on exit 0
    command, opts = line
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if with_out:
            opts = dict(opts, out=str(out))
        cfg = Path(tmp) / "c.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in opts.items()))
        flags = [arg for key, value in opts.items()
                 for arg in ("--" + key.replace("_", "-"), value)]
        codes = []
        for argv in ([command] + flags, [command, "--config", str(cfg)]):
            with contextlib.redirect_stdout(io.StringIO()) as stdout, \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)  # any exception, SystemExit too, fails the test
            assert code in (0, 1, 2)
            if code == 1:
                assert not out.exists()
            if code == 0:
                first = stdout.getvalue().splitlines()[0]
                assert [tok.split("=")[0] for tok in first.split()] == _FIRST_LINE[command]
                want = cli._merge(cli.build_parser().parse_args(argv))
                assert first.startswith(f"scheme={want['scheme']} q={want['q']} ")
            if out.is_dir():
                shutil.rmtree(out)
            elif out.exists():
                out.unlink()
            codes.append(code)
        assert codes[0] == codes[1]


def test_a_negative_value_in_scientific_notation_reaches_the_library(capsys):
    assert _read_flag("ssn", "u0", "-1e3") == -1000.0
    assert run_cli(["mg", "--N", "16", "--alpha", "-1e-3"]) == 1
    assert capsys.readouterr().err.startswith("ocmg: alpha must be positive")


def test_negative_seed_is_rejected_by_name(capsys):
    # it used to exit 1 with numpy's bare "expected non-negative integer"
    assert run_cli(["mg", "--N", "16", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "ocmg: seed must be nonnegative, got -1\n"


def test_unset_values_take_the_library_defaults(capsys):
    assert run_cli(["mg", "--N", "16"]) == 0
    spec = cli.CycleSpec()
    assert f"cycle={spec.cycle} nu={spec.nu_pre}\n" in capsys.readouterr().out
    assert run_cli(["ssn", "--N", "16"]) == 0
    assert f"cycle={spec.cycle} nu=2\n" in capsys.readouterr().out


# ----------------------------------------------------------------- ssn

def test_ssn_dumps_fields_and_reports_sparsity(tmp_path, capsys):
    out = tmp_path / "fields"
    code = run_cli(["ssn", "--scheme", "ibsr", "--q", "2", "--N", "32",
                    "--alpha", "1e-4", "--beta", "1e-2", "--out", str(out)])
    assert code == 0
    report = capsys.readouterr().out
    assert "converged=True" in report
    zero = float(report.split("zero_fraction=")[1].split()[0])
    assert 0.0 <= zero <= 1.0
    grid = GridSpec(32)
    for name in ("y", "p", "u"):
        assert np.all(np.isfinite(load_field(out / f"{name}.txt", grid)))
    u = load_field(out / "u.txt", grid)
    # report prints six decimals
    assert np.mean(u == 0.0) == pytest.approx(zero, abs=5e-7)


@pytest.mark.parametrize("argv, start", [
    (["--N", "32"], "start=coarse N=16 newton_iters=3 jacobian_mg_iters=3,3,3\n"),
    (["--N", "16"], "start=seed (N=8 has no coarser grid)\n"),
    (["--N", "32", "--scheme", "bsr", "--alpha", "1e-8"],
     "start=seed (the coarse stage on N=16 failed: no convergence in 50 iterations"),
])
def test_ssn_reports_which_start_the_newton_loop_took(argv, start, capsys):
    assert run_cli(["ssn"] + argv) == 0
    report = capsys.readouterr().out
    assert report.count("start=") == 1 and start in report


def test_ssn_with_exact_bsr_converges_at_small_alpha(capsys):
    # masked exact bsr used to lose positivity in its inner CG here (exit 2)
    code = run_cli(["ssn", "--scheme", "bsr", "--N", "32", "--alpha", "1e-10"])
    assert code == 0
    assert "converged=True" in capsys.readouterr().out


def test_ssn_large_beta_kills_the_control(capsys):
    code = run_cli(["ssn", "--scheme", "ibsr", "--q", "2", "--N", "16",
                    "--alpha", "1e-4", "--beta", "10"])
    assert code == 0
    report = capsys.readouterr().out
    assert "zero_fraction=1.000000" in report


def test_ssn_rejects_bad_bounds():
    assert run_cli(["ssn", "--N", "16", "--u0", "1", "--u1", "30"]) == 1


def test_ssn_overflowing_residual_is_reported_without_a_numpy_warning(capsys):
    # the residual norm overflows to inf: numpy's "overflow encountered in
    # dot" warning used to reach stderr before the report
    assert run_cli(["ssn", "--N", "16", "--alpha", "1e-308"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("ocmg: ")
    # no cycle ran, so nothing diverged: the first residual norm overflowed
    assert "not finite" in err


@pytest.mark.parametrize("argv", [
    ["mg", "--N", "16", "--alpha", "1e-155"], ["mg", "--N", "16", "--alpha", "1e-300"],
    ["ssn", "--N", "16", "--alpha", "1e-160"], ["ssn", "--N", "16", "--alpha", "1e-300"],
], ids=" ".join)
def test_data_and_residuals_of_a_huge_finite_norm_are_solved(capsys, argv):
    # their norms (about 1e156 to 1e301) once overflowed in the sum of squares,
    # so mg refused f as having no finite norm and ssn stopped with a residual
    # norm that was not finite; phi's quotient then overflowed with a warning
    assert run_cli(argv) == 0
    captured = capsys.readouterr()
    assert "converged=True" in captured.out
    assert captured.err == ""


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 128. GiB for an array with shape "
                      "(131071, 131071) and data type float64")


@pytest.mark.parametrize("command, out", [("mg", "hist.csv"), ("ssn", "fields")])
def test_a_grid_too_large_for_memory_exits_1_with_one_line(tmp_path, monkeypatch, capsys,
                                                           command, out):
    # the example data are the first arrays of the grid's size either command makes
    monkeypatch.setattr(cli, "example1_fields", _out_of_memory)
    monkeypatch.setattr(cli, "example2_fields", _out_of_memory)
    assert cli.main([command, "--N", "16", "--out", str(tmp_path / out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ocmg: out of memory: Unable to allocate 128. GiB for an "
                            "array with shape (131071, 131071) and data type float64\n")
    assert not (tmp_path / out).exists()


def test_a_grid_too_large_for_memory_exits_1_in_a_child_process():
    # the child's address space is capped at 3 GiB, so the 128 GiB fields of
    # N=131072 cannot be allocated under any overcommit policy; never run the
    # command without the cap
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-m", "ocmg.cli", "mg", "--N", "131072"],
                         preexec_fn=cap, env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr.startswith("ocmg: out of memory: ")
    assert len(run.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv, solver, out", [
    (["mg", "--N", "16"], "solve", "hist.csv"),
    (["ssn", "--N", "16"], "ssn_solve", "fields"),
    (["lfa"], "sampled_optimal", "lfa.csv"),
], ids=["mg", "ssn", "lfa"])
def test_an_exit_1_in_the_solve_leaves_no_out_the_run_created(tmp_path, monkeypatch,
                                                               capsys, argv, solver, out):
    # mg and lfa open their file, and ssn makes its directory, before the solve
    monkeypatch.setattr(cli, solver, _out_of_memory)
    assert cli.main(argv + ["--out", str(tmp_path / out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("ocmg: out of memory: Unable to allocate 128. GiB")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / out).exists()


def test_an_exit_1_keeps_an_out_that_existed_or_holds_files(tmp_path, monkeypatch):
    hist, fields, filled = tmp_path / "hist.csv", tmp_path / "fields", tmp_path / "filled"
    hist.write_text("")
    fields.mkdir()

    def fill_then_fail(*args, **kwargs):
        (filled / "y.txt").write_text("")
        raise MemoryError

    monkeypatch.setattr(cli, "solve", _out_of_memory)
    monkeypatch.setattr(cli, "ssn_solve", _out_of_memory)
    assert cli.main(["mg", "--N", "16", "--out", str(hist)]) == 1
    assert cli.main(["ssn", "--N", "16", "--out", str(fields)]) == 1
    monkeypatch.setattr(cli, "ssn_solve", fill_then_fail)
    assert cli.main(["ssn", "--N", "16", "--out", str(filled)]) == 1
    assert hist.is_file() and fields.is_dir() and (filled / "y.txt").is_file()


@pytest.mark.parametrize("error", [PcgBreakdownError("curvature <Ad, d> = -1.000e+00 <= 0"),
                                   np.linalg.LinAlgError("Singular matrix")],
                         ids=["PcgBreakdownError", "LinAlgError"])
def test_a_solver_error_escaping_a_command_exits_2_with_one_line(monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "solve", fail)
    assert cli.main(["mg", "--N", "16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ocmg: {error}\n"


# --------------------------------------------------------------- repro

def _tiny_cells():
    return [
        dict(scheme="cjr", q=2, N=16, alpha=1e-4, nu=1, cycle="V", pcg_iters=2),
        dict(scheme="ibsr", q=2, N=16, alpha=1e-4, nu=1, cycle="W", pcg_iters=2),
    ]


def test_repro_writes_sorted_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "table1_cells", _tiny_cells)
    code = run_cli(["repro", "table1", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "table1.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["q", "N", "scheme", "nu", "cycle", "mu_pred",
                      "rho_measured", "pcg_iters"]
    assert [r[2] for r in rows] == ["cjr", "ibsr"]  # sorted by scheme
    for r in rows:
        # three-decimal fixed point for both table columns
        assert len(r[5].split(".")[1]) == 3
        assert len(r[6].split(".")[1]) == 3
        assert 0.0 < float(r[6]) < 1.0


def test_repro_failed_cell_recorded_as_nan(tmp_path, monkeypatch, capsys):
    cells = _tiny_cells()
    cells.append(dict(scheme="cjr", q=2, N=255, alpha=1e-4, nu=1,
                      cycle="W", pcg_iters=2))
    monkeypatch.setattr(cli, "table2_cells", lambda: cells)
    code = run_cli(["repro", "table2", "--out", str(tmp_path)])
    assert code == 0
    captured = capsys.readouterr()
    assert "failed" in captured.err
    with open(tmp_path / "table2.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad = [r for r in rows if r["N"] == "255"]
    assert len(bad) == 1 and bad[0]["rho_measured"] == "nan"
    good = [r for r in rows if r["N"] == "16"]
    assert len(good) == 2


def test_repro_records_a_cell_too_large_for_memory_as_nan(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "table1_cells", _tiny_cells)
    monkeypatch.setattr(cli, "example1_fields", _out_of_memory)
    assert run_cli(["repro", "table1", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "table1.csv", newline="") as fh:
        assert [r["rho_measured"] for r in csv.DictReader(fh)] == ["nan", "nan"]
    assert capsys.readouterr().err.count("failed: Unable to allocate") == 2


def test_repro_lets_a_programming_error_escape(tmp_path, monkeypatch):
    # every Exception used to become a nan cell and exit 0, so a bug such as
    # the OverflowError of 2.0 ** 1024 read as a failed solve
    def broken(*args, **kwargs):
        raise TypeError("a bug")

    monkeypatch.setattr(cli, "table1_cells", _tiny_cells)
    monkeypatch.setattr(cli, "solve", broken)
    with pytest.raises(TypeError, match="a bug"):
        cli.main(["repro", "table1", "--out", str(tmp_path)])


def test_repro_sweep_csv_has_the_alpha_column(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "sweep_cells", _tiny_cells)
    assert run_cli(["repro", "sweep", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].endswith("alpha") and len(lines) == 1 + len(_tiny_cells())


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called before the output was checked")
    return refuse


@pytest.mark.parametrize("argv, solver", [
    (["mg", "--N", "16"], "solve"),
    (["ssn", "--N", "16"], "ssn_solve"),
    (["repro", "table1"], "_measure_cell"),
    (["lfa"], "sampled_optimal"),
])
def test_bad_out_exits_1_before_any_solve(tmp_path, monkeypatch, capsys, argv, solver):
    # ssn used to find out only after the solve, inside its failure handler
    monkeypatch.setattr(cli, solver, _refuse(solver))
    taken = tmp_path / "file"
    taken.write_text("")
    # mg and lfa write a file, the others a directory
    bad = tmp_path if argv[0] in ("mg", "lfa") else taken
    assert run_cli(argv + ["--out", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("ocmg: ")


def test_solver_failure_with_a_good_out_still_exits_2(tmp_path, monkeypatch, capsys):
    def fail(data, cp, q, smoother, spec, tol):
        state = SsnResult(v=np.zeros((2, 15, 15)), u=np.zeros((15, 15)), mg_iters=[9],
                          baseline_iters=9, residuals=[1.0, 0.5], steps=[1.0],
                          converged=False)
        raise SolverError("no convergence", state)

    monkeypatch.setattr(cli, "ssn_solve", fail)
    out = tmp_path / "fields"
    assert run_cli(["ssn", "--N", "16", "--out", str(out)]) == 2
    assert sorted(os.listdir(out)) == ["p.txt", "u.txt", "y.txt"]
    assert capsys.readouterr().err == "ocmg: no convergence\n"


def test_repro_full_grids_have_expected_shapes():
    assert len(cli.table1_cells()) == 18
    assert len(cli.table2_cells()) == 42
    assert len(cli.sweep_cells()) == 36
    for cell in cli.table1_cells() + cli.table2_cells() + cli.sweep_cells():
        assert cell["N"] % cell["q"] == 0


@pytest.mark.parametrize("target", ["table1", "table2", "sweep"])
def test_repro_rows_come_out_sorted_as_the_cells_are_built(tmp_path, monkeypatch,
                                                           target):
    # repro writes its rows in the cell order, so the builders must give the table order
    monkeypatch.setattr(cli, "_measure_cell", lambda cell: 0.5)
    assert run_cli(["repro", target, "--out", str(tmp_path)]) == 0
    with open(tmp_path / f"{target}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    key = lambda c: (c["scheme"], c["q"], c["nu"], c["cycle"], c["pcg_iters"], -c["alpha"])
    want = sorted(getattr(cli, f"{target}_cells")(), key=key)
    got = [(r["scheme"], int(r["q"]), int(r["nu"]), r["cycle"], int(r["pcg_iters"]),
            -float(r.get("alpha", cli.TABLE_ALPHA))) for r in rows]
    assert got == [key(c) for c in want]


def test_mu_pred_uses_the_damping_bound_for_mass_schemes():
    cell = dict(scheme="ibsr", q=2, N=256, alpha=1e-6, nu=1,
                cycle="W", pcg_iters=3)
    assert cli._mu_pred(cell) == pytest.approx(1.0 / 3.0)
    cell = dict(scheme="cjr", q=2, N=256, alpha=1e-6, nu=2,
                cycle="W", pcg_iters=2)
    assert cli._mu_pred(cell) == pytest.approx(0.36, abs=1e-2)
