"""Command line interface: flag handling, config merge, exit codes, CSV output."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ocmg.cli as cli
from ocmg.grid import GridSpec
from ocmg.problems import load_field
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
    # the level chain stops at N=25, which the sparse coarse LU solves directly
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
    # field files of 1.7e308 and the example data at alpha=1e-300 (f holds
    # p*/alpha ~ 1e300) both used to pass as data and fail as a solve
    for argv in (["mg", "--config", _field_config(tmp_path, "1.7e308")],
                 ["mg", "--N", "16", "--alpha", "1e-300"]):
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ocmg: f has no finite norm")
        assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_mg_overflowing_residual_exits_2_without_cycling(tmp_path, capsys):
    # data of a finite norm whose residual norm overflows (A v holds
    # p/alpha ~ 1e300): the solve must stop before cycling, instead of
    # handing inf/NaN to the coarse LAPACK solve
    out = tmp_path / "hist.csv"
    code = run_cli(["mg", "--config", _field_config(tmp_path, "1"),
                    "--alpha", "1e-300", "--out", str(out)])
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


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert run_cli(["mg", "--config", str(cfg)]) == 1


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
])
def test_bad_values_exit_1_with_one_message_line(capsys, argv):
    # NaN passes "x <= 0" checks; 1e-320 is positive but 1/alpha overflows
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


# --------------------------------------------------------------- repro

def _tiny_cells():
    return [
        dict(scheme="ibsr", q=2, N=16, alpha=1e-4, nu=1, cycle="W", pcg_iters=2),
        dict(scheme="cjr", q=2, N=16, alpha=1e-4, nu=1, cycle="V", pcg_iters=2),
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
])
def test_bad_out_exits_1_before_any_solve(tmp_path, monkeypatch, capsys, argv, solver):
    # ssn used to find out only after the solve, inside its failure handler
    monkeypatch.setattr(cli, solver, _refuse(solver))
    taken = tmp_path / "file"
    taken.write_text("")
    bad = tmp_path if argv[0] == "mg" else taken  # mg writes a file, the others a directory
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


def test_mu_pred_uses_the_damping_bound_for_mass_schemes():
    cell = dict(scheme="ibsr", q=2, N=256, alpha=1e-6, nu=1,
                cycle="W", pcg_iters=3)
    assert cli._mu_pred(cell) == pytest.approx(1.0 / 3.0)
    cell = dict(scheme="cjr", q=2, N=256, alpha=1e-6, nu=2,
                cycle="W", pcg_iters=2)
    assert cli._mu_pred(cell) == pytest.approx(0.36, abs=1e-2)
