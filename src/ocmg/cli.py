"""Command line driver.

Four subcommands:

    lfa    two-grid smoothing-factor report (closed form vs sampled)
    mg     one multigrid solve with a residual-history CSV
    ssn    constrained sparse-control solve with field dumps
    repro  benchmark tables / damping sweep as CSV

Exit status is 0 on success, 1 on validation errors (bad flags, bad
config, incompatible N and q, NaN, an alpha whose 1/alpha overflows),
2 on solver failures (divergence, stalled Newton iteration, PCG
breakdown).  A config file holds "key = value" lines; explicit flags win
over config values, config values over the defaults here, and these over
the library's.  Each value is checked by the library type it enters;
those are built before the problem data.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys

import numpy as np

from .grid import GridSpec
from .lfa import SCHEMES as LFA_SCHEMES, LfaParams, closed_form, sampled_optimal
from .multigrid import CYCLES, CycleSpec, Hierarchy, build_hierarchy, level_sizes, solve
from .problems import ProblemData, dump_field, example1_fields, example2_fields, load_field
from .smoothers import SCHEMES, PcgBreakdownError, SmootherSpec
from .ssn import ControlParams, SolverError, SsnResult, sparsity_fractions, ssn_solve

# benchmark mesh per coarsening ratio: powers of q with h ~ 1/256
TABLE_SIZES = {2: 256, 3: 243, 4: 256}
TABLE_ALPHA = 1e-6

# every flag and config key by name, with its type
_OPTIONS = {
    "scheme": str, "q": int, "N": int, "alpha": float, "cycle": str,
    "nu": int, "tol": float, "seed": int, "pcg_iters": int, "beta": float,
    "u0": float, "u1": float, "h": float, "out": str,
    "f_file": str, "g_file": str,  # config only
}
# each command's help, flags and the choices argparse offers for them; a
# config value is checked by the library type it enters instead
_MG_FLAGS = ("scheme", "q", "N", "alpha", "cycle", "nu", "tol", "seed",
             "pcg_iters", "out")
_MG_CHOICES = {"scheme": SCHEMES, "cycle": CYCLES}
_COMMANDS = {
    "lfa": ("smoothing factor report", ("scheme", "q", "alpha", "h", "out"),
            {"scheme": LFA_SCHEMES}),
    "mg": ("single multigrid solve", _MG_FLAGS, _MG_CHOICES),
    "ssn": ("constrained control solve", _MG_FLAGS + ("beta", "u0", "u1"),
            _MG_CHOICES),
}

# only what differs from, or is not set by, the library's own defaults
_DEFAULTS = {
    "lfa": {"scheme": "cjr", "q": 2, "alpha": TABLE_ALPHA, "h": 1.0 / 256},
    "mg": {"scheme": "cjr", "q": 2, "N": 256, "alpha": TABLE_ALPHA},
    "ssn": {"scheme": "ibsr", "q": 2, "N": 128, "alpha": 1e-4, "beta": 1e-3,
            "u0": -30.0, "u1": 30.0, "nu": 2},
    "repro": {"out": "."},
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; remap to the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ocmg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, choices) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        for key in flags:
            cmd.add_argument("--" + key.replace("_", "-"), dest=key,
                             type=_OPTIONS[key], choices=choices.get(key))
        cmd.add_argument("--config")

    repro = sub.add_parser("repro", help="benchmark CSVs")
    repro.add_argument("target", choices=("table1", "table2", "sweep"))
    repro.add_argument("--out")
    return parser


def read_config(path: str) -> dict:
    """Parse "key = value" lines; '#' starts a comment."""
    table = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or not key or not value.strip():
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            if key not in _OPTIONS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                table[key] = _OPTIONS[key](value.strip())
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad value for {key!r}: {value.strip()!r}"
                ) from None
    return table


def _merge(args: argparse.Namespace) -> dict:
    opts = vars(args).copy()
    if opts.get("config"):
        for key, value in read_config(opts["config"]).items():
            if opts.get(key) is None:
                opts[key] = value
    for key, value in _DEFAULTS[opts["command"]].items():
        if opts.get(key) is None:
            opts[key] = value
    return opts


def _given(opts: dict, **fields: str) -> dict:
    """{field: opts[key]} for each key set; unset ones keep the library default."""
    return {f: opts[key] for f, key in fields.items() if opts.get(key) is not None}


def _specs(opts: dict) -> tuple[SmootherSpec, CycleSpec]:
    return (SmootherSpec(opts["scheme"], **_given(opts, pcg_iters="pcg_iters")),
            CycleSpec(**_given(opts, cycle="cycle", nu_pre="nu", tol="tol",
                               seed="seed")))


def _load_problem(opts: dict, grid: GridSpec, fallback) -> ProblemData:
    """Example data on grid unless a config supplied both field files."""
    f_file, g_file = opts.get("f_file"), opts.get("g_file")
    if f_file is None and g_file is None:
        return fallback()
    if f_file is None or g_file is None:
        raise ValueError("f_file and g_file must be given together")
    return ProblemData(load_field(f_file, grid), load_field(g_file, grid), grid)


def cmd_lfa(opts: dict) -> int:
    params = LfaParams(q=opts["q"], alpha=opts["alpha"], h=opts["h"])
    sampled = sampled_optimal(opts["scheme"], params)  # rejects a scheme LFA lacks
    closed = closed_form(opts["scheme"], params)

    print(f"scheme={opts['scheme']} q={opts['q']} "
          f"alpha={opts['alpha']:g} h={opts['h']:.17g}")
    theta_txt = "" if closed.theta is None else \
        f" theta=({closed.theta[0]:.6f}, {closed.theta[1]:.6f})"
    print(f"closed-form: omega={closed.omega:.8f} mu={closed.mu:.8f}{theta_txt}")
    print(f"sampled:     omega={sampled.omega:.8f} mu={sampled.mu:.8f}"
          f" theta=({sampled.theta[0]:.6f}, {sampled.theta[1]:.6f})")
    print(f"difference:  |domega|={abs(sampled.omega - closed.omega):.3e}"
          f" |dmu|={abs(sampled.mu - closed.mu):.3e}")

    if opts.get("out"):
        with open(opts["out"], "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["scheme", "q", "alpha", "h", "omega_closed",
                        "mu_closed", "omega_sampled", "mu_sampled",
                        "theta1", "theta2"])
            w.writerow([opts["scheme"], opts["q"], f"{opts['alpha']:.17g}",
                        f"{opts['h']:.17g}", f"{closed.omega:.17g}", f"{closed.mu:.17g}",
                        f"{sampled.omega:.17g}", f"{sampled.mu:.17g}",
                        f"{sampled.theta[0]:.17g}", f"{sampled.theta[1]:.17g}"])
    return 0


def _write_history(stream, history: list[float]) -> None:
    w = csv.writer(stream)
    w.writerow(["iter", "residual_norm", "rel_residual"])
    for k, rn in enumerate(history):
        w.writerow([k, f"{rn:.17g}", f"{rn / history[0]:.17g}"])


def _build(opts: dict) -> tuple[Hierarchy, np.ndarray, CycleSpec]:
    """solve's arguments for the mg solve opts describe; the data come last."""
    smoother, spec = _specs(opts)
    hier = build_hierarchy(opts["N"], opts["q"], opts["alpha"], smoother)
    grid = hier.levels[0].op.grid
    data = _load_problem(opts, grid, lambda: example1_fields(grid, opts["alpha"])[0])
    return hier, np.stack([data.f, data.g]), spec


def cmd_mg(opts: dict) -> int:
    hier, b, spec = _build(opts)
    with (open(opts["out"], "w", newline="", encoding="utf-8") if opts.get("out")
          else contextlib.nullcontext(sys.stdout)) as fh:
        res = solve(hier, b, spec)
        print(f"scheme={opts['scheme']} q={opts['q']} N={opts['N']} "
              f"alpha={opts['alpha']:g} cycle={spec.cycle} nu={spec.nu_pre}")
        print(f"converged={res.converged} iters={res.iters} rho={res.rho:.3f}")
        _write_history(fh, res.history)
    if not res.converged:
        why = ("did not reach tolerance" if np.isfinite(res.history[-1])
               else "residual norm is not finite")
        print(f"ocmg: multigrid {why}", file=sys.stderr)
        return 2
    return 0


def cmd_ssn(opts: dict) -> int:
    cp = ControlParams(opts["alpha"], opts["beta"], opts["u0"], opts["u1"])
    smoother, spec = _specs(opts)
    level_sizes(opts["N"], opts["q"])  # ssn_solve builds the hierarchies later
    grid = GridSpec(opts["N"])
    data = _load_problem(opts, grid, lambda: example2_fields(grid))
    if opts.get("out"):
        os.makedirs(opts["out"], exist_ok=True)

    print(f"scheme={opts['scheme']} q={opts['q']} N={opts['N']} "
          f"alpha={opts['alpha']:g} beta={opts['beta']:g} "
          f"u0={opts['u0']:g} u1={opts['u1']:g} "
          f"cycle={spec.cycle} nu={spec.nu_pre}")
    try:
        res = ssn_solve(data, cp, opts["q"], smoother, spec, tol=spec.tol)
    except SolverError as exc:
        print(f"ocmg: {exc}", file=sys.stderr)
        if opts.get("out") and exc.state is not None:
            _dump_state(opts["out"], exc.state, grid)
        return 2

    zero, active = sparsity_fractions(res.u, cp)
    print(f"converged={res.converged} newton_iters={res.iters}")
    print(f"baseline_mg_iters={res.baseline_iters}")
    print("jacobian_mg_iters=" + ",".join(str(k) for k in res.mg_iters))
    print(f"zero_fraction={zero:.6f} active_fraction={active:.6f}")
    if opts.get("out"):
        _dump_state(opts["out"], res, grid)
    return 0


def _dump_state(outdir: str, state: SsnResult, grid: GridSpec) -> None:
    for name, field in (("y", state.v[0]), ("p", state.v[1]), ("u", state.u)):
        dump_field(os.path.join(outdir, f"{name}.txt"), field, grid)
    print(f"wrote y.txt p.txt u.txt -> {outdir}")


# ---------------------------------------------------------------------------
# repro: benchmark cell grids


def table1_cells() -> list[dict]:
    return [dict(scheme="cjr", q=q, N=TABLE_SIZES[q], alpha=TABLE_ALPHA,
                 nu=nu, cycle=c, pcg_iters=2)
            for q in (2, 3, 4) for nu in (1, 2, 3) for c in ("W", "V")]


def table2_cells() -> list[dict]:
    cells = [dict(scheme="bsr", q=q, N=TABLE_SIZES[q], alpha=TABLE_ALPHA,
                  nu=nu, cycle=c, pcg_iters=2)
             for q in (2, 3, 4) for nu in (1, 2, 3) for c in ("W", "V")]
    cells += [dict(scheme="ibsr", q=q, N=TABLE_SIZES[q], alpha=TABLE_ALPHA,
                   nu=1, cycle=c, pcg_iters=k)
              for q in (2, 3, 4) for k in (1, 2, 3, 4) for c in ("W", "V")]
    return cells


def sweep_cells() -> list[dict]:
    alphas = [10.0 ** (-e) for e in range(2, 13, 2)]
    return [dict(scheme=s, q=q, N=TABLE_SIZES[q], alpha=a,
                 nu=1, cycle="W", pcg_iters=2)
            for s in ("cjr", "ibsr") for q in (2, 3, 4) for a in alphas]


def _mu_pred(cell: dict) -> float:
    params = LfaParams(q=cell["q"], alpha=cell["alpha"], h=1.0 / cell["N"])
    return closed_form(cell["scheme"], params).mu ** cell["nu"]


def _measure_cell(cell: dict) -> float:
    """One benchmark solve; failures turn into nan so the table survives."""
    try:
        return solve(*_build(cell)).rho
    except Exception as exc:  # noqa: BLE001 - isolate per-cell failures
        print(f"ocmg: cell {cell} failed: {exc}", file=sys.stderr)
        return float("nan")


def run_cells(cells: list[dict]) -> list[dict]:
    """Measure every cell, attach predictions, return sorted rows."""
    rhos = [_measure_cell(c) for c in cells]
    rows = [dict(cell, mu_pred=_mu_pred(cell), rho_measured=rho)
            for cell, rho in zip(cells, rhos)]
    rows.sort(key=lambda r: (r["scheme"], r["q"], r["nu"], r["cycle"],
                             r["pcg_iters"], -r["alpha"]))
    return rows


def write_rows(path: str, rows: list[dict], with_alpha: bool = False) -> None:
    header = ["q", "N", "scheme", "nu", "cycle", "mu_pred",
              "rho_measured", "pcg_iters"]
    if with_alpha:
        header.append("alpha")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r in rows:
            row = [r["q"], r["N"], r["scheme"], r["nu"], r["cycle"],
                   f"{r['mu_pred']:.3f}", f"{r['rho_measured']:.3f}",
                   r["pcg_iters"]]
            if with_alpha:
                row.append(f"{r['alpha']:.17g}")
            w.writerow(row)


def cmd_repro(opts: dict) -> int:
    target = opts["target"]
    cells = {"table1": table1_cells,
             "table2": table2_cells,
             "sweep": sweep_cells}[target]()
    os.makedirs(opts["out"], exist_ok=True)
    rows = run_cells(cells)
    path = os.path.join(opts["out"], f"{target}.csv")
    write_rows(path, rows, with_alpha=(target == "sweep"))
    bad = sum(1 for r in rows if np.isnan(r["rho_measured"]))
    print(f"wrote {len(rows)} rows -> {path}" +
          (f" ({bad} failed cells recorded as nan)" if bad else ""))
    return 0


_HANDLERS = {"lfa": cmd_lfa, "mg": cmd_mg, "ssn": cmd_ssn, "repro": cmd_repro}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = _merge(args)
        return _HANDLERS[opts["command"]](opts)
    except (OSError, ValueError) as exc:
        print(f"ocmg: {exc}", file=sys.stderr)
        return 1
    except (SolverError, PcgBreakdownError, np.linalg.LinAlgError) as exc:
        print(f"ocmg: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
