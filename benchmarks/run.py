"""ocmg benchmark: wall time to tolerance on three closed-loop workloads.

    python3 benchmarks/run.py --workload mg-fine --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the solver is imported from
``src/``.  Every sample is one fresh interpreter running ``workload.py``
(one caller, each solve starting after the previous one returns, no
``OCMG_WORKERS`` pool, BLAS pinned to one thread, the process pinned to one
CPU, alternating).  Samples are taken until ``--seconds`` would be exceeded,
and never fewer than two (one untraced and one traced with ``--trace 1``);
each metric is the median over the samples.

Workloads (see README.md for what each one exercises): mg-fine (cjr,
q=2, N=1024), mg-table (the paper's nine-cell table protocol) and
ssn-sparse (semi-smooth Newton at N=128).

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json,
``--trace 1`` the per-layer ones, from spans recorded by ``spans.Tracer``.
The last line of standard output is one JSON object; the lines before it
name every metric with its unit, the environment and the output checks.
Raw samples and spans go to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("mg-fine", "mg-table", "ssn-sparse")
MIN_SAMPLES = 2
SETUP_SAMPLES = 9  # set-up is short and noisy: top up with set-up-only processes
CHILD_TIMEOUT_S = 170
LAST_START_S = 150  # start no sample expected to end after this


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("OCMG_WORKERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def sample(workload: str, seed: int, trace: int, tag: str, cpu: int,
           setup_only: bool = False) -> dict:
    """One fresh process on one CPU; set-up runs from spawn to solver-ready."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--spans-out", str(OUT / f"spans-{workload}-seed{seed}-{tag}.jsonl")]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} sample exceeded {CHILD_TIMEOUT_S} s") from None
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise BenchError(f"{workload} sample exited with {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["ready"] - t0
    rec["wall_s"] = wall
    return rec


def collect(workload: str, seed: int, seconds: int, trace: int):
    """Closed loop of fresh-process samples, (untraced, traced) pairs if tracing.

    Returns the solve samples, the traced samples and the set-up-only ones.
    """
    plain, traced, setups = [], [], []
    # alternate the CPUs so that one busier core cannot tilt a run's median
    cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
    start = time.monotonic()
    while True:
        group = [sample(workload, seed, 0, f"{len(plain)}", next(cpus))]
        if trace:
            group.append(sample(workload, seed, 1, f"{len(traced)}", next(cpus)))
        plain.append(group[0])
        traced.extend(group[1:])
        elapsed = time.monotonic() - start
        est = elapsed / len(plain)
        enough = len(plain) + len(traced) >= MIN_SAMPLES
        if enough and elapsed + est > seconds or elapsed + est > LAST_START_S:
            break
    while not trace and len(plain) + len(setups) < SETUP_SAMPLES:
        setups.append(sample(workload, seed, 0, "", next(cpus), setup_only=True))
    return plain, traced, setups


def spread(values) -> str:
    if len(values) < 2:
        return "1 sample"
    return f"median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def cache_kib(size: str) -> float:
    units = {"K": 1, "M": 1024, "G": 1024**2}
    return float(size[:-1]) * units[size[-1]] if size[-1] in units else float(size) / 1024


def describe(workload: str, seed: int, trace: int, plain, traced) -> None:
    env = plain[0]["env"]
    print(f"ocmg benchmark  workload={workload} seed={seed} trace={trace}  "
          f"closed loop, 1 caller, {len(plain) + len(traced)} fresh processes")
    print("env: " + json.dumps(env, sort_keys=True))
    N = {"mg-fine": 1024, "mg-table": 256, "ssn-sparse": 128}[workload]
    field_mb = 8 * (N - 1) ** 2 / 1e6
    caches = ", ".join(f"{k} {cache_kib(v) / 1024:.3g} MiB"
                       for k, v in sorted(env["caches"].items()) if k != "L1")
    print(f"field size at N={N}: {field_mb:.2f} MB per scalar field, "
          f"{2 * field_mb:.2f} MB per (y, p) pair; {caches}")
    for cell in plain[0]["cells"]:
        print("check: " + json.dumps(cell, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "ocmg" / "__init__.py").is_file():
        print(f"run.py: no ocmg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)

    try:
        plain, traced, setups = collect(args.workload, args.seed, args.seconds,
                                        args.trace)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    samples = plain + traced
    attempted = sum(r["attempted"] for r in samples)
    failed = sum(r["failed"] for r in samples)
    correct = failed == 0
    describe(args.workload, args.seed, args.trace, plain, traced)

    values: dict[str, list[float]] = {}
    if not args.trace:
        for key in ("solve_s", "fine_cycles", "rho", "peak_rss_mb",
                    "newton_steps"):
            values[key] = [r[key] for r in plain if key in r]
        values["setup_s"] = [r["setup_s"] for r in plain + setups]
        wanted = spec["end_to_end"]
    else:
        for rec in traced:
            for key, v in rec["layers"].items():
                values.setdefault(key, []).append(v)
            # level busy times are parts of the solve spans' time
            layers = rec["layers"]
            if layers["trace.busy_sum_s"] > layers["trace.solve_span_s"] * (1 + 1e-9):
                print("check failed: level busy times exceed the solve span total",
                      file=sys.stderr)
                correct = False
            if not rec["restored"]:
                print("check failed: a patched binding was not restored",
                      file=sys.stderr)
                correct = False
            if rec["absent"]:
                print("absent hooks: " + ", ".join(rec["absent"]))
        t_plain = statistics.median(r["solve_s"] for r in plain)
        t_traced = statistics.median(r["solve_s"] for r in traced)
        values["trace.overhead_frac"] = [t_traced / t_plain - 1.0]
        wanted = spec["per_layer"]

    metrics = {}
    for m in wanted:
        vals = values.get(m["name"], [])
        if not vals:
            print(f"run.py: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": statistics.median(vals), "unit": m["unit"]}
        print(f"{m['name']:<36} {statistics.median(vals):<14.6g} {m['unit']:<8}"
              f" ({spread(vals)})")
    if not args.trace:
        if values["newton_steps"]:
            print(f"{'newton_steps':<36} {statistics.median(values['newton_steps']):<14.6g}"
                  f" {'count':<8} ({spread(values['newton_steps'])})")
        print(f"{'failed_frac':<36} {failed / attempted:<14.6g} {'ratio':<8}"
              f" ({failed} of {attempted} solves failed or were wrong)")
    else:
        print("gbps figures are computed from array sizes: bytes read plus "
              "bytes written once, over the calls' wall time")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, samples=samples, setup_only=setups)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
