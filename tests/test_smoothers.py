"""Smoother corrections against hand values, the dense oracle, and LFA predictions."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ocmg

from ocmg.grid import (
    GridSpec,
    SaddleOperator,
    block_norm2,
    residual,
)
from ocmg.lfa import LfaParams, bsr_damping, cjr_optimal
from ocmg import smoothers
from ocmg.multigrid import build_hierarchy
from ocmg.smoothers import (
    SCHEMES,
    PcgBreakdownError,
    SchurSpectral,
    SmootherSpec,
    bsr_apply,
    cjr_apply,
    pcg,
    relaxation,
    schur_apply,
    schur_diag,
)

import oracle


def _rng(seed=0):
    return np.random.default_rng(seed)


def _rand_block(grid, rng):
    return rng.standard_normal((2, grid.m, grid.m))


def _sine_mode(grid, k, l):
    """Discrete sine mode sin(k pi x2) sin(l pi x1) on the interior.

    The modes realize the Fourier symbols exactly at theta = (k pi/N, l pi/N).
    """
    x = np.arange(1, grid.N) * grid.h
    return np.outer(np.sin(np.pi * k * x), np.sin(np.pi * l * x))


# ---------------------------------------------------------------- collective Jacobi

def test_cjr_hand_value_n2():
    g = GridSpec(2)
    op = SaddleOperator(g, alpha=1.0)
    r = np.array([[[1.0]], [[0.0]]])
    w = cjr_apply(r, op, omega=1.0)
    assert w[0, 0, 0] == pytest.approx(16.0 / 257.0, rel=1e-14)
    assert w[1, 0, 0] == pytest.approx(-1.0 / 257.0, rel=1e-14)


def test_cjr_zero_omega():
    g = GridSpec(4)
    w = cjr_apply(_rand_block(g, _rng(1)), SaddleOperator(g, alpha=0.1), omega=0.0)
    assert block_norm2(w) == 0.0


@pytest.mark.parametrize("masked", [False, True])
def test_cjr_matches_dense(masked):
    g = GridSpec(8)
    rng = _rng(2)
    mask = (rng.random((g.m, g.m)) < 0.5).astype(float) if masked else None
    op = SaddleOperator(g, alpha=1e-2, mask=mask)
    r = _rand_block(g, rng)
    B = oracle.assemble("B_J", g, alpha=1e-2, mask=mask)
    want = 0.8 * np.linalg.solve(B, r.ravel())
    got = cjr_apply(r, op, omega=0.8).ravel()
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# ---------------------------------------------------------------- Schur operator

def test_schur_apply_zero():
    g = GridSpec(4)
    out = schur_apply(np.zeros((g.m, g.m)), SaddleOperator(g, alpha=1.0))
    assert np.all(out == 0.0)


def test_schur_apply_hand_value_n2():
    g = GridSpec(2)
    out = schur_apply(np.array([[1.0]]), SaddleOperator(g, alpha=1.0))
    assert out[0, 0] == pytest.approx(145.0 / 9.0, rel=1e-14)


def test_schur_all_zero_mask_is_laplacian():
    g = GridSpec(8)
    op = SaddleOperator(g, alpha=1e-4, mask=np.zeros((g.m, g.m)))
    w = _rng(3).standard_normal((g.m, g.m))
    from ocmg.grid import apply_laplacian
    assert np.array_equal(schur_apply(w, op), apply_laplacian(w, g))


def test_schur_spd_unmasked():
    g = GridSpec(16)
    op = SaddleOperator(g, alpha=1e-3)
    rng = _rng(4)
    for _ in range(5):
        u, w = rng.standard_normal((g.m, g.m)), rng.standard_normal((g.m, g.m))
        su, sw = schur_apply(u, op), schur_apply(w, op)
        assert abs(np.vdot(su, w) - np.vdot(u, sw)) <= 1e-12 * abs(np.vdot(su, w))
        assert np.vdot(su, u) > 0.0


def test_schur_spectral_is_exact_inverse():
    g = GridSpec(12)
    op = SaddleOperator(g, alpha=1e-4)
    sp = SchurSpectral(g, op.alpha)
    b = _rng(5).standard_normal((g.m, g.m))
    x = sp.solve(b)
    assert np.linalg.norm(schur_apply(x, op) - b) <= 1e-12 * np.linalg.norm(b)


def test_schur_spectral_modes_are_eigenvectors():
    g = GridSpec(16)
    op = SaddleOperator(g, alpha=1e-3)
    sp = SchurSpectral(g, op.alpha)
    for k, l in ((1, 1), (3, 8), (15, 2)):
        mode = _sine_mode(g, k, l)
        out = schur_apply(mode, op)
        lam = sp.eig[k - 1, l - 1]
        assert np.linalg.norm(out - lam * mode) <= 1e-10 * lam * np.linalg.norm(mode)


# ---------------------------------------------------------------- PCG

def _identity(v):
    return v


def test_pcg_identity_one_iteration():
    b = _rng(6).standard_normal(10)
    x = pcg(_identity, b, 1, _identity)
    assert np.allclose(x, b, rtol=1e-14)


def test_pcg_diagonal_with_diagonal_preconditioner():
    d = np.array([1.0, 2.0, 5.0, 9.0])
    b = np.array([1.0, 1.0, 1.0, 1.0])
    x = pcg(lambda v: d * v, b, 1, precond=lambda v: v / d)
    assert np.allclose(x, b / d, rtol=1e-14)


def test_pcg_2x2_hand_value():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    x = pcg(lambda v: A @ v, np.array([1.0, 1.0]), 2, _identity)
    assert np.allclose(x, [1.0 / 3.0, 1.0 / 3.0], rtol=1e-12)


def test_pcg_matches_dense_solve_in_n_iterations():
    # in exact arithmetic CG solves an n x n SPD system in n iterations
    rng = _rng(7)
    M = rng.standard_normal((10, 10))
    A = M @ M.T + 10 * np.eye(10)
    b = rng.standard_normal(10)
    x = pcg(lambda v: A @ v, b, 10, _identity)
    assert np.allclose(x, oracle.dense_solve(A, b), atol=1e-10)


def test_pcg_fixed_count_runs_exactly_k():
    # after k iterations the residual is not yet small for an ill-scaled
    # diagonal problem; count matvec calls to pin the fixed-count contract
    calls = []
    d = np.linspace(1, 100, 30)
    matvec = lambda v: (calls.append(1), d * v)[1]
    pcg(matvec, np.ones(30), 3, _identity)
    assert len(calls) == 3


def test_pcg_breakdown_on_indefinite():
    A = np.diag([1.0, -1.0])
    with pytest.raises(PcgBreakdownError):
        pcg(lambda v: A @ v, np.array([0.0, 1.0]), 5, _identity)


def test_pcg_zero_rhs():
    x = pcg(_identity, np.zeros(4), 3, _identity)
    assert np.all(x == 0.0)


def test_pcg_prepares_no_direction_after_its_last_iteration():
    calls = {"matvec": 0, "precond": 0}
    d = np.linspace(1.0, 3.0, 30)

    def matvec(v):
        calls["matvec"] += 1
        return d * v

    def precond(v):
        calls["precond"] += 1
        return v / d.mean()

    pcg(matvec, np.ones(30), 3, precond)
    # one preconditioned residual to start, then one per further iteration
    assert calls == {"matvec": 3, "precond": 3}


# ---------------------------------------------------------------- Braess-Sarazin

def test_bsr_hand_value_n2():
    g = GridSpec(2)
    op = SaddleOperator(g, alpha=1.0)
    r = np.array([[[1.0]], [[0.0]]])
    w = bsr_apply(r, op, SmootherSpec("bsr", omega=1.0))
    assert w[0, 0, 0] == pytest.approx(16.0 / 145.0, rel=1e-12)
    assert w[1, 0, 0] == pytest.approx(-1.0 / 145.0, rel=1e-12)


def test_bsr_zero_residual():
    g = GridSpec(8)
    w = bsr_apply(np.zeros((2, g.m, g.m)), SaddleOperator(g, alpha=1e-3),
                  SmootherSpec("bsr", omega=0.75))
    assert block_norm2(w) == 0.0


@pytest.mark.parametrize("masked", [False, True])
def test_bsr_exact_matches_dense(masked):
    g = GridSpec(8)
    rng = _rng(8)
    mask = (rng.random((g.m, g.m)) < 0.5).astype(float) if masked else None
    op = SaddleOperator(g, alpha=1e-2, mask=mask)
    r = _rand_block(g, rng)
    B = oracle.assemble("B_m", g, alpha=1e-2, mask=mask)
    want = 0.75 * np.linalg.solve(B, r.ravel())
    got = bsr_apply(r, op, SmootherSpec("bsr", omega=0.75)).ravel()
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_smoothers_linear_in_residual():
    g = GridSpec(8)
    rng = _rng(9)
    op = SaddleOperator(g, alpha=1e-3)
    r1, r2 = _rand_block(g, rng), _rand_block(g, rng)
    combo = 2.0 * r1 + (-0.5) * r2
    for apply_fn in (
        lambda r: cjr_apply(r, op, 0.8),
        lambda r: bsr_apply(r, op, SmootherSpec("bsr", omega=0.75)),
    ):
        lhs = apply_fn(combo)
        rhs = 2.0 * apply_fn(r1) + (-0.5) * apply_fn(r2)
        assert block_norm2(lhs - rhs) <= 1e-11 * block_norm2(rhs)


def test_ibsr_homogeneous_but_not_additive():
    # a truncated (fixed-count) CG inner solve is homogeneous of degree 1 in
    # the right-hand side but NOT additive: its coefficients depend on b
    g = GridSpec(8)
    rng = _rng(10)
    op = SaddleOperator(g, alpha=1e-3)
    spec = SmootherSpec("ibsr", omega=0.75, pcg_iters=2)
    r1, r2 = _rand_block(g, rng), _rand_block(g, rng)
    scaled = bsr_apply(-3.0 * r1, op, spec)
    want = -3.0 * bsr_apply(r1, op, spec)
    assert block_norm2(scaled - want) <= 1e-12 * block_norm2(want)
    lhs = bsr_apply(r1 + r2, op, spec)
    rhs = bsr_apply(r1, op, spec) + bsr_apply(r2, op, spec)
    assert block_norm2(lhs - rhs) > 1e-6 * block_norm2(rhs)


@pytest.mark.parametrize("kind", SCHEMES)
@pytest.mark.parametrize("masked", [False, True])
def test_smoothers_write_their_correction_into_the_residual(kind, masked):
    g = GridSpec(16)
    rng = _rng(12)
    mask = (rng.random((g.m, g.m)) < 0.5).astype(float) if masked else None
    op = SaddleOperator(g, alpha=1e-2, mask=mask)
    r = _rand_block(g, rng)
    spec = SmootherSpec(kind, omega=0.75)
    if kind == "cjr":
        apply_fn = lambda r, out=None: cjr_apply(r, op, 0.75, out)
    else:
        apply_fn = lambda r, out=None: bsr_apply(r, op, spec, out=out)
    want = apply_fn(r)
    buf = r.copy()
    got = apply_fn(buf, out=buf)
    assert got is buf
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("masked", [False, True])
def test_ibsr_with_the_cached_diagonal_is_bitwise_the_same(masked):
    g = GridSpec(16)
    rng = _rng(13)
    op = SaddleOperator(g, alpha=1e-3,
                        mask=rng.random((g.m, g.m)) if masked else None)
    r = _rand_block(g, rng)
    spec = SmootherSpec("ibsr", omega=0.75)
    np.testing.assert_array_equal(relaxation(op, spec)(r), bsr_apply(r, op, spec))


def test_unmasked_schur_diagonal_is_the_constant_of_the_masked_formula():
    g = GridSpec(8)
    ones = SaddleOperator(g, alpha=1e-3, mask=np.ones((g.m, g.m)))
    assert np.all(schur_diag(ones) == schur_diag(SaddleOperator(g, alpha=1e-3)))


def test_only_exact_bsr_imports_scipy_fft():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from ocmg import cli, multigrid, ssn\n"
        "from ocmg.smoothers import SmootherSpec\n"
        "for kind in ('cjr', 'ibsr'):\n"
        "    h = multigrid.build_hierarchy(16, 2, 1e-3, SmootherSpec(kind))\n"
        "    multigrid.solve(h, np.ones((2, 15, 15)), multigrid.CycleSpec(max_iters=2))\n"
        "assert 'scipy.fft' not in sys.modules\n"
        "multigrid.build_hierarchy(16, 2, 1e-3, SmootherSpec('bsr'))\n"
        "assert 'scipy.fft' in sys.modules\n")
    src = Path(ocmg.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_ibsr_diag_preconditioner_values():
    g = GridSpec(4)
    mask = np.zeros((g.m, g.m))
    mask[1, 2] = 1.0
    d = schur_diag(SaddleOperator(g, alpha=1e-2, mask=mask))
    base = 4.0 * 16.0
    assert d[0, 0] == pytest.approx(base)
    assert d[1, 2] == pytest.approx(base + (16.0 * g.h ** 2 / 36.0) / 1e-2)


# ------------------------------------------------- one-sweep damping vs LFA

def _high_freq_modes(N, q):
    cut = N // q
    for k in range(1, N):
        for l in range(1, N):
            if not (k < cut and l < cut):
                yield k, l


def _scaled_norm(v, alpha):
    # the sqrt(alpha)-weighted block norm; the CJR error symbol is normal in
    # it, so a single sweep respects the spectral radius (the plain norm
    # admits large non-normal transients of the y-component)
    return float(np.sqrt(alpha * np.sum(v[0] ** 2) + np.sum(v[1] ** 2)))


def test_one_sweep_mode_damping_cjr():
    N, alpha = 64, 1e-6
    g = GridSpec(N)
    op = SaddleOperator(g, alpha=alpha)
    rep = cjr_optimal(LfaParams(q=2, alpha=alpha, h=g.h))
    b = np.zeros((2, g.m, g.m))
    worst = 0.0
    for k, l in _high_freq_modes(N, 2):
        mode = _sine_mode(g, k, l)
        v = np.stack([mode / np.sqrt(alpha), mode])
        v1 = v + cjr_apply(residual(op, b, v), op, rep.omega)
        worst = max(worst, _scaled_norm(v1, alpha) / _scaled_norm(v, alpha))
    assert worst <= rep.mu + 0.05


def test_one_sweep_mode_damping_bsr():
    N, alpha = 64, 1e-6
    g = GridSpec(N)
    op = SaddleOperator(g, alpha=alpha)
    omega, bound = bsr_damping(2)
    spec = SmootherSpec("bsr", omega=omega)
    sp = SchurSpectral(g, alpha)
    b = np.zeros((2, g.m, g.m))
    worst_plain = worst_scaled = 0.0
    for k, l in _high_freq_modes(N, 2):
        mode = _sine_mode(g, k, l)
        v = np.stack([mode, mode])
        v1 = v + bsr_apply(residual(op, b, v), op, spec, schur_solve=sp.solve)
        worst_plain = max(worst_plain, block_norm2(v1) / block_norm2(v))
        worst_scaled = max(worst_scaled, _scaled_norm(v1, alpha) / _scaled_norm(v, alpha))
    assert worst_plain <= bound + 0.05
    assert worst_scaled <= bound + 0.05


@pytest.mark.parametrize("kind, owner, name", [
    ("cjr", smoothers, "cjr_apply"), ("bsr", smoothers, "bsr_apply"),
    ("bsr", SchurSpectral, "solve"), ("ibsr", smoothers, "bsr_apply"),
    ("ibsr", smoothers, "pcg"), ("ibsr", smoothers, "schur_apply"),
], ids=lambda x: getattr(x, "__name__", x))
def test_relax_looks_its_kernels_up_at_each_call(monkeypatch, kind, owner, name):
    # the benchmark times each kernel by rebinding it after the hierarchy is built
    lev = build_hierarchy(16, 2, 1e-2, SmootherSpec(kind)).levels[0]
    inner, calls = getattr(owner, name), []

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    lev.relax(_rand_block(lev.op.grid, _rng(14)))
    assert calls


# ---------------------------------------------------------------- spec validation

def test_spec_validation():
    for kind in SCHEMES:
        assert SmootherSpec(kind).kind == kind
    with pytest.raises(ValueError):
        SmootherSpec("gauss-seidel")
    with pytest.raises(ValueError):
        SmootherSpec("cjr", omega=-1.0)
    with pytest.raises(ValueError):
        SmootherSpec("ibsr", pcg_iters=0)


def test_spec_rejects_nan_omega():
    with pytest.raises(ValueError, match="omega"):
        SmootherSpec("cjr", omega=float("nan"))


def test_spec_rejects_infinite_omega():
    # it used to be accepted; a correction damped by it is not finite
    with pytest.raises(ValueError, match="omega must be positive and finite, got inf"):
        SmootherSpec("cjr", omega=float("inf"))


@pytest.mark.parametrize("kind", SCHEMES)
def test_unresolved_omega_is_rejected_before_relaxing(kind):
    # cjr used to fail inside numpy and bsr/ibsr on an assert that -O strips
    op = SaddleOperator(GridSpec(8), alpha=1e-2)
    with pytest.raises(ValueError, match="omega must be resolved"):
        relaxation(op, SmootherSpec(kind))
    if kind != "cjr":
        with pytest.raises(ValueError, match="omega must be resolved"):
            bsr_apply(_rand_block(op.grid, _rng()), op, SmootherSpec(kind))
