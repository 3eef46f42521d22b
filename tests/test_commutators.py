import numpy as np
import pytest
from scipy.special import roots_legendre

from gsqg import commutators
from gsqg.basis import SpectralField, build_rectangle_basis, embed, sample
from gsqg.commutators import (
    Multiplier,
    comm_lambda_grad,
    comm_lambda_mult,
    comm_neg_lambda_mult,
    monitor_bounds,
    multiplier_catalog,
    padded_basis,
    padded_grid,
)
from gsqg.fractional import apply_lambda_power
from gsqg.weakform import test_function_catalog as catalog

PI = np.pi


@pytest.fixture
def basis():
    return build_rectangle_basis(5)


@pytest.fixture
def field(basis):
    rng = np.random.default_rng(3)
    c = rng.standard_normal(basis.size)
    return SpectralField(basis, c / np.linalg.norm(c))


def _gauss_project(values_fn, basis, n=120):
    """Project a function onto the sine basis with Gauss-Legendre quadrature.

    Independent of the package's uniform-grid transforms.
    """
    x, w = roots_legendre(n)
    x = 0.5 * PI * (x + 1.0)
    w = 0.5 * PI * w
    X, Y = np.meshgrid(x, x, indexing="ij")
    vals = values_fn(X, Y)
    coeffs = np.empty(basis.size)
    for i, m in enumerate(basis.modes):
        wjk = (2.0 / PI) * np.sin(m.j * X) * np.sin(m.k * Y)
        coeffs[i] = np.einsum("x,xy,y->", w, vals * wjk, w)
    return coeffs


def test_neg_mult_commutator_gauss_oracle():
    # low-mode input, multiplier cos(x)cos(y): compare against an all
    # Gauss-Legendre reconstruction of Lambda^{-s}(a f) - a Lambda^{-s} f
    basis = build_rectangle_basis(3)
    f = SpectralField(basis, np.eye(basis.size)[1])
    a = multiplier_catalog()["cos_xy"]
    s = 0.6
    got = comm_neg_lambda_mult(a, f, s, pad=4.0)
    big = got.basis

    def afun(X, Y, g):
        total = np.zeros_like(X)
        for i, m in enumerate(big.modes):
            if g[i] != 0:
                total += g[i] * (2.0 / PI) * np.sin(m.j * X) * np.sin(m.k * Y)
        return total

    f_big = embed(f, big).coeffs
    af = _gauss_project(lambda X, Y: np.cos(X) * np.cos(Y) * afun(X, Y, f_big), big)
    term1 = big.eigenvalues ** (-s / 2.0) * af
    lam_f = big.eigenvalues ** (-s / 2.0) * f_big
    term2 = _gauss_project(lambda X, Y: np.cos(X) * np.cos(Y) * afun(X, Y, lam_f), big)
    expected = term1 - term2
    assert np.abs(got.coeffs - expected).max() < 1e-10


def test_constant_multiplier_commutes(field):
    a = multiplier_catalog()["one"]
    for s in (0.3, 0.8):
        c = comm_neg_lambda_mult(a, field, s)
        assert np.abs(c.coeffs).max() < 1e-14
        c = comm_lambda_mult(a, field, s)
        assert np.abs(c.coeffs).max() < 1e-14


@pytest.mark.parametrize("s", [0.3, 0.7])
@pytest.mark.parametrize("name", ["coord_x", "cos_xy", "bump4"])
def test_adjoint_identity(field, s, name):
    # Lambda^{-s} [Lambda^s, a] f = [a, Lambda^{-s}] Lambda^s f exactly on the
    # truncated basis, at any padding
    a = multiplier_catalog()[name]
    lhs = apply_lambda_power(comm_lambda_mult(a, field, s), -s)
    rhs = comm_neg_lambda_mult(a, apply_lambda_power(field, s), s)
    err = np.linalg.norm(lhs.coeffs + rhs.coeffs)
    assert err < 1e-8 * np.linalg.norm(field.coeffs)


def test_comm_lambda_grad_vanishes_linearly_as_s_to_zero(field):
    # the commutator [Lambda^s, grad] tends to zero linearly in s; the
    # constant reflects log(lambda) spread, order one for this band
    norms = {}
    for s in (1e-4, 1e-6, 1e-8):
        c = comm_lambda_grad(field, s, pad=2.0)
        norms[s] = np.abs(c.values).max()
    assert norms[1e-6] < 1e-2
    assert norms[1e-6] / norms[1e-4] == pytest.approx(1e-2, rel=0.05)
    assert norms[1e-8] / norms[1e-6] == pytest.approx(1e-2, rel=0.05)


def test_comm_lambda_grad_single_mode_oracle():
    # for one eigenmode w with eigenvalue mu, the projected commutator has
    # sine coefficients g_l (lambda_l^{s/2} - mu^{s/2}) where g is the
    # projection of grad w; reconstructable by hand from the transforms
    from gsqg.basis import GridField, analyze, gradient, synthesize

    basis = build_rectangle_basis(2)
    f = SpectralField(basis, np.eye(basis.size)[0])
    mu = basis.eigenvalues[0]
    s = 0.5
    c = comm_lambda_grad(f, s, pad=4.0)
    big = padded_basis(basis, 4.0)
    grid = padded_grid(big)
    g = analyze(GridField(grid, gradient(embed(f, big), grid).values[0]), big)
    factor = big.eigenvalues ** (s / 2.0) - mu ** (s / 2.0)
    expected = synthesize(SpectralField(big, factor * g.coeffs), grid).values
    assert np.abs(c.values[0] - expected).max() < 1e-12


def test_monitor_bounds_reports(field):
    kinds = [
        ("lambda_grad", {"s": 0.5}),
        ("neg_mult", {"s": 0.5}),
        ("pos_mult", {"s": 0.3, "gamma": 0.5}),
        ("pos_mult", {"s": 0.3, "gamma": 1.0}),
        ("gain", {"s": 0.5}),
    ]
    for kind, exps in kinds:
        for name, a in multiplier_catalog().items():
            rep = monitor_bounds(kind, a, field, **exps)
            assert rep.kind == kind
            assert np.isfinite(rep.ratio) and rep.ratio >= 0, (kind, name)
            # a constant commutes with Lambda^s: only round-off remains
            if kind != "lambda_grad":
                assert (rep.ratio < 1e-12) == (name == "one"), (kind, name)


@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_pos_mult_of_a_constant_reads_zero(field, gamma):
    # the rhs is exactly 0 (a constant's Holder seminorm), the lhs round-off
    rep = monitor_bounds("pos_mult", multiplier_catalog()["one"], field, s=0.3, gamma=gamma)
    assert rep.rhs_norm == 0.0
    assert 0.0 < rep.lhs_norm < 1e-12
    assert rep.ratio == 0.0


def _holder_seminorm_one_shot(a, grid, gamma):
    """Multiplier.holder_seminorm over all node pairs at once, the oracle of
    its chunked form."""
    X, Y = grid.meshgrid()
    sub = (slice(None, None, 4),) * 2
    pts = np.stack([X[sub].ravel(), Y[sub].ravel()], 1)
    vals = a.on(grid)[sub].ravel()
    diff = np.abs(vals[:, None] - vals[None, :])
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    mask = dist > 0
    return float((diff[mask] / dist[mask] ** gamma).max())


@pytest.mark.parametrize("K", range(5, 17))
def test_chunked_holder_seminorm_equals_one_shot(monkeypatch, K):
    # the grid pos_mult uses at cutoff K; 5,000 pairs per chunk also split
    # the node rows unevenly
    grid = padded_grid(padded_basis(build_rectangle_basis(K), 4.0))
    for name, a in multiplier_catalog().items():
        for gamma in (0.5, 1.0):
            want = _holder_seminorm_one_shot(a, grid, gamma)
            assert a.holder_seminorm(grid, gamma) == want, (name, gamma)
            with monkeypatch.context() as mp:
                mp.setattr(commutators, "HOLDER_PAIRS", 5000)
                assert a.holder_seminorm(grid, gamma) == want, (name, gamma)


def test_nonzero_commutator_over_a_zero_rhs_raises(field, monkeypatch):
    monkeypatch.setattr(Multiplier, "holder_seminorm", lambda self, grid, gamma: 0.0)
    with pytest.raises(ValueError, match="non-finite observed ratio"):
        monitor_bounds("pos_mult", multiplier_catalog()["cos_xy"], field, s=0.3, gamma=0.5)


def test_monitor_bounds_ratio_stability(basis):
    # empirical sweep: ratios across random fields stay within two decades
    a = multiplier_catalog()["bump4"]
    rng = np.random.default_rng(7)
    ratios = []
    for _ in range(20):
        c = rng.standard_normal(basis.size)
        f = SpectralField(basis, c / np.linalg.norm(c))
        ratios.append(monitor_bounds("neg_mult", a, f, s=0.5).ratio)
    assert max(ratios) / min(ratios) < 1e2


def test_monitor_bounds_validates_exponents(field):
    a = multiplier_catalog()["bump4"]
    with pytest.raises(ValueError, match="s < d/p"):
        monitor_bounds("neg_mult", a, field, s=1.5, p=2.0)
    with pytest.raises(ValueError, match="s < gamma"):
        monitor_bounds("pos_mult", a, field, s=0.8, gamma=0.5)
    with pytest.raises(ValueError, match="unknown bound kind"):
        monitor_bounds("bogus", a, field, s=0.5)


def test_padded_basis_and_grid(basis):
    big = padded_basis(basis, 4.0)
    assert big.K == 2 * basis.K
    grid = padded_grid(big)
    assert grid.N == 3 * big.K
    with pytest.raises(ValueError):
        padded_basis(basis, 0.5)


def test_commutator_range_validation(field):
    a = multiplier_catalog()["cos_xy"]
    with pytest.raises(ValueError):
        comm_lambda_mult(a, field, 1.5)
    with pytest.raises(ValueError):
        comm_neg_lambda_mult(a, field, -0.3)
    with pytest.raises(ValueError):
        comm_lambda_grad(field, 2.5)


@pytest.mark.parametrize("N", [30, 144])
def test_cross_factors_meet_the_residual_bound_at_the_catalog_ranks(N):
    # every catalog multiplier and the separable test functions' gradients
    # have rank 1, the skew bump's gradient components rank 3
    want = {a._values: [1] for a in multiplier_catalog().values()}
    for name, phi in catalog().items():
        want[phi._grad_values] = [3, 3] if name == "skew_bump" else [1, 1]
    for fn, ranks in want.items():
        factors = commutators._cross_factors(fn, N)
        assert commutators._cross_factors(fn, N) is factors
        assert [U.shape[1] for U, _ in factors] == ranks
        for a, (U, V) in zip(sample(fn, N).reshape(-1, N, N), factors):
            assert U.shape == V.shape and not (U.flags.writeable or V.flags.writeable)
            assert np.abs(U @ V.T - a).max() <= N * np.finfo(float).eps * np.abs(a).max()


def test_cross_factors_of_zero_and_non_finite_multipliers():
    # a zero multiplier has rank 0 and zero products; a nan sample is refused
    zero = Multiplier("zero", lambda x, y: 0.0, lambda x, y: 0.0, lambda x, y: 0.0)
    ((U, V),) = commutators._cross_factors(zero._values, 12)
    assert U.shape == V.shape == (12, 0)
    F = np.ones((2, 3, 3))
    (P,) = commutators._mult_products(zero._values, 12, F, [(5, 3)])
    assert P.shape == (2, 5, 3) and not P.any()
    bad = Multiplier("bad", lambda x, y: np.where(x > 1, np.nan, 1.0), None, None)
    with pytest.raises(ValueError, match="finite"):
        commutators._cross_factors(bad._values, 12)
