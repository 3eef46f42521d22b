import numpy as np
import pytest

from gsqg import basis as basis_module
from gsqg import commutators, weakform
from gsqg.basis import QuadratureGrid, SpectralField, _lambda_power, build_rectangle_basis
from gsqg.commutators import comm_lambda_mult, comm_neg_lambda_mult, multiplier_catalog
from gsqg.fractional import apply_lambda_power
from gsqg.weakform import classical_transport, n2, n2_alt, n_total
from gsqg.weakform import test_function_catalog as catalog

PI = np.pi


@pytest.fixture
def basis():
    return build_rectangle_basis(5)


@pytest.fixture
def theta(basis):
    rng = np.random.default_rng(4)
    c = rng.standard_normal(basis.size)
    return SpectralField(basis, c / np.linalg.norm(c))


def test_catalog_functions_vanish_at_boundary():
    grid = QuadratureGrid(32)
    X, Y = grid.meshgrid()
    for name, phi in catalog().items():
        vals = phi.on(grid)
        assert np.isfinite(vals).all(), name
        # quartic boundary vanishing: tiny near-edge values
        edge = max(
            np.abs(vals[0]).max(), np.abs(vals[-1]).max(),
            np.abs(vals[:, 0]).max(), np.abs(vals[:, -1]).max(),
        )
        assert edge < np.abs(vals).max() * 1e-2, name


def test_catalog_gradients_match_finite_differences():
    # test functions and multipliers alike: w1inf_norm reads the gradients
    h = 1e-6
    pts = [(0.7, 1.1), (2.0, 2.5), (1.3, 0.4)]
    for name, a in (catalog() | multiplier_catalog()).items():
        for x, y in pts:
            gx = (a.fn(x + h, y) - a.fn(x - h, y)) / (2 * h)
            gy = (a.fn(x, y + h) - a.fn(x, y - h)) / (2 * h)
            assert a.grad_x(x, y) == pytest.approx(gx, abs=1e-7), name
            assert a.grad_y(x, y) == pytest.approx(gy, abs=1e-7), name


def test_each_weak_form_makes_one_product_call_on_psi_powers(monkeypatch, theta):
    # one product call per weak form, on one stack of psi's distinct powers:
    # (1, alpha) for n_total's two halves, (1, delta, alpha) for n2_alt's two
    # terms; products go through the multiplier's factors, so neither these
    # forms nor the multiplier commutators synthesize or analyze a grid array
    stacks = []
    real = weakform._mult_products

    def counting(fn, N, F, bands):
        stacks.append(F.shape[:-2])
        return real(fn, N, F, bands)

    def no_grid(*args):
        raise AssertionError("a grid transform ran")

    monkeypatch.setattr(weakform, "_mult_products", counting)
    for module in (basis_module, commutators, weakform):
        for name in ("_synthesize_square", "_analyze_square"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_grid)
    psi = apply_lambda_power(theta, -0.4)
    phi = catalog()["quartic"]
    n_total(psi, phi, 0.4)
    assert stacks == [(2,)]
    stacks.clear()
    n2_alt(psi, phi, 0.4, delta=0.2)
    assert stacks == [(3,)]
    stacks.clear()
    n2(psi, phi, 0.4)
    assert stacks == [(2,)]
    a = multiplier_catalog()["cos_xy"]
    comm_neg_lambda_mult(a, psi, 0.4)
    comm_lambda_mult(a, psi, 0.4)


def test_only_n1_builds_its_left_factor(monkeypatch, theta):
    # N1's left factor is the commutator (power 0, power -1) of the projected
    # gradient of every power; the N2 forms differentiate power 0 alone
    grads, comms = [], []
    real_grad, real_comm = weakform._gradient_coeffs, weakform._commutator

    def grad(F, N, K_out):
        grads.append(F.shape[:-2])
        return real_grad(F, N, K_out)

    def comm(T, w, i, j):
        comms.append((i, j))
        return real_comm(T, w, i, j)

    monkeypatch.setattr(weakform, "_gradient_coeffs", grad)
    monkeypatch.setattr(weakform, "_commutator", comm)
    psi = apply_lambda_power(theta, -0.4)
    phi = catalog()["quartic"]
    n_total(psi, phi, 0.4)
    assert grads == [(2,)] and (0, -1) in comms
    for form in (lambda: n2(psi, phi, 0.4), lambda: n2_alt(psi, phi, 0.4, delta=0.2)):
        grads.clear()
        comms.clear()
        form()
        assert grads == [(1,)] and (0, -1) not in comms


def test_lambda_power_is_one_read_only_square_per_cutoff_and_power(theta, monkeypatch):
    lam_s = _lambda_power(24, 0.4)
    assert _lambda_power(24, 0.4) is lam_s and not lam_s.flags.writeable
    wav2 = np.arange(1, 25.0) ** 2
    assert np.array_equal(lam_s, (wav2[:, None] + wav2) ** 0.2)
    weights = commutators._band_weights(((24, 10), (10, 24)), 0.4)
    assert commutators._band_weights(((24, 10), (10, 24)), 0.4) is weights
    assert all(np.shares_memory(w, lam_s) for w in weights)
    stack = commutators._lambda_stack(24, (0.0, 0.4))
    assert np.array_equal(stack, [_lambda_power(24, 0.0), lam_s])
    pos = theta.basis.flat_positions(theta.basis.K)
    assert theta.basis.flat_positions(theta.basis.K) is pos
    for a in (*weights, stack, pos):
        assert not a.flags.writeable
    # every cache the weak forms read is bounded
    caches = (_lambda_power, commutators._lambda_stack, commutators._band_weights,
              basis_module._gradient_projection, basis_module._sine_matrix,
              basis_module._cosine_matrix, basis_module.sample,
              commutators._cross_factors, commutators._product_maps)
    assert all(c.cache_parameters()["maxsize"] is not None for c in caches)
    # a second round of the forms builds nothing: no mode arrays, and flat
    # positions only for a basis's own cutoff, which it built with itself
    psi = apply_lambda_power(theta, -0.4)
    phi = catalog()["quartic"]
    forms = (lambda: n_total(psi, phi, 0.4), lambda: n2_alt(psi, phi, 0.4),
             lambda: classical_transport(theta, 0.4, phi))
    for f in forms:
        f()
    built = [c.cache_info().misses for c in caches]

    def no_mode_arrays(self):
        raise AssertionError("mode_arrays called")

    def own_positions(self, K):
        assert K == self.K, f"flat positions for K = {K} built on a basis of K = {self.K}"
        return self._flat

    monkeypatch.setattr(basis_module.EigenBasis, "mode_arrays", no_mode_arrays)
    monkeypatch.setattr(basis_module.EigenBasis, "flat_positions", own_positions)
    for f in forms:
        f()
    assert [c.cache_info().misses for c in caches] == built


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_n2_equals_n2_alt(theta, alpha):
    psi = apply_lambda_power(theta, -alpha)
    phi = catalog()["skew_bump"]
    base = n2(psi, phi, alpha)
    scale = max(1.0, abs(base))
    for delta in (0.1, 0.2, 0.28):
        if delta >= min(alpha, 1.0 - alpha):
            continue
        assert abs(n2_alt(psi, phi, alpha, delta) - base) < 1e-6 * scale


@pytest.mark.parametrize("pad", [float("nan"), float("inf")])
def test_non_finite_pad_is_refused_by_name(theta, pad):
    psi = apply_lambda_power(theta, -0.5)
    with pytest.raises(ValueError, match=f"pad must be finite and >= 1, got {pad}"):
        n_total(psi, catalog()["quartic"], 0.5, pad=pad)


def test_n2_alt_delta_out_of_range(theta):
    psi = apply_lambda_power(theta, -0.5)
    phi = catalog()["quartic"]
    with pytest.raises(ValueError, match="delta"):
        n2_alt(psi, phi, 0.5, delta=0.6)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("name", ["quartic", "sine_bump", "skew_bump"])
def test_weak_form_matches_classical_transport(theta, alpha, name):
    # the commutator representation reproduces int theta u . grad phi
    phi = catalog()[name]
    psi = apply_lambda_power(theta, -alpha)
    ct = classical_transport(theta, alpha, phi)
    nt = n_total(psi, phi, alpha, pad=4.0).n_total
    assert abs(ct - nt) < 1e-4 * max(1.0, abs(ct))


def test_weak_form_padding_refinement(theta):
    alpha = 0.5
    phi = catalog()["quartic"]
    psi = apply_lambda_power(theta, -alpha)
    ct = classical_transport(theta, alpha, phi)
    errs = [abs(ct - n_total(psi, phi, alpha, pad=p).n_total) for p in (2.0, 4.0, 8.0)]
    assert errs[0] > errs[1] > errs[2]


def test_weak_form_value_consistency(theta):
    v = n_total(apply_lambda_power(theta, -0.5), catalog()["quartic"], 0.5)
    assert v.n_total == pytest.approx(0.5 * (v.n1 - v.n2))


def test_transport_antisymmetry_mechanism(basis):
    # phi equal to a constant has zero gradient: transport vanishes
    rng = np.random.default_rng(5)
    theta = SpectralField(basis, rng.standard_normal(basis.size))
    phi = catalog()["quartic"]
    val = classical_transport(theta, 0.5, phi)
    assert np.isfinite(val)
    # scaling: transport is quadratic in theta
    theta2 = SpectralField(basis, 2.0 * theta.coeffs)
    assert classical_transport(theta2, 0.5, phi) == pytest.approx(4.0 * val)


def test_catalogs_are_built_once():
    for build in (catalog, multiplier_catalog):
        first, second = build(), build()
        assert first is not second
        assert first.keys() == second.keys()
        assert all(first[name] is second[name] for name in first)


def test_analytic_samples_are_read_only_and_exact():
    grid = QuadratureGrid(20)
    X, Y = grid.meshgrid()
    for a in (catalog() | multiplier_catalog()).values():
        expected = {
            "on": np.broadcast_to(a.fn(X, Y), X.shape),
            "grad_on": np.stack([np.broadcast_to(g(X, Y), X.shape) for g in (a.grad_x, a.grad_y)]),
        }
        for method, want in expected.items():
            vals = getattr(a, method)(grid)
            assert np.array_equal(vals, want), (a.name, method)
            assert getattr(a, method)(grid) is vals
            with pytest.raises(ValueError):
                vals[..., 0, 0] = 1.0


def _weak_values(K, seed=9, alpha=0.4):
    b = build_rectangle_basis(K)
    rng = np.random.default_rng(seed)
    theta = SpectralField(b, rng.standard_normal(b.size) / b.eigenvalues)
    psi = apply_lambda_power(theta, -alpha)
    phi = catalog()["skew_bump"]
    v = n_total(psi, phi, alpha)
    return (v.n1, v.n2, v.n_total, n2_alt(psi, phi, alpha),
            classical_transport(theta, alpha, phi))


def test_weak_forms_repeat_bit_identically_across_cutoffs():
    first = _weak_values(4)
    assert _weak_values(4) == first
    other = _weak_values(6)
    assert other != first
    assert _weak_values(4) == first
    assert _weak_values(6) == other
