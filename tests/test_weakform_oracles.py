"""The coefficient-space weak forms against the grid route they replaced.

The grid route embeds every field into the padded basis (zero padding),
synthesizes every gradient and every multiplier product on the padded grid
and analyzes it back onto the full padded sine basis, one field and one
snapshot at a time, and integrates N1 on the grid.  It stays here as the
oracle of the coefficient-space factors and pairings of n1, n2 and n2_alt,
of the batched weak_continuity_terms, of the band-limited commutators, of
the multiplier products from low-rank factors (commutators._mult_products)
and of basis._gradient_projection.  The grid integral _transport is the
oracle of the factored classical_transport.  The weak forms and the
transport leave the grid to these oracles, and the commutators to
comm_lambda_grad's output.  Closed-form sums of the eigenfunctions are the
oracle of synthesize and gradient.

The coefficient-space route the pairings replaced, commutator arrays
w T_i - T_j paired by (a * b).sum, stays here too, as the oracle of the
expanded dot-product pairings of every weak form and of
weak_continuity_terms; the same route on absolute values gives each
pairing's sum of absolute terms, the scale of its rounding.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsqg import basis as basis_module
from gsqg import commutators, experiments, weakform
from gsqg.basis import (
    GridField,
    QuadratureGrid,
    SpectralField,
    _analyze_square,
    _coeff_square,
    _gradient_coeffs,
    _gradient_projection,
    _gradient_square,
    _lambda_power,
    _synthesize_square,
    analyze,
    build_rectangle_basis,
    embed,
    gradient,
    sample,
    synthesize,
)
from gsqg.commutators import (
    Multiplier,
    _band_weights,
    _cross_factors,
    _mult_products,
    _power_stack,
    _product_maps,
    comm_lambda_grad,
    comm_lambda_mult,
    comm_neg_lambda_mult,
    multiplier_catalog,
    padded_basis,
    padded_grid,
)
from gsqg.experiments import weak_continuity_terms
from gsqg.fractional import apply_lambda_power
from gsqg.galerkin import SimConfig, Trajectory
from gsqg.weakform import classical_transport, n1, n2, n2_alt, n_total
from gsqg.weakform import test_function_catalog as catalog

from oracles import perp_gradient


def _comm_lambda_grad_perp(psi_b, s, grid):
    """[Lambda^s, perp-grad] psi_b on the grid; both gradients are sampled
    and projected back before the commutator is taken."""
    big = psi_b.basis
    grad_psi = gradient(psi_b, grid)
    grad_lam_psi = gradient(apply_lambda_power(psi_b, s), grid)
    out = np.stack(
        [
            synthesize(
                SpectralField(
                    big,
                    apply_lambda_power(analyze(GridField(grid, g1), big), s).coeffs
                    - analyze(GridField(grid, g2), big).coeffs,
                ),
                grid,
            ).values
            for g1, g2 in zip(grad_psi.values, grad_lam_psi.values)
        ]
    )
    return np.stack([-out[1], out[0]])


def _comm_mult(a_grid, f_b, s, grid):
    """[Lambda^s, a] f_b in the basis of f_b, by grid products with the
    grid samples a_grid of a."""
    big = f_b.basis
    af = analyze(GridField(grid, a_grid * synthesize(f_b, grid).values), big)
    lam_f = synthesize(apply_lambda_power(f_b, s), grid).values
    term2 = analyze(GridField(grid, a_grid * lam_f), big)
    return apply_lambda_power(af, s).coeffs - term2.coeffs


def _n1_pair(psi_a, psi_b, phi, alpha, grid):
    """int [Lambda^alpha, perp-grad] psi_a . grad(phi) psi_b dx."""
    comm = _comm_lambda_grad_perp(psi_a, alpha, grid)
    grad_phi = phi.grad_on(grid)
    vals = (comm[0] * grad_phi[0] + comm[1] * grad_phi[1]) * synthesize(psi_b, grid).values
    return float(grid.weight * vals.sum())


def _n2_pair(psi_left, psi_right, phi, grid, lexp, s, rexp):
    """<Lambda^lexp P perp-grad psi_left, -Lambda [Lambda^{-s}, grad phi] Lambda^rexp psi_right>."""
    big = psi_left.basis
    pg = perp_gradient(psi_left, grid)
    left = [apply_lambda_power(analyze(GridField(grid, c), big), lexp) for c in pg.values]
    f = apply_lambda_power(psi_right, rexp)
    total = 0.0
    for comp, a_grid in zip(left, phi.grad_on(grid)):
        right = apply_lambda_power(SpectralField(big, -_comm_mult(a_grid, f, -s, grid)), 1.0)
        total += float(np.dot(comp.coeffs, right.coeffs))
    return total


def _shift(alpha, delta):
    return -1.0 + alpha - delta, alpha - delta, alpha


def _plain(alpha, delta):
    return -1.0 + alpha, delta, delta


def _padded(psi, pad):
    big = padded_basis(psi.basis, pad)
    return embed(psi, big), padded_grid(big)


def _n1_grid(psi, phi, alpha, pad):
    psi_b, grid = _padded(psi, pad)
    return _n1_pair(psi_b, psi_b, phi, alpha, grid)


def _n2_grid(psi, phi, alpha, pad):
    psi_b, grid = _padded(psi, pad)
    return _n2_pair(psi_b, psi_b, phi, grid, -1.0 + alpha, alpha, alpha)


def _n2_alt_grid(psi, phi, alpha, delta, pad):
    psi_b, grid = _padded(psi, pad)
    return (_n2_pair(psi_b, psi_b, phi, grid, *_shift(alpha, delta))
            + _n2_pair(psi_b, psi_b, phi, grid, *_plain(alpha, delta)))


def _weak_continuity_per_snapshot(traj_eps, traj_ref, phi, delta, pad=4.0):
    """weak_continuity_terms with one snapshot and one term per call."""
    alpha = traj_eps.config.alpha
    big = padded_basis(traj_eps.basis, pad)
    grid = padded_grid(big)
    shift, plain = _shift(alpha, delta), _plain(alpha, delta)
    n_t = len(traj_eps.times)
    terms = np.zeros((n_t, 6))
    two_dn = np.zeros(n_t)
    for i in range(n_t):
        psi_e = embed(apply_lambda_power(traj_eps.state_at(i), -alpha), big)
        psi_r = embed(apply_lambda_power(traj_ref.state_at(i), -alpha), big)
        dpsi = SpectralField(big, psi_e.coeffs - psi_r.coeffs)
        terms[i] = (
            _n1_pair(dpsi, psi_e, phi, alpha, grid),
            _n1_pair(psi_r, dpsi, phi, alpha, grid),
            -_n2_pair(dpsi, psi_e, phi, grid, *shift),
            -_n2_pair(psi_r, dpsi, phi, grid, *shift),
            -_n2_pair(dpsi, psi_r, phi, grid, *plain),
            -_n2_pair(psi_e, dpsi, phi, grid, *plain),
        )
        ne = 0.5 * (_n1_grid(psi_e, phi, alpha, 1.0) - _n2_alt_grid(psi_e, phi, alpha, delta, 1.0))
        nr = 0.5 * (_n1_grid(psi_r, phi, alpha, 1.0) - _n2_alt_grid(psi_r, phi, alpha, delta, 1.0))
        two_dn[i] = 2.0 * (ne - nr)
    t = traj_eps.times
    out = {f"I{j + 1}": float(np.trapezoid(terms[:, j], t)) for j in range(6)}
    out["sum"] = float(np.trapezoid(terms.sum(axis=1), t))
    out["two_delta_n"] = float(np.trapezoid(two_dn, t))
    return out


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


alphas = st.floats(0.05, 0.95)
cutoffs = st.integers(3, 12)
pads = st.sampled_from([1.0, 2.0, 4.0, 8.0])
seeds = st.integers(0, 2**32 - 1)
phis = st.sampled_from(sorted(catalog()))


@settings(max_examples=30, deadline=None)
@given(alpha=alphas, K=cutoffs, pad=pads, seed=seeds, name=phis)
def test_weak_forms_equal_grid_route(alpha, K, pad, seed, name):
    basis = build_rectangle_basis(K)
    rng = np.random.default_rng(seed)
    psi = SpectralField(basis, rng.standard_normal(basis.size) / basis.eigenvalues)
    phi = catalog()[name]
    delta = 0.5 * min(alpha, 1.0 - alpha)
    assert _close(n1(psi, phi, alpha, pad), _n1_grid(psi, phi, alpha, pad))
    assert _close(n2(psi, phi, alpha, pad), _n2_grid(psi, phi, alpha, pad))
    assert _close(n2_alt(psi, phi, alpha, pad=pad), _n2_alt_grid(psi, phi, alpha, delta, pad))


def _fake_trajectory(basis, m, alpha, times, rng):
    cfg = SimConfig(alpha=alpha, m=m, dt=float(times[1] - times[0]), T=float(times[-1]),
                    stride=1)
    snaps = rng.standard_normal((len(times), m)) / basis.eigenvalues[:m]
    return Trajectory(cfg, basis, times, snaps, {})


@settings(max_examples=15, deadline=None)
@given(alpha=alphas, K=cutoffs, pad=pads, seed=seeds, n_t=st.integers(2, 8), name=phis)
# K = 3 at pad 1 and K = 8 at pad 4 each run their 8 snapshots in one
# block; test_weak_continuity_terms_do_not_depend_on_the_block covers blocks
@example(alpha=0.4, K=3, pad=1.0, seed=0, n_t=8, name="quartic")
@example(alpha=0.4, K=8, pad=4.0, seed=0, n_t=8, name="quartic")
def test_weak_continuity_terms_equal_per_snapshot_oracle(alpha, K, pad, seed, n_t, name):
    basis = build_rectangle_basis(K)
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 0.1, n_t)
    m_eps, m_ref = rng.integers(1, basis.size, endpoint=True, size=2)
    tr_e = _fake_trajectory(basis, int(m_eps), alpha, times, rng)
    tr_r = _fake_trajectory(basis, int(m_ref), alpha, times, rng)
    phi = catalog()[name]
    delta = 0.5 * min(alpha, 1.0 - alpha)
    got = weak_continuity_terms(tr_e, tr_r, phi, delta, pad)
    want = _weak_continuity_per_snapshot(tr_e, tr_r, phi, delta, pad)
    assert got.keys() == want.keys()
    for key in want:
        assert _close(got[key], want[key]), key


@settings(max_examples=10, deadline=None)
@given(alpha=alphas, K=cutoffs, pad=pads, seed=seeds, n_t=st.integers(2, 8), name=phis)
def test_weak_continuity_terms_do_not_depend_on_the_block(alpha, K, pad, seed, n_t, name):
    # a budget of one value runs one snapshot per block
    basis = build_rectangle_basis(K)
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 0.1, n_t)
    tr_e, tr_r = (_fake_trajectory(basis, basis.size, alpha, times, rng) for _ in range(2))
    phi = catalog()[name]
    delta = 0.5 * min(alpha, 1.0 - alpha)
    whole = weak_continuity_terms(tr_e, tr_r, phi, delta, pad)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "FACTOR_VALUES", 1)
        blocks = weak_continuity_terms(tr_e, tr_r, phi, delta, pad)
    for key in whole:
        assert _close(blocks[key], whole[key]), key


def _array_factors(A, phi, N, K_pad, alpha, delta=None, magnitude=False):
    """N1's factors (comm, r0) and N2's (perp, rights) of (..., K, K) squares
    A as commutator arrays w T_i - T_j, rights [n2's] or, with delta, [shift,
    plain]; with magnitude, every factor's absolute value and w |T_i| + |T_j|
    in place of each commutator."""
    sign = 1.0 if magnitude else -1.0
    lift = np.abs if magnitude else (lambda x: x)

    def comm(T, weights, i, j):
        return [w * t[..., i, :, :] + sign * t[..., j, :, :] for w, t in zip(weights, T)]

    K = A.shape[-1]
    bands = ((K, K_pad), (K_pad, K))
    F = _power_stack(A, (0.0, alpha) if delta is None else (0.0, delta, alpha))
    d_x, d_y = _gradient_coeffs(F, N, K_pad)
    perp = [lift(-d_y), lift(d_x)]
    R = [lift(r) for r in _mult_products(phi._grad_values, N, F, bands)]
    if delta is None:
        rights = [comm(R, _band_weights(bands, alpha), 0, 1)]
    else:
        w_shift = _band_weights(bands, alpha - delta)
        plain = comm(R, _band_weights(bands, delta), 0, 1)
        rights = [comm(R, w_shift, 1, 2), [w * c for w, c in zip(w_shift, plain)]]
    n1_left = comm(perp, _band_weights(bands, alpha), 0, -1)
    return n1_left, [t[..., 0, :, :] for t in perp], [t[..., 0, :, :] for t in R], rights


def _array_pair(left, right):
    return sum((a * b).sum(axis=(-2, -1)) for a, b in zip(left, right))


def _array_forms(A, phi, N, K_pad, alpha, delta, magnitude=False):
    """{n1, n2, shift, plain} of the squares A by the array route, one value
    per leading index; with magnitude, the sums of their absolute terms."""
    comm, perp, r0, (right,) = _array_factors(A, phi, N, K_pad, alpha, None, magnitude)
    *_, (shift, plain) = _array_factors(A, phi, N, K_pad, alpha, delta, magnitude)
    return {"n1": _array_pair(comm, r0), "n2": _array_pair(perp, right),
            "shift": _array_pair(perp, shift), "plain": _array_pair(perp, plain)}


def _array_transport(A, phi, N, alpha, magnitude=False):
    """classical_transport of theta's square A as sum A * (p1 - p0), or
    sum |A| (|p1| + |p0|)."""
    K = A.shape[-1]
    p0, p1 = _mult_products(
        phi._grad_values, N, _lambda_power(K, -alpha) * A, [(K, K)] * 2, (1, 0))
    if magnitude:
        return float(np.sum(np.abs(A) * (np.abs(p1) + np.abs(p0))))
    return float(np.sum(A * (p1 - p0)))


def _array_weak_continuity(traj_eps, traj_ref, phi, delta, pad, magnitude=False):
    """weak_continuity_terms by the array route, all snapshots in one block;
    with magnitude, the time integrals of the sums of absolute terms."""
    alpha = traj_eps.config.alpha
    big = padded_basis(traj_eps.basis, pad)
    sign = 1.0 if magnitude else -1.0
    pe, pr = (np.stack([_coeff_square(apply_lambda_power(tr.state_at(i), -alpha))
                        for i in range(len(tr.times))]) for tr in (traj_eps, traj_ref))
    comm, perp, r0, (shift, plain) = _array_factors(
        np.stack([pe - pr, pe, pr]), phi, padded_grid(big).N, big.K, alpha, delta, magnitude)
    d, e, r = 0, 1, 2

    def pair(left, right, li, ri):
        return _array_pair([c[li] for c in left], [c[ri] for c in right])

    v1 = pair(comm, r0, [d, r, e, r], [e, d, e, r])
    vs = pair(perp, shift, [d, r, e, r], [e, d, e, r])
    vp = pair(perp, plain, [d, e, e, r], [r, d, e, r])
    terms = np.stack([v1[0], v1[1], sign * vs[0], sign * vs[1], sign * vp[0], sign * vp[1]], 1)
    n_eps, n_ref = 0.5 * (v1[2:] + sign * vs[2:] + sign * vp[2:])
    t = traj_eps.times
    out = {f"I{j + 1}": float(np.trapezoid(terms[:, j], t)) for j in range(6)}
    out["sum"] = float(np.trapezoid(terms.sum(axis=1), t))
    out["two_delta_n"] = float(np.trapezoid(2.0 * (n_eps + sign * n_ref), t))
    return out


#: a pairing's rounding against its sum of absolute terms |x_i y_i|: 1.6e-16
#: at most over 300 random draws of K, pad, alpha, delta and phi, where a dot
#: product of n <= K K' = 1632 terms is bounded by n eps, 3.6e-13
PAIRING_RTOL = 1e-14

wide_cutoffs = st.integers(3, 24)
int_pads = st.integers(1, 8).map(float)
delta_fracs = st.floats(0.05, 0.95)


def _assert_paired_close(got, want, scale):
    assert np.all(np.abs(np.asarray(got) - want) <= PAIRING_RTOL * np.asarray(scale))


@settings(max_examples=40, deadline=None)
@given(alpha=alphas, frac=delta_fracs, K=wide_cutoffs, pad=int_pads, seed=seeds, name=phis,
       lead=st.lists(st.integers(1, 3), max_size=2))
@example(alpha=0.3, frac=0.5, K=24, pad=8.0, seed=0, name="skew_bump", lead=[2, 3])
def test_weak_forms_equal_commutator_array_route(alpha, frac, K, pad, seed, name, lead):
    basis = build_rectangle_basis(K)
    rng = np.random.default_rng(seed)
    phi = catalog()[name]
    delta = frac * min(alpha, 1.0 - alpha)
    big = padded_basis(basis, pad)
    N = padded_grid(big).N
    # the public forms of one field
    theta = SpectralField(basis, rng.standard_normal(basis.size) / basis.eigenvalues)
    psi = apply_lambda_power(theta, -alpha)
    A = _coeff_square(psi)
    want = _array_forms(A, phi, N, big.K, alpha, delta)
    scale = _array_forms(A, phi, N, big.K, alpha, delta, magnitude=True)
    v = n_total(psi, phi, alpha, pad)
    _assert_paired_close(n1(psi, phi, alpha, pad), want["n1"], scale["n1"])
    _assert_paired_close(n2(psi, phi, alpha, pad), want["n2"], scale["n2"])
    _assert_paired_close(v.n1, want["n1"], scale["n1"])
    _assert_paired_close(v.n2, want["n2"], scale["n2"])
    _assert_paired_close(v.n_total, 0.5 * (want["n1"] - want["n2"]),
                         0.5 * (scale["n1"] + scale["n2"]))
    _assert_paired_close(n2_alt(psi, phi, alpha, delta, pad), want["shift"] + want["plain"],
                         scale["shift"] + scale["plain"])
    At = _coeff_square(theta)
    _assert_paired_close(classical_transport(theta, alpha, phi, pad),
                         _array_transport(At, phi, N, alpha),
                         _array_transport(At, phi, N, alpha, magnitude=True))
    # every form of a leading batch of squares, one value per square
    A = rng.standard_normal((*lead, K, K)) * _lambda_power(K, -2.0)
    want = _array_forms(A, phi, N, big.K, alpha, delta)
    scale = _array_forms(A, phi, N, big.K, alpha, delta, magnitude=True)
    names = ("n1", "n2", "shift", "plain")
    got = weakform._forms(weakform._factors(A, phi, N, big.K, alpha, delta), alpha, delta, names)
    for key, value in zip(names, got):
        assert np.shape(value) == tuple(lead)
        _assert_paired_close(value, want[key], scale[key])


@settings(max_examples=20, deadline=None)
@given(alpha=alphas, frac=delta_fracs, K=wide_cutoffs, pad=int_pads, seed=seeds,
       n_t=st.integers(2, 6), name=phis)
def test_weak_continuity_terms_equal_commutator_array_route(alpha, frac, K, pad, seed, n_t, name):
    basis = build_rectangle_basis(K)
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 0.1, n_t)
    m_eps, m_ref = rng.integers(1, basis.size, endpoint=True, size=2)
    tr_e = _fake_trajectory(basis, int(m_eps), alpha, times, rng)
    tr_r = _fake_trajectory(basis, int(m_ref), alpha, times, rng)
    phi = catalog()[name]
    delta = frac * min(alpha, 1.0 - alpha)
    got = weak_continuity_terms(tr_e, tr_r, phi, delta, pad)
    want = _array_weak_continuity(tr_e, tr_r, phi, delta, pad)
    scale = _array_weak_continuity(tr_e, tr_r, phi, delta, pad, magnitude=True)
    assert got.keys() == want.keys()
    for key in want:
        assert abs(got[key] - want[key]) <= PAIRING_RTOL * scale[key], key


def _root_distance(X, Y):
    """|x - y|^(1/2): not smooth on the diagonal, of full numerical rank."""
    return np.abs(X - Y) ** 0.5


def _grid_products(fn, N, F, bands):
    """P(a F) by the grid route: F synthesized once on the N grid, times
    each sample a of fn, analyzed onto its band."""
    g = _synthesize_square(F, N)
    return [_analyze_square(a * g, rows, cols)
            for a, (rows, cols) in zip(sample(fn, N).reshape(-1, N, N), bands)]


def _sampled(name):
    """The sampled function of a catalog multiplier, or of a test function's
    gradient ("grad NAME"): one (N, N) sample, or a (2, N, N) stack."""
    if name.startswith("grad "):
        return catalog()[name[5:]]._grad_values
    return multiplier_catalog()[name]._values


def _assert_products_equal_grid_route(fn, N, F, bands):
    got = _mult_products(fn, N, F, bands)
    want = _grid_products(fn, N, F, bands)
    # the size of the pointwise terms a * synthesize(F) that the projection sums
    g = np.abs(_synthesize_square(F, N)).max()
    for a, x, w in zip(sample(fn, N).reshape(-1, N, N), got, want):
        assert x.shape == w.shape
        assert np.abs(x - w).max() <= 1e-13 * np.abs(a).max() * g


band_kinds = st.sampled_from(["K,K'", "K',K", "K',K'", "K,K"])


@settings(max_examples=60, deadline=None)
@given(K=cutoffs, pad=pads, seed=seeds, lead=st.lists(st.integers(1, 3), max_size=2),
       kinds=st.lists(band_kinds, min_size=2, max_size=2),
       name=st.sampled_from(sorted(multiplier_catalog()) + [f"grad {n}" for n in sorted(catalog())]))
def test_multiplier_products_equal_grid_route(K, pad, seed, lead, kinds, name):
    # power stacks with any leading axes, each multiplier onto its own band
    big = padded_basis(build_rectangle_basis(K), pad)
    N = padded_grid(big).N
    sizes = {"K": K, "K'": big.K}
    bands = [tuple(sizes[b] for b in kind.split(",")) for kind in kinds]
    F = np.random.default_rng(seed).standard_normal((*lead, K, K))
    _assert_products_equal_grid_route(_sampled(name), N, F, bands)


@settings(max_examples=20, deadline=None)
@given(K=st.integers(2, 6), extra=st.integers(1, 12), seed=seeds, kind=band_kinds)
def test_full_rank_multiplier_products_equal_grid_route(K, extra, seed, kind):
    # a rank-N multiplier costs more than the grid route did, but is exact
    N = K + extra
    ((U, V),) = _cross_factors(_root_distance, N)
    a = sample(_root_distance, N)
    assert U.shape == V.shape == (N, N)
    assert np.abs(U @ V.T - a).max() <= N * np.finfo(float).eps * np.abs(a).max()
    sizes = {"K": K, "K'": K + extra // 2}
    band = tuple(sizes[b] for b in kind.split(","))
    F = np.random.default_rng(seed).standard_normal((2, K, K))
    _assert_products_equal_grid_route(_root_distance, N, F, [band])


#: a gradient of full numerical rank: both components are |x - y|^(1/2)
ROUGH = Multiplier("root_distance", _root_distance, _root_distance, _root_distance)


def _smooth_field(K, seed):
    basis = build_rectangle_basis(K)
    rng = np.random.default_rng(seed)
    return SpectralField(basis, rng.standard_normal(basis.size) / basis.eigenvalues)


def _transport(a, alpha, G):
    """int theta (perp-grad Lambda^{-alpha} theta) . G dx by quadrature on the
    grid, for a the (..., K, K) coefficient square of theta and G the
    (2, N, N) grid samples of the vector field; one value per leading index."""
    N = G.shape[-1]
    psi_x, psi_y = _gradient_square(_lambda_power(a.shape[-1], -alpha) * a, N)
    integrand = _synthesize_square(a, N) * (-psi_y * G[0] + psi_x * G[1])
    return QuadratureGrid(N).weight * integrand.sum(axis=(-2, -1))


@settings(max_examples=40, deadline=None)
@given(alpha=alphas, K=cutoffs, pad=pads, seed=seeds,
       name=st.sampled_from(sorted(catalog()) + ["rough"]))
def test_classical_transport_equals_grid_route(alpha, K, pad, seed, name):
    theta = _smooth_field(K, seed)
    phi = ROUGH if name == "rough" else catalog()[name]
    grid = padded_grid(padded_basis(theta.basis, pad))
    A = _coeff_square(theta)
    G = phi.grad_on(grid)
    want = _transport(A, alpha, G)
    # the absolute sum of the integrand's terms theta psi_x G_1, theta psi_y G_0
    psi_x, psi_y = _gradient_square(_lambda_power(K, -alpha) * A, grid.N)
    terms = np.abs(_synthesize_square(A, grid.N)) * (np.abs(psi_y * G[0]) + np.abs(psi_x * G[1]))
    got = classical_transport(theta, alpha, phi, pad)
    assert abs(got - want) <= 1e-13 * grid.weight * terms.sum()


def test_classical_transport_synthesizes_no_grid_array(monkeypatch):
    def no_grid(*args):
        raise AssertionError("a grid transform ran")

    for module in (basis_module, commutators, weakform):
        for name in ("_synthesize_square", "_gradient_square"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_grid)
    # a pad no other test uses: the first pass builds the maps under the patch
    for _ in range(2):
        for phi in catalog().values():
            assert np.isfinite(classical_transport(_smooth_field(6, 1), 0.4, phi, 3.0))


def test_transport_maps_are_read_only_and_built_once_per_key():
    K, pad, phi = 7, 5.0, catalog()["skew_bump"]
    N = padded_grid(padded_basis(build_rectangle_basis(K), pad)).N
    thetas = [_smooth_field(K, seed) for seed in (1, 2)]
    built = _product_maps.cache_info().misses
    first = [classical_transport(theta, 0.4, phi, pad) for theta in thetas]
    assert _product_maps.cache_info().misses == built + 1
    # the derivative falls on y for d_x phi's product, on x for d_y phi's
    maps = _product_maps(phi._grad_values, N, K, ((K, K), (K, K)), (1, 0))
    assert _product_maps.cache_info().misses == built + 1
    assert len(maps) == 2
    for L, R in maps:
        assert L.shape[1:] == R.shape[1:] == (K, K)
        assert not L.flags.writeable and not R.flags.writeable
    assert [classical_transport(theta, 0.4, phi, pad) for theta in thetas] == first
    assert _product_maps.cache_info().misses == built + 1


@settings(max_examples=30, deadline=None)
@given(K=cutoffs, pad=pads, seed=seeds, grid_of=st.sampled_from(["K'", "K'+1", "3K'"]))
def test_gradient_projection_equals_analyzed_gradient(K, pad, seed, grid_of):
    # f on the cutoff K, its sampled gradient analyzed onto the padded K' >= K
    basis = build_rectangle_basis(K)
    big = padded_basis(basis, pad)
    N = {"K'": big.K, "K'+1": big.K + 1, "3K'": 3 * big.K}[grid_of]
    grid = QuadratureGrid(N)
    f = SpectralField(basis, np.random.default_rng(seed).standard_normal(basis.size))
    g = gradient(f, grid).values
    want = np.stack([_coeff_square(analyze(GridField(grid, c), big)) for c in g])
    D = _gradient_projection(N, big.K, K)
    A = _coeff_square(f)
    # d/dx fills the (K', K) block, d/dy the (K, K') block, the rest is zero
    got = np.zeros_like(want)
    got[0, :, :K] = D @ A
    got[1, :K, :] = A @ D.T
    assert D.shape == (big.K, K)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert not D.flags.writeable


def _rel_close(got, want, scale):
    return np.abs(got - want).max() <= 1e-13 * scale


@settings(max_examples=30, deadline=None)
@given(K=cutoffs, extra=st.integers(0, 40), seed=seeds)
def test_synthesize_and_gradient_equal_closed_form_sums(K, extra, seed):
    # sum over modes of f_jk (2/pi) sin(jx) sin(ky) and its gradient, one
    # mode at a time; the transforms scale coefficients, not grid values
    basis = build_rectangle_basis(K)
    grid = QuadratureGrid(K + extra)
    f = SpectralField(basis, np.random.default_rng(seed).standard_normal(basis.size))
    X, Y = grid.meshgrid()
    want = np.zeros((3, grid.N, grid.N))
    for c, mode in zip(f.coeffs, basis.modes):
        sx, sy = np.sin(mode.j * X), np.sin(mode.k * Y)
        cx, cy = mode.j * np.cos(mode.j * X), mode.k * np.cos(mode.k * Y)
        want += (2.0 / np.pi) * c * np.stack([sx * sy, cx * sy, sx * cy])
    got = np.concatenate([synthesize(f, grid).values[None], gradient(f, grid).values])
    for g, w in zip(got, want):
        assert _rel_close(g, w, np.abs(w).max())


@settings(max_examples=30, deadline=None)
@given(s=st.floats(0.01, 0.99), K=cutoffs, pad=pads, seed=seeds,
       name=st.sampled_from(sorted(multiplier_catalog())))
def test_commutators_equal_zero_padded_route(s, K, pad, seed, name):
    basis = build_rectangle_basis(K)
    rng = np.random.default_rng(seed)
    f = SpectralField(basis, rng.standard_normal(basis.size) / basis.eigenvalues)
    a = multiplier_catalog()[name]
    f_b, grid = _padded(f, pad)
    a_grid = a.on(grid)
    # each commutator is a difference of two terms of about this size; a
    # constant multiplier makes it round-off of zero
    scale = max(np.abs(a_grid).max(), 1.0) * np.abs(apply_lambda_power(f_b, s).coeffs).max()

    got = comm_neg_lambda_mult(a, f, s, pad)
    assert got.basis is f_b.basis
    assert _rel_close(got.coeffs, _comm_mult(a_grid, f_b, -s, grid), scale)

    got = comm_lambda_mult(a, f, s, pad)
    assert got.basis is f_b.basis
    assert _rel_close(got.coeffs, _comm_mult(a_grid, f_b, s, grid), scale)

    got = comm_lambda_grad(f, s, pad)
    perp = _comm_lambda_grad_perp(f_b, s, grid)
    assert got.grid == grid
    # the oracle returns the perp (-c_y, c_x) of the commutator (c_x, c_y)
    grad_scale = np.abs(gradient(apply_lambda_power(f_b, s), grid).values).max()
    assert _rel_close(got.values, np.stack([perp[1], -perp[0]]), grad_scale)
