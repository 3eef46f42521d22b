import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsqg.basis import (
    QuadratureGrid,
    SpectralField,
    _coeff_square,
    _cosine_matrix,
    _gather_square,
    _gradient_coeffs,
    _gradient_projection,
    _gradient_square,
    _lambda_power,
    _sine_matrix,
    analyze,
    boundary_distance_grid,
    build_rectangle_basis,
    cutoff_for,
    embed,
    gradient,
    restrict,
    sample,
    space_mask,
    synthesize,
)

from gsqg.commutators import _mult_products, _power_stack, _product_maps
from gsqg.weakform import test_function_catalog as catalog

from oracles import perp_gradient

PI = np.pi


def test_space_mask_is_the_prefix_a_run_keeps_and_the_same_modes_on_any_larger_basis():
    big = build_rectangle_basis(12)
    for m in range(101):
        own = build_rectangle_basis(max(1, cutoff_for(m)))
        assert np.array_equal(space_mask(m, own), np.arange(own.size) < m), m
        kept = {(md.j, md.k) for md, keep in zip(big.modes, space_mask(m, big)) if keep}
        assert kept == {(md.j, md.k) for md in own.modes[:m]}, m
    with pytest.raises(ValueError, match=r"m=17 out of range \[0, 16\]"):
        space_mask(17, build_rectangle_basis(4))


def test_mode_ordering_eigenvalue_ascending():
    basis = build_rectangle_basis(5)
    lam = basis.eigenvalues
    assert np.all(np.diff(lam) >= 0)
    # lexicographic tie break at equal eigenvalue
    for a, b in zip(basis.modes, basis.modes[1:]):
        la, lb = a.j**2 + a.k**2, b.j**2 + b.k**2
        assert (la, a.j, a.k) < (lb, b.j, b.k)


def test_known_eigenvalues():
    basis = build_rectangle_basis(4)
    m0 = basis.modes[0]
    assert (m0.j, m0.k) == (1, 1)
    assert basis.eigenvalues[0] == 2
    # (1,4) with lambda=17 precedes (3,3) with lambda=18
    pairs = [(m.j, m.k) for m in basis.modes]
    assert pairs.index((1, 4)) < pairs.index((3, 3))


def test_orthonormality_by_quadrature():
    basis = build_rectangle_basis(4)
    grid = QuadratureGrid(3 * basis.K)
    vals = np.stack(
        [
            synthesize(SpectralField(basis, np.eye(basis.size)[i]), grid).values
            for i in range(basis.size)
        ]
    )
    gram = grid.weight * np.einsum("ixy,jxy->ij", vals, vals)
    assert np.abs(gram - np.eye(basis.size)).max() < 1e-12


def test_analyze_synthesize_roundtrip():
    basis = build_rectangle_basis(6)
    rng = np.random.default_rng(0)
    f = SpectralField(basis, rng.standard_normal(basis.size))
    grid = QuadratureGrid(2 * basis.K)
    back = analyze(synthesize(f, grid), basis)
    assert np.abs(back.coeffs - f.coeffs).max() < 1e-12


def test_quadrature_exactness_threshold():
    basis = build_rectangle_basis(6)
    f = SpectralField(basis, np.eye(basis.size)[basis.size - 1])
    fine = analyze(synthesize(f, QuadratureGrid(2 * basis.K)), basis)
    assert np.abs(fine.coeffs - f.coeffs).max() < 1e-12
    # grids unable to carry the band are rejected outright
    with pytest.raises(ValueError, match="too coarse"):
        synthesize(f, QuadratureGrid(basis.K - 1))


def test_gradient_matches_analytic():
    basis = build_rectangle_basis(3)
    grid = QuadratureGrid(16)
    j, k = 2, 3
    idx = [i for i, m in enumerate(basis.modes) if (m.j, m.k) == (j, k)][0]
    f = SpectralField(basis, np.eye(basis.size)[idx])
    g = gradient(f, grid)
    X, Y = grid.meshgrid()
    gx = (2.0 / PI) * j * np.cos(j * X) * np.sin(k * Y)
    gy = (2.0 / PI) * k * np.sin(j * X) * np.cos(k * Y)
    assert np.abs(g.values[0] - gx).max() < 1e-12
    assert np.abs(g.values[1] - gy).max() < 1e-12


@pytest.mark.parametrize("K, N", [(1, 3), (5, 16), (24, 144), (48, 144)])
def test_gradient_square_matches_its_transpose_view_form(K, N):
    # the scalars on the product, the right factors as .T views
    A = np.random.default_rng(K).standard_normal((2, K, K))
    S, C, wav = _sine_matrix(N, K), _cosine_matrix(N, K), np.arange(1, K + 1)
    want = ((2.0 / PI) * (C @ (wav[:, None] * A) @ S.T), (2.0 / PI) * (S @ (A * wav) @ C.T))
    for got, w in zip(_gradient_square(A, N), want):
        assert np.abs(got - w).max() <= 1e-14 * np.abs(w).max()


@settings(max_examples=40, deadline=None)
@given(K=st.integers(2, 32), extra=st.integers(0, 16), seed=st.integers(0, 2**32 - 1),
       powers=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=3).map(tuple),
       lead=st.lists(st.integers(1, 3), max_size=2),
       phi=st.sampled_from(sorted(catalog())))
# a contiguous copy of D^T changes the last bits of d/dy here
@example(K=16, extra=1, seed=0, powers=(0.0,), lead=[], phi="quartic")
def test_cached_paths_equal_their_plain_forms(K, extra, seed, powers, lead, phi):
    # flat positions, power stacks and the rank-1 product term (quartic and
    # sine_bump; skew_bump has rank 3) reproduce the forms they replace bit
    # for bit, and the projected gradient stays on D and its .T view
    basis, K_pad = build_rectangle_basis(K), K + extra
    N = 3 * K_pad
    rng = np.random.default_rng(seed)
    f = SpectralField(basis, rng.standard_normal(basis.size))
    j, k = basis.mode_arrays()
    for size in (K, K_pad):
        plain = np.zeros((size, size))
        plain[j - 1, k - 1] = f.coeffs
        A = _coeff_square(f, size)
        assert np.array_equal(A, plain)
        assert np.array_equal(_gather_square(A, basis), plain[j - 1, k - 1])
    big = build_rectangle_basis(K_pad)
    assert np.array_equal(restrict(embed(f, big), basis).coeffs, f.coeffs)
    # one square of zeros of both signs, whose products are exact zeros: the
    # rank-1 term must give them the sign the sum over its length-1 axis gives
    F = rng.standard_normal((*lead, 2, K, K))
    F[..., 0, :, :] = np.where(rng.random((K, K)) < 0.5, 0.0, -0.0)
    stack = _power_stack(F, powers)
    assert stack.tobytes() == np.stack([_lambda_power(K, r) * F for r in powers], -3).tobytes()
    fn, bands = catalog()[phi]._grad_values, ((K, K_pad), (K_pad, K))
    for (L, R), (rows, cols), got in zip(
            _product_maps(fn, N, K, bands, (None, None)), bands, _mult_products(fn, N, F, bands)):
        F1 = F[..., None, :, :]
        terms = (L @ F1) @ R if rows <= cols else L @ (F1 @ R)
        assert got.tobytes() == terms.sum(axis=-3).tobytes()
    D = _gradient_projection(N, K_pad, K)
    d_x, d_y = _gradient_coeffs(F, N, K_pad)
    assert d_x.tobytes() == (D @ F).tobytes() and d_y.tobytes() == (F @ D.T).tobytes()


def test_perp_gradient_orthogonal_to_gradient():
    basis = build_rectangle_basis(4)
    grid = QuadratureGrid(20)
    rng = np.random.default_rng(1)
    f = SpectralField(basis, rng.standard_normal(basis.size))
    g = gradient(f, grid).values
    gp = perp_gradient(f, grid).values
    assert np.abs(g[0] * gp[0] + g[1] * gp[1]).max() < 1e-12


def test_embed_restrict_by_mode_identity():
    small = build_rectangle_basis(3)
    big = build_rectangle_basis(6)
    rng = np.random.default_rng(2)
    f = SpectralField(small, rng.standard_normal(small.size))
    up = embed(f, big)
    # mode (j,k) keeps its coefficient regardless of ordering shift
    for i, m in enumerate(small.modes):
        i_big = [ii for ii, mb in enumerate(big.modes) if (mb.j, mb.k) == (m.j, m.k)][0]
        assert up.coeffs[i_big] == f.coeffs[i]
    down = restrict(up, small)
    assert np.array_equal(down.coeffs, f.coeffs)


def test_boundary_distance():
    # nodes i pi/6, i = 1..5: a node on the first or last row or column lies
    # one spacing from its nearest side, and the centre node at pi/2
    d = boundary_distance_grid(QuadratureGrid(5))
    assert d.shape == (5, 5)
    assert d[0, 2] == pytest.approx(PI / 6)
    assert d[2, 4] == pytest.approx(PI / 6)
    assert d[2, 2] == pytest.approx(PI / 2)


def test_grid_weight():
    grid = QuadratureGrid(7)
    assert grid.weight == pytest.approx((PI / 8) ** 2)
    x = grid.nodes
    assert x[0] == pytest.approx(PI / 8)
    assert x[-1] == pytest.approx(7 * PI / 8)


@pytest.mark.parametrize("K", [1, 5, 12])
def test_mode_arrays_match_modes(K):
    basis = build_rectangle_basis(K)
    j, k = basis.mode_arrays()
    assert list(zip(j.tolist(), k.tolist())) == [(m.j, m.k) for m in basis.modes]
    assert j.dtype == np.intp and k.dtype == np.intp


def test_mode_arrays_built_once_and_read_only():
    basis = build_rectangle_basis(6)
    j, k = basis.mode_arrays()
    j2, k2 = basis.mode_arrays()
    assert j2 is j and k2 is k
    for a in (j, k):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 7


def test_sample_matches_meshgrid_and_is_cached():
    def fn(x, y):
        return np.sin(x) * np.cos(2.0 * y) + x

    N = 17
    X, Y = QuadratureGrid(N).meshgrid()
    vals = sample(fn, N)
    assert np.array_equal(vals, fn(X, Y))
    assert not vals.flags.writeable
    with pytest.raises(ValueError):
        vals[0, 0] = 1.0
    assert sample(fn, N) is vals
    other = sample(fn, N + 1)
    assert other.shape == (N + 1, N + 1)
    assert sample(fn, N) is vals
