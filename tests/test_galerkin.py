import math
import pickle
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from gsqg import galerkin
from gsqg.basis import (
    ModeIndex,
    QuadratureGrid,
    SpectralField,
    _cosine_matrix,
    _sine_matrix,
    build_rectangle_basis,
)
from gsqg.galerkin import (
    GRID_MIN_M,
    RK4_REAL_LIMIT,
    BlowUpError,
    GalerkinState,
    GalerkinTensor,
    GridProducts,
    SimConfig,
    assemble_tensor,
    evaluator_mode,
    initial_data,
    nonlinear_term_grid,
    rhs,
    run,
    run_ensemble,
    step,
)
from gsqg.snapshots import Snapshot, write_snapshot
from gsqg.verify import _antisymmetry, check_tensor_structure

PI = np.pi

# mode counts on both sides of the tensor/grid switch, square and not
SWITCH_SIDE_MS = (9, 16, 20, GRID_MIN_M - 1, GRID_MIN_M, 50, 64, 70, 100)


@pytest.fixture(scope="module")
def basis():
    return build_rectangle_basis(4)


@pytest.fixture(scope="module")
def tensor(basis):
    return assemble_tensor(basis, 16, 0.5)


def _to_dense(tensor):
    """gamma_jkl as a dense (m, m, m) array; repeated entries add, as in the
    contraction."""
    dense = np.zeros((tensor.m,) * 3)
    np.add.at(dense, (tensor.j, tensor.k, tensor.l), tensor.vals)
    return dense


def test_tensor_antisymmetry_and_diagonal(tensor):
    dense = _to_dense(tensor)
    assert np.abs(dense + dense.transpose(0, 2, 1)).max() < 1e-12
    assert np.abs(np.einsum("jjl->jl", dense)).max() < 1e-12


def _sine_cos_integral(a, b, c):
    """int_0^pi sin(a x) cos(b x) sin(c x) dx for positive integers."""
    val = 0.0
    if a + b == c:
        val += PI / 4.0
    if abs(a - b) == c and a != b:
        val += math.copysign(PI / 4.0, a - b)
    return val


def _sc_candidates(a, b):
    """Nonzero (c, integral) pairs of int sin(a x) cos(b x) sin(c x) dx."""
    out = []
    c = a + b
    v = _sine_cos_integral(a, b, c)
    if v != 0.0:
        out.append((c, v))
    c = abs(a - b)
    if c > 0 and c != a + b:
        v = _sine_cos_integral(a, b, c)
        if v != 0.0:
            out.append((c, v))
    return out


def _assemble_tensor_loops(basis, m, alpha):
    """(j, k, l, vals) of gamma_jkl by Python loops over mode pairs and their
    candidate l, the oracle of assemble_tensor's array form."""
    lam_pref = basis.eigenvalues[:m] ** (-alpha / 2.0)
    modes = basis.modes[:m]
    triples_j, triples_k, triples_l, vals = [], [], [], []
    index = {(mm.j, mm.k): i for i, mm in enumerate(modes)}
    c0 = (2.0 / PI) ** 3
    for ji, mj in enumerate(modes):
        for ki, mk in enumerate(modes):
            if ji == ki:
                continue
            acc = {}
            # x-factor sin(j1)cos(k1), y-factor cos(j2)sin(k2), coeff -j2*k1
            for l1, ix in _sc_candidates(mj.j, mk.j):
                for l2, iy in _sc_candidates(mk.k, mj.k):
                    li = index.get((l1, l2))
                    if li is not None:
                        acc[li] = acc.get(li, 0.0) - mj.k * mk.j * ix * iy
            # x-factor cos(j1)sin(k1), y-factor sin(j2)cos(k2), coeff +j1*k2
            for l1, ix in _sc_candidates(mk.j, mj.j):
                for l2, iy in _sc_candidates(mj.k, mk.k):
                    li = index.get((l1, l2))
                    if li is not None:
                        acc[li] = acc.get(li, 0.0) + mj.j * mk.k * ix * iy
            for li, v in acc.items():
                v *= c0 * lam_pref[ji]
                if v != 0.0:
                    triples_j.append(ji)
                    triples_k.append(ki)
                    triples_l.append(li)
                    vals.append(v)
    return (np.array(triples_j, dtype=np.intp), np.array(triples_k, dtype=np.intp),
            np.array(triples_l, dtype=np.intp), np.array(vals, dtype=float))


def _assert_same_arrays(tensor, want):
    for got, w in zip((tensor.j, tensor.k, tensor.l, tensor.vals), want):
        assert got.dtype == w.dtype and got.shape == w.shape
        assert got.tobytes() == w.tobytes()


@pytest.mark.parametrize("alpha", (0.3, 0.5, 0.77))
@pytest.mark.parametrize("K", range(1, 11))
def test_array_assembly_equals_loops_at_every_m(K, alpha):
    # an entry's value depends on its three modes only and the loops emit in
    # (j, k) order, so the loops' tensor at m is their tensor at K^2 with
    # every index below m, in the same order: one loop run serves each m
    basis = build_rectangle_basis(K)
    full = _assemble_tensor_loops(basis, K * K, alpha)
    for m in range(1, K * K + 1):
        below = (full[0] < m) & (full[1] < m) & (full[2] < m)
        _assert_same_arrays(assemble_tensor(basis, m, alpha), [a[below] for a in full])


@settings(max_examples=25, deadline=None)
@given(data=st.data(), K=st.integers(1, 9), alpha=st.floats(0.01, 2.0))
def test_array_assembly_equals_loops(data, K, alpha):
    m = data.draw(st.integers(1, K * K), label="m")
    basis = build_rectangle_basis(K)
    _assert_same_arrays(assemble_tensor(basis, m, alpha), _assemble_tensor_loops(basis, m, alpha))


@pytest.mark.parametrize("m", (1, 2, 50, 100))
def test_array_assembly_in_chunks_equals_one_chunk(monkeypatch, m):
    basis = build_rectangle_basis(10)
    whole = assemble_tensor(basis, m, 0.5)
    # one row of (j, k) pairs per chunk, then a chunk that splits no row evenly
    for chunk in (1, 12 * m):
        monkeypatch.setattr(galerkin, "ASSEMBLY_CHUNK", chunk)
        _assert_same_arrays(assemble_tensor(basis, m, 0.5),
                            (whole.j, whole.k, whole.l, whole.vals))


def test_assembly_holds_its_fields_and_one_chunk_of_work(monkeypatch):
    # the fields are filled in place, so beyond them assembly holds only a
    # chunk's work arrays of ASSEMBLY_CHUNK values each, whatever m is; a
    # small chunk makes any per-chunk part that piles up show
    chunk = 2**12
    monkeypatch.setattr(galerkin, "ASSEMBLY_CHUNK", chunk)
    basis = build_rectangle_basis(20)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        t = assemble_tensor(basis, 400, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fields = sum(a.nbytes for a in (t.j, t.k, t.l, t.vals))
    assert fields > 10**7
    assert peak <= fields + 32 * 8 * chunk


@settings(max_examples=20, deadline=None)
@given(m=st.sampled_from(SWITCH_SIDE_MS), alpha=st.floats(0.01, 0.99))
def test_analytic_tensor_equals_grid_tensor(m, alpha):
    basis = build_rectangle_basis(math.ceil(math.sqrt(m)))
    ta = assemble_tensor(basis, m, alpha)
    tg = GridProducts(basis, m, alpha).tensor()
    assert (ta.mode, tg.mode) == ("analytic", "grid")
    assert np.abs(_to_dense(ta) - _to_dense(tg)).max() < 1e-12


@pytest.mark.parametrize("m, extra_K", [(1, 0), (7, 1), (36, 0), (GRID_MIN_M, 0), (100, 0)])
def test_grid_tensor_equals_per_row_bilinear_route(m, extra_K):
    # tensor() runs every row on one workspace and one native identity; the
    # route it replaced, bilinear() on (e_j, e_k) one row at a time, is its
    # oracle bit for bit, on squares the modes fill and on ones they do not
    basis = build_rectangle_basis(math.ceil(math.sqrt(m)) + extra_K)
    gp = GridProducts(basis, m, 0.35)
    eye = np.eye(m)
    parts = []
    for j in range(m):
        g = gp.bilinear(np.broadcast_to(eye[j], eye.shape), eye)
        k, l = np.nonzero(np.abs(g) > 1e-13)
        parts.append((np.full(len(k), j, dtype=np.intp), k, l, g[k, l]))
    got = gp.tensor()
    for a, b in zip((got.j, got.k, got.l, got.vals), (np.concatenate(p) for p in zip(*parts))):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert (got.m, got.alpha, got.mode) == (m, 0.35, "grid")


@settings(max_examples=20, deadline=None)
@given(
    m=st.sampled_from(SWITCH_SIDE_MS),
    B=st.integers(1, 4),
    alpha=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_bilinear_form_contract(m, B, alpha, seed):
    basis = build_rectangle_basis(math.ceil(math.sqrt(m)))
    gp = GridProducts(basis, m, alpha)
    a, b = np.random.default_rng(seed).standard_normal((2, B, m))
    for th in (a[0], a):
        assert np.array_equal(gp.bilinear(th, th), gp.quadratic(th))
    # gamma is not symmetric in (j, k): swapped roles of a and b fail here
    dense = _to_dense(assemble_tensor(basis, m, alpha))
    want = np.einsum("jkl,bj,bk->bl", dense, a, b)
    tol = 1e-12 * max(1.0, np.abs(want).max())
    assert np.abs(gp.bilinear(a, b) - want).max() < tol
    assert np.abs(gp.bilinear(a[0], b[0]) - want[0]).max() < tol


def test_tensor_entry_against_dense_dblquad(basis):
    # j=(1,1), k=(1,2), l=(2,1), alpha=0.5: brute-force adaptive quadrature
    pairs = [(m.j, m.k) for m in basis.modes]
    ji, ki, li = pairs.index((1, 1)), pairs.index((1, 2)), pairs.index((2, 1))
    alpha = 0.5
    t = assemble_tensor(basis, 16, alpha)
    got = _to_dense(t)[ji, ki, li]

    c = 2.0 / PI  # normalization of w_jk = (2/pi) sin(jx) sin(ky)

    def w(j, k):
        return lambda x, y: c * np.sin(j * x) * np.sin(k * y)

    def integrand(y, x):
        # perp-grad w_(1,1) . grad w_(1,2) times w_(2,1)
        px = -c * np.sin(x) * np.cos(y)  # -d/dy w11
        py = c * np.cos(x) * np.sin(y)  # d/dx w11
        gx = c * np.cos(x) * np.sin(2 * y)
        gy = 2 * c * np.sin(x) * np.cos(2 * y)
        return (px * gx + py * gy) * w(2, 1)(x, y)

    val, err = dblquad(integrand, 0, PI, 0, PI, epsabs=1e-13)
    expected = 2.0 ** (-alpha / 2.0) * val  # lambda_(1,1) = 2
    assert got == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("m", (16, 36, 64, 100))
def test_grid_products_use_the_smallest_exact_grid(m):
    # N = floor(3K/2) is the least N with 2(N+1) > 3K; on N - 1 the triple
    # product's wavenumber 3K = 2N aliases onto the constant mode
    basis = build_rectangle_basis(math.ceil(math.sqrt(m)))
    gp = GridProducts(basis, m, 0.5)
    assert gp.N == 3 * basis.K // 2
    assert 2 * (gp.N + 1) > 3 * basis.K >= 2 * gp.N
    th = SpectralField(basis, np.random.default_rng(m).standard_normal(basis.size))
    want = assemble_tensor(basis, m, 0.5).quadratic(th.coeffs[:m])
    exact = nonlinear_term_grid(th, m, 0.5, QuadratureGrid(gp.N))
    coarse = nonlinear_term_grid(th, m, 0.5, QuadratureGrid(gp.N - 1))
    assert np.abs(exact - want).max() < 1e-12
    assert np.abs(coarse - want).max() > 1e-3


def test_rhs_zero_state(tensor, basis):
    lam = basis.eigenvalues[:16]
    assert np.all(rhs(np.zeros(16), tensor, 0.5, lam) == 0)


def test_rhs_single_mode_pure_decay(tensor, basis):
    lam = basis.eigenvalues[:16]
    th = np.zeros(16)
    th[3] = 2.0
    d = rhs(th, tensor, 0.25, lam)
    expected = np.zeros(16)
    expected[3] = -0.25 * lam[3] * 2.0
    assert np.abs(d - expected).max() < 1e-14


def test_rhs_matches_grid_nonlinearity(basis, tensor):
    # two-mode state: gamma contraction vs direct grid evaluation of
    # the projected advection term
    rng = np.random.default_rng(6)
    th = rng.standard_normal(16)
    coeffs = np.zeros(basis.size)
    coeffs[:16] = th
    grid_version = nonlinear_term_grid(SpectralField(basis, coeffs), 16, 0.5)
    tensor_version = tensor.quadratic(th)
    assert np.abs(grid_version - tensor_version).max() < 1e-12


def test_rhs_dimension_mismatch(tensor, basis):
    with pytest.raises(ValueError, match="does not match"):
        rhs(np.zeros(7), tensor, 0.0, basis.eigenvalues[:16])


def test_step_single_mode_exponential(tensor, basis):
    # viscous decay of one mode is linear: RK4 matches exp to O(dt^5) per step
    lam = basis.eigenvalues[:16]
    th = np.zeros(16)
    th[0] = 1.0
    st = step(GalerkinState(0.0, th), tensor, 1e-3, eps=1.0, eigvals=lam)
    exact = np.exp(-lam[0] * 1e-3)
    assert abs(st.coeffs[0] - exact) < 1e-14
    assert np.abs(st.coeffs[1:]).max() == 0.0


def test_step_blowup_detection(tensor, basis):
    lam = basis.eigenvalues[:16]
    th = np.full(16, 1e11)
    with pytest.raises(BlowUpError):
        st = GalerkinState(0.0, th)
        for _ in range(50):
            st = step(st, tensor, 1.0, eps=0.0, eigvals=lam)


@pytest.mark.parametrize("T, dt", [(0.05, 1e-3), (0.1, 1e-3), (1.0, 0.1), (0.3, 0.1), (7e-4, 1e-4)])
def test_t_final_on_the_dt_grid_is_accepted_and_reached(T, dt):
    # 0.05 / 1e-3 is 50.00000000000001, 0.3 / 0.1 is 2.9999999999999996
    cfg = SimConfig(m=4, dt=dt, T=T, stride=1)
    assert run(cfg).times[-1] == pytest.approx(T, rel=1e-12)


@pytest.mark.parametrize("T", (1e-4, 4e-4, 0.0015, 0.9999))
def test_t_final_off_the_dt_grid_is_refused(T):
    with pytest.raises(ValueError, match="not a whole number of dt = 0.001 steps"):
        SimConfig(dt=1e-3, T=T)


def test_inviscid_l2_conservation():
    cfg = SimConfig(alpha=0.5, epsilon=0.0, m=16, dt=1e-3, T=0.5,
                    initial="two_mode", stride=50)
    tr = run(cfg)
    l2 = tr.diagnostics["l2_theta"]
    assert np.abs(l2 / l2[0] - 1.0).max() < 1e-8 * cfg.T


def test_hamiltonian_conservation_inviscid():
    cfg = SimConfig(alpha=0.3, epsilon=0.0, m=16, dt=1e-3, T=0.5,
                    initial="random", seed=2, stride=50)
    tr = run(cfg)
    ham = tr.diagnostics["hdot_psi"]
    assert np.abs(ham / ham[0] - 1.0).max() < 1e-8 * cfg.T


def test_nonlinear_orthogonality(tensor):
    rng = np.random.default_rng(8)
    th = rng.standard_normal(16)
    q = tensor.quadratic(th)
    assert abs(np.dot(th, q)) < 1e-12
    # stream-function orthogonality with the lambda^{-alpha/2} weight
    lam = build_rectangle_basis(4).eigenvalues[:16]
    assert abs(np.dot(lam ** (-0.25) * th, q)) < 1e-12


def test_viscous_balance_residuals():
    cfg = SimConfig(alpha=0.5, epsilon=0.01, m=16, dt=1e-3, T=1.0,
                    initial="random", seed=3, stride=100)
    tr = run(cfg)
    assert np.abs(tr.diagnostics["energy_residual"]).max() < 1e-6
    assert np.abs(tr.diagnostics["hamiltonian_residual"]).max() < 1e-6


def test_steady_single_mode():
    cfg = SimConfig(alpha=0.5, epsilon=0.0, m=16, dt=1e-3, T=0.2,
                    initial="single_mode", stride=10)
    tr = run(cfg)
    assert np.abs(tr.snaps - tr.snaps[0]).max() < 1e-14


def test_config_validation():
    with pytest.raises(ValueError, match="dt"):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError, match="m"):
        SimConfig(m=0)
    with pytest.raises(ValueError, match="alpha"):
        SimConfig(alpha=2.5)
    with pytest.raises(ValueError, match="epsilon"):
        SimConfig(epsilon=-1.0)


@pytest.mark.parametrize("field", ("epsilon", "dt"))
@pytest.mark.parametrize("value", (math.nan, math.inf))
def test_config_refuses_non_finite_epsilon_and_dt_naming_the_key(field, value):
    # nan fails every comparison: it used to pass the epsilon >= 0 test and
    # to reach the t_final check as "dt = nan"
    with pytest.raises(ValueError, match=f"^{field} must be finite") as info:
        SimConfig(**{field: value})
    assert "t_final" not in str(info.value)


def test_config_refuses_negative_seed_naming_the_key():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SimConfig(seed=-1)
    assert SimConfig(seed=0).seed == 0


def test_alpha_above_one_flagged():
    with pytest.warns(UserWarning, match="alpha=1.5"):
        SimConfig(alpha=1.5)


def test_initial_data_catalog():
    for name in ("single_mode", "two_mode", "random", "random_rough", "bump"):
        cfg = SimConfig(m=16, initial=name, seed=1)
        th = initial_data(cfg)
        assert th.shape == (16,)
        assert np.isfinite(th).all()
    with pytest.raises(ValueError, match="unknown initial"):
        initial_data(SimConfig(m=16, initial="nope"))


def test_sim_config_refuses_unknown_initial_naming_the_key():
    with pytest.raises(ValueError, match="'nope' for key 'initial'"):
        SimConfig(initial="nope")
    assert SimConfig(initial="file:any/path.bin").initial == "file:any/path.bin"


def test_initial_data_deterministic():
    cfg = SimConfig(m=16, initial="random", seed=42)
    a = initial_data(cfg)
    b = initial_data(cfg)
    assert np.array_equal(a, b)


def test_initial_data_from_a_snapshot_of_another_m_keeps_each_mode(tmp_path):
    # an m = 64 snapshot (K = 8 order) holding only mode (1, 5), at index 15;
    # V_16 is the K = 4 square, whose index 15 is (4, 4)
    k8 = build_rectangle_basis(8)
    i15 = k8.modes.index(ModeIndex(1, 5))
    assert i15 == 15
    coeffs = np.zeros(64)
    coeffs[i15] = 1.0
    path = tmp_path / "s64.bin"
    write_snapshot(path, Snapshot(64, 0.5, 0.0, 0.0, coeffs))
    assert not initial_data(SimConfig(m=16, initial=f"file:{path}")).any()
    th = initial_data(SimConfig(m=20, initial=f"file:{path}"))
    assert list(np.flatnonzero(th)) == [build_rectangle_basis(5).modes.index(ModeIndex(1, 5))]
    # V_17 stops at lambda = 26, so it does not hold (4, 4) of V_16
    write_snapshot(path, Snapshot(17, 0.5, 0.0, 0.0, np.ones(17)))
    with pytest.raises(ValueError, match="m=17 does not hold V_m for m=16"):
        initial_data(SimConfig(m=16, initial=f"file:{path}"))


def test_tensor_save_load_roundtrip(tensor, tmp_path):
    path = tmp_path / "t.npz"
    tensor.save(path)
    back = GalerkinTensor.load(path)
    assert back.m == tensor.m and back.alpha == tensor.alpha
    assert np.array_equal(back.vals, tensor.vals)
    assert np.array_equal(back.l, tensor.l)


@settings(max_examples=30, deadline=None)
@given(
    m=st.sampled_from(SWITCH_SIDE_MS),
    alpha=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
    extra_K=st.integers(0, 2),
)
def test_grid_products_match_tensor(m, alpha, seed, extra_K):
    # a basis wider than the m modes need (as in mode sweeps) changes nothing
    basis = build_rectangle_basis(math.ceil(math.sqrt(m)) + extra_K)
    th = np.random.default_rng(seed).standard_normal(m)
    q = assemble_tensor(basis, m, alpha).quadratic(th)
    g = GridProducts(basis, m, alpha).quadratic(th)
    assert np.abs(g - q).max() <= 1e-12 * max(1.0, np.abs(q).max())


@settings(max_examples=30, deadline=None)
@given(
    m=st.sampled_from(SWITCH_SIDE_MS + (256,)),
    alpha=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_products_orthogonality(m, alpha, seed):
    basis = build_rectangle_basis(math.ceil(math.sqrt(m)))
    th = np.random.default_rng(seed).standard_normal(m)
    q = GridProducts(basis, m, alpha).quadratic(th)
    psi = basis.eigenvalues[:m] ** (-alpha / 2.0) * th
    scale = max(1.0, np.linalg.norm(th) * np.linalg.norm(q))
    assert abs(np.dot(th, q)) <= 1e-12 * scale
    assert abs(np.dot(psi, q)) <= 1e-12 * scale


# one instance serves every state shape in turn
INTERLEAVED_BATCHES = (None, 3, 6, 2, 3)


def _assert_rows_equal_solo_calls(evaluator, fresh, m):
    rng = np.random.default_rng(m)
    for B in INTERLEAVED_BATCHES:
        states = rng.standard_normal(m if B is None else (B, m))
        out = evaluator.quadratic(states)
        assert out.shape == states.shape
        for row, got in zip(np.atleast_2d(states), np.atleast_2d(out)):
            assert np.array_equal(got, fresh().quadratic(row))


@pytest.mark.parametrize("m", (40, 64, 256))
def test_grid_products_serve_interleaved_shapes_unchanged(m):
    basis = build_rectangle_basis(math.ceil(math.sqrt(m)))
    gp = GridProducts(basis, m, 0.35)
    objects, state = dict(vars(gp)), pickle.dumps(vars(gp))
    _assert_rows_equal_solo_calls(gp, lambda: GridProducts(basis, m, 0.35), m)
    # no attribute is added, replaced or changed in place after __init__
    assert vars(gp).keys() == objects.keys()
    assert all(vars(gp)[key] is value for key, value in objects.items())
    assert pickle.dumps(vars(gp)) == state


# m = 39 runs the largest dense contraction, m = 40 the gather
@pytest.mark.parametrize("m", (16, 36, GRID_MIN_M - 1, GRID_MIN_M))
def test_tensor_serves_interleaved_shapes_unchanged(m):
    basis = build_rectangle_basis(math.ceil(math.sqrt(m)))
    tensor = assemble_tensor(basis, m, 0.35)
    objects, state = dict(vars(tensor)), pickle.dumps(vars(tensor))
    _assert_rows_equal_solo_calls(tensor, lambda: assemble_tensor(basis, m, 0.35), m)
    lam = basis.eigenvalues[:m]
    rhs(np.ones((2, m)), tensor, np.array([0.1, 0.0]), lam)
    step(GalerkinState(0.0, np.ones(m)), tensor, 1e-3, eps=0.1, eigvals=lam)
    # no attribute is added, replaced or changed in place after construction
    assert vars(tensor).keys() == objects.keys()
    assert all(vars(tensor)[key] is value for key, value in objects.items())
    assert pickle.dumps(vars(tensor)) == state


@pytest.mark.parametrize("m", (1, 2))
def test_tensor_quadratic_is_float_without_nonzeros(m):
    tensor = assemble_tensor(build_rectangle_basis(2), m, 0.5)
    assert tensor.nnz == 0
    for shape in ((m,), (3, m)):
        q = tensor.quadratic(np.ones(shape))
        assert q.dtype == np.float64 and q.shape == shape
        assert np.array_equal(q, np.zeros(shape))


def test_grid_products_calls_are_independent_across_threads():
    basis = build_rectangle_basis(8)
    rng = np.random.default_rng(4)
    states = [rng.standard_normal(64 if B is None else (B, 64))
              for B in INTERLEAVED_BATCHES * 12]
    serial = [GridProducts(basis, 64, 0.5).quadratic(th) for th in states]
    gp = GridProducts(basis, 64, 0.5)
    with ThreadPoolExecutor(max_workers=4) as ex:
        threaded = list(ex.map(gp.quadratic, states))
    assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))


def _one_shot_neg_product(gp, basis, a, b):
    """-P_m(perp-grad Lambda^{-alpha} a . grad b) for native a and b, the
    oracle of GridProducts' workspace contraction: psi and b in one (K, 2nK)
    matrix, one GEMM by the stacked (dC; S), a row gather into the x and y
    blocks, and every intermediate a fresh array."""
    K, N, m = gp.K, gp.N, gp.m
    n = a.shape[1]
    j, k = (i[:m] - 1 for i in basis.mode_arrays())
    scale, mask = np.zeros((2, K, 1, K))
    scale[j, 0, k] = basis.eigenvalues[:m] ** (-gp.alpha / 2.0)
    mask[j, 0, k] = 1.0
    S = _sine_matrix(N, K)
    dC = (2.0 / PI) * _cosine_matrix(N, K) * np.arange(1, K + 1)
    F = np.concatenate([scale * a, b], axis=1).reshape(K, 2 * n * K)
    # rows (h, p, f) of L: h = dC or S, f = psi or b
    L = np.concatenate([dC, S]).dot(F).reshape(4 * N, n * K)
    p = 2 * np.arange(N)
    rows = np.concatenate([p, p + 1, p + 2 * N + 1, p + 2 * N])
    XY = L.take(rows, axis=0).reshape(2, 2 * n * N, K)
    X = XY[0].dot(np.ascontiguousarray(S.T))
    Y = XY[1].dot(np.ascontiguousarray(dC.T))
    Z = (X * Y).reshape(2, N, n * N)
    adv = Z[0] - Z[1]
    neg_proj = -(2.0 / PI) * (PI / (N + 1)) ** 2 * S.T
    out = neg_proj.dot(adv).reshape(n * K, N).dot(S).reshape(K, n, K)
    out *= mask  # x * 1.0 is x, so a full mask changes no bit
    return out


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    K=st.integers(1, 12),
    filled=st.booleans(),
    B=st.integers(1, 6),
    alpha=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_workspace_contraction_equals_one_shot_oracle(data, K, filled, B, alpha, seed):
    # m = K^2 fills the square; a smaller m leaves the mask active unless its
    # modes happen to fill a smaller square
    m = K * K if filled else data.draw(st.integers(1, K * K))
    basis = build_rectangle_basis(K)
    gp = GridProducts(basis, m, alpha)
    shape = (B, m) if B > 1 else (m,)
    rng = np.random.default_rng(seed)
    a, b, visc = rng.standard_normal((3,) + shape)
    x, y = gp.native(a), gp.native(b)
    want = _one_shot_neg_product(gp, basis, x, x) - gp.native(visc) * x
    assert gp.neg_rhs(visc)(x).tobytes() == want.tobytes()
    want = -gp.modes(_one_shot_neg_product(gp, basis, x, y), shape)
    assert gp.bilinear(a, b).tobytes() == want.tobytes()


@pytest.mark.parametrize("m", (40, 60, 256))
def test_neg_rhs_closures_of_one_instance_are_independent(m):
    # two runs' right-hand sides from one instance, called in turn, each on
    # its own workspace; every result is a new array that later calls leave
    # alone, since the RK4 loop keeps k1s and builds states in k2's array
    basis = build_rectangle_basis(math.ceil(math.sqrt(m)))
    lam = basis.eigenvalues[:m]
    visc = (0.01 * lam, np.outer([0.1, 0.0, 3e-3], lam))
    rng = np.random.default_rng(m)
    states = [rng.standard_normal((8,) + v.shape) for v in visc]
    gp = GridProducts(basis, m, 0.45)
    shared = [gp.neg_rhs(v) for v in visc]
    interleaved = [[], []]
    for i in range(8):
        for r in (0, 1):
            interleaved[r].append(shared[r](gp.native(states[r][i])))
    for r, v in enumerate(visc):
        fresh = GridProducts(basis, m, 0.45)
        solo = fresh.neg_rhs(v)
        for got, th in zip(interleaved[r], states[r]):
            assert np.array_equal(got, solo(fresh.native(th)))


def test_run_above_switch_conserves_l2_and_hamiltonian():
    cfg = SimConfig(alpha=0.4, epsilon=0.0, m=70, dt=1e-3, T=0.3,
                    initial="random", seed=5, stride=50)
    assert evaluator_mode(cfg.m) == "grid"
    tr = run(cfg)
    for key in ("l2_theta", "hdot_psi"):
        d = tr.diagnostics[key]
        assert np.abs(d / d[0] - 1.0).max() < 1e-8 * cfg.T


def test_run_above_switch_matches_tensor_rk4():
    cfg = SimConfig(alpha=0.6, epsilon=0.01, m=64, dt=1e-3, T=0.1,
                    initial="random_rough", seed=3, stride=100)
    tr = run(cfg)
    basis = build_rectangle_basis(cfg.basis_cutoff())
    tensor = assemble_tensor(basis, cfg.m, cfg.alpha)
    state = GalerkinState(0.0, tr.snaps[0])
    for _ in range(100):
        state = step(state, tensor, cfg.dt, eps=cfg.epsilon,
                     eigvals=basis.eigenvalues[:cfg.m])
    assert np.abs(state.coeffs - tr.snaps[-1]).max() < 1e-12


def _perturbed(tensor):
    vals = tensor.vals.copy()
    vals[[3, 40]] += (2e-3, -5e-4)
    return GalerkinTensor(tensor.m, tensor.alpha, tensor.j, tensor.k, tensor.l,
                          vals, tensor.mode)


def _repeated(tensor):
    """Entry 3 split into two terms, one of them off by 1e-3, and two terms
    on the diagonal key (5, 5, 7)."""
    vals = tensor.vals.copy()
    vals[3] /= 2
    j, k, l = (np.concatenate([i, i[[3]], [5, 5]]) for i in (tensor.j, tensor.k, tensor.l))
    vals = np.concatenate([vals, [vals[3] + 1e-3, 2e-4, 1e-4]])
    return GalerkinTensor(tensor.m, tensor.alpha, j, k, l, vals, tensor.mode)


def _empty(tensor):
    none = np.zeros(0, dtype=tensor.j.dtype)
    return GalerkinTensor(tensor.m, tensor.alpha, none, none, none, np.zeros(0), tensor.mode)


def _dense_structure(tensor):
    """max |gamma_jkl + gamma_jlk|, max |gamma_jjl| and the first (j, k, l)
    of the largest defect, on the dense array."""
    dense = _to_dense(tensor)
    anti = np.abs(dense + dense.transpose(0, 2, 1))
    worst = np.unravel_index(anti.argmax(), anti.shape)
    diag = np.abs(np.einsum("jjl->jl", dense)).max()
    return anti.max(), diag, tuple(int(i) for i in worst)


def test_tensor_structure_check_matches_dense(tensor):
    # the closed form at m = 16, alpha = 0.5 is the fixture
    closed_anti, closed_diag, _ = _dense_structure(tensor)
    for under_test in (_perturbed, _repeated, _empty, lambda t: t):
        t = under_test(tensor)
        anti, diag, worst = _dense_structure(t)
        assert _antisymmetry(t) == (anti, diag, worst)
        agree = np.abs(_to_dense(t) - _to_dense(tensor)).max()
        res = check_tensor_structure(tensor=t)
        assert res.observed == max(anti, diag, closed_anti, closed_diag, agree)
        assert f"(j,k,l)={worst}" in res.detail


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 4),
    entries=st.lists(
        st.tuples(*(st.integers(0, 3),) * 3,
                  st.sampled_from((-1.5, -0.5, 0.1, 0.5, 1.0)), st.booleans()),
        max_size=12,
    ),
)
@example(m=3, entries=[])
def test_antisymmetry_equals_dense_structure(m, entries):
    """Tensors small enough for the dense oracle: repeated keys, entries whose
    transpose is absent, k == l entries, exactly cancelling pairs (an entry
    and, later, its transpose negated), maxima tied by values drawn from a
    few numbers, and no entries at all."""
    rows = [(j % m, k % m, l % m, v) for j, k, l, v, _ in entries]
    rows += [(j % m, l % m, k % m, -v) for j, k, l, v, cancel in entries if cancel]
    j, k, l = (np.array([r[i] for r in rows], dtype=np.intp) for i in range(3))
    vals = np.array([r[3] for r in rows], dtype=float)
    t = GalerkinTensor(m, 0.5, j, k, l, vals, "analytic")
    assert _antisymmetry(t) == _dense_structure(t)


@pytest.mark.parametrize("field, value, message", [
    ("l", lambda t: np.where(np.arange(t.nnz) == 1, t.m, t.l), "field 'l' holds index 16"),
    ("j", lambda t: t.j - 1, "field 'j' holds index -1"),
    ("k", lambda t: t.k[:-1], "field 'k' has shape"),
    ("vals", lambda t: np.where(np.arange(t.nnz) == 0, np.nan, t.vals), "field 'vals' holds non-finite"),
    ("l", lambda t: t.l.astype(float), "field 'l' has non-integer dtype"),
    ("m", lambda t: 16.7, "field 'm' = 16.7 must be an integer"),
    ("m", lambda t: np.inf, "field 'm' = inf must be an integer"),
    ("alpha", lambda t: np.nan, "field 'alpha' = nan must lie in"),
    ("alpha", lambda t: 7.0, "field 'alpha' = 7.0 must lie in"),
    ("alpha", lambda t: 0.0, "field 'alpha' = 0.0 must lie in"),
    ("mode", lambda t: "bogus", "field 'mode' = 'bogus' must be"),
])
def test_tensor_load_rejects_malformed_fields(tensor, tmp_path, field, value, message):
    path = tmp_path / "t.npz"
    arrays = dict(m=tensor.m, alpha=tensor.alpha, mode=tensor.mode,
                  j=tensor.j, k=tensor.k, l=tensor.l, vals=tensor.vals)
    arrays[field] = value(tensor)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=message):
        GalerkinTensor.load(path)


@settings(max_examples=30, deadline=None)
@given(
    m=st.sampled_from(SWITCH_SIDE_MS),
    B=st.integers(1, 6),
    alpha=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_quadratic_equals_row_wise_calls(m, B, alpha, seed):
    basis = build_rectangle_basis(math.ceil(math.sqrt(m)))
    states = np.random.default_rng(seed).standard_normal((B, m))
    for evaluator in (assemble_tensor(basis, m, alpha), GridProducts(basis, m, alpha)):
        batched = evaluator.quadratic(states)
        assert batched.shape == (B, m)
        for b in range(B):
            assert np.array_equal(batched[b], evaluator.quadratic(states[b]))


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, GRID_MIN_M - 1),
    B=st.sampled_from((1, 2, 3, 6)),
    alpha=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_contraction_equals_einsum_oracle(m, B, alpha, seed):
    basis = build_rectangle_basis(math.ceil(math.sqrt(m)))
    tensor = assemble_tensor(basis, m, alpha)
    shape = (B, m) if B > 1 else (m,)
    rng = np.random.default_rng(seed)
    theta, other = rng.standard_normal((2,) + shape)
    # one viscosity per row
    visc = np.multiply.outer(rng.random(shape[:-1]), basis.eigenvalues[:m])
    f = tensor.neg_rhs(visc)
    got = f(tensor.native(theta))
    f(tensor.native(other))  # a later call on the map's work array leaves got alone
    want = -np.einsum("jkl,...j,...k->...l", _to_dense(tensor), theta, theta) - visc * theta
    assert got.shape == shape[:-1] + (m + 1,)
    # the trailing entry keeps an RK4 stage's x_m at 1
    assert np.all(got[..., m] == 0.0)
    assert np.abs(got[..., :m] - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("m", (16, 64))
def test_rhs_batched_state_and_viscosities_equal_row_wise(m):
    basis = build_rectangle_basis(math.ceil(math.sqrt(m)))
    lam = basis.eigenvalues[:m]
    evaluator = galerkin.nonlinearity(basis, m, 0.4)
    states = np.random.default_rng(m).standard_normal((3, m))
    eps = np.array([0.1, 0.0, 3e-3])
    # one viscosity per row; B = 3 differs from m, so eps * lam would not
    # even broadcast
    batched = rhs(states, evaluator, eps, lam)
    for b in range(3):
        assert np.array_equal(batched[b], rhs(states[b], evaluator, eps[b], lam))


@pytest.mark.parametrize("shape", [(16,), (3, 16)])
def test_rhs_and_step_return_contiguous_arrays_of_their_own(shape):
    # the tensor's native layout carries an extra column, (..., m + 1): rhs
    # must not hand out a view of it
    m = shape[-1]
    basis = build_rectangle_basis(4)
    lam = basis.eigenvalues[:m]
    th = np.random.default_rng(2).standard_normal(shape)
    for evaluator in (assemble_tensor(basis, m, 0.4), GridProducts(basis, m, 0.4)):
        got = rhs(th, evaluator, 0.01, lam)
        visc = np.broadcast_to(0.01 * lam, shape)
        native = evaluator.neg_rhs(visc)(evaluator.native(th))
        assert np.array_equal(got, evaluator.modes(native, shape))
        new = step(GalerkinState(0.0, th), evaluator, 1e-3, eps=0.01, eigvals=lam).coeffs
        for out in (got, new):
            assert out.shape == shape
            assert out.flags.c_contiguous and out.base is None


# m = 39 is the largest dense tensor contraction a sweep runs, m = 1024 the
# largest grid workspace
@pytest.mark.parametrize("m, initial", [(20, "random"), (39, "random"), (64, "random_rough"),
                                        (1024, "random_rough")])
def test_run_ensemble_members_equal_solo_runs(m, initial):
    cfg = SimConfig(alpha=0.45, m=m, dt=1e-3, T=0.05, stride=7, initial=initial, seed=4)
    eps = (0.3, 0.1, 0.03, 0.01, 1e-3, 0.0)
    members = run_ensemble([replace(cfg, epsilon=e) for e in eps])
    assert [tr.config.epsilon for tr in members] == list(eps)
    for e, tr in zip(eps, members):
        solo = run(replace(cfg, epsilon=e))
        assert np.array_equal(tr.times, solo.times)
        assert np.array_equal(tr.snaps, solo.snaps)
        assert tr.diagnostics.keys() == solo.diagnostics.keys()
        for key, val in solo.diagnostics.items():
            assert np.array_equal(tr.diagnostics[key], val), key


@pytest.mark.parametrize("field, value", [("dt", 5e-4), ("m", 20), ("seed", 3)])
def test_run_ensemble_refuses_configs_differing_beyond_epsilon(field, value):
    cfg = SimConfig(m=16, T=0.01, initial="random")
    other = replace(cfg, epsilon=1e-3, **{field: value})
    with pytest.raises(ValueError, match=f"differ in '{field}'"):
        run_ensemble([cfg, other])


def test_run_ensemble_refuses_empty_list():
    with pytest.raises(ValueError, match="at least one"):
        run_ensemble([])


def test_stability_guard_fires_before_the_evaluator_is_built(monkeypatch):
    def fail(*args):
        raise AssertionError("the evaluator was built")

    monkeypatch.setattr(galerkin, "nonlinearity", fail)
    cfg = SimConfig(m=256, epsilon=10.0, dt=1e-3, T=1.0, initial="random")
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        run(cfg)
    assert time.perf_counter() - start < 0.1
    # lambda_256 = 512 on K = 16: 10 * 512 * 1e-3
    for part in ("epsilon=10.0", "dt=0.001", "stability number", "5.12"):
        assert part in str(info.value)


def test_stability_guard_names_the_unstable_member():
    cfg = SimConfig(m=64, dt=1e-2, T=0.1, initial="random")
    # lambda_64 = 128 on K = 8: the limit sits at epsilon = 2.18
    members = [replace(cfg, epsilon=e) for e in (1.0, 2.5, 0.1)]
    with pytest.raises(ValueError, match="epsilon=2.5, dt=0.01") as info:
        run_ensemble(members)
    assert "epsilon=1.0" not in str(info.value)
    assert str(RK4_REAL_LIMIT) in str(info.value)


def test_step_blowup_names_the_member_that_crossed(tensor, basis):
    lam = basis.eigenvalues[:16]
    th = np.zeros((2, 16))
    th[1] = 1e11
    with pytest.raises(BlowUpError) as info:
        eps = np.array([0.0, 0.5])
        step(GalerkinState(0.0, th), tensor, 1.0, eps=eps, eigvals=lam)
    exc = info.value
    assert exc.epsilon == 0.5 and exc.dt == 1.0
    assert exc.stability == 0.5 * lam.max() * 1.0
    assert exc.t == 1.0 and exc.max_coeff > 1e12


def test_run_blowup_carries_step_index_and_context(tmp_path):
    path = tmp_path / "big.bin"
    big = np.random.default_rng(0).standard_normal(16) * 1e3
    write_snapshot(path, Snapshot(16, 0.5, 0.0, 0.0, big))
    cfg = SimConfig(alpha=0.5, epsilon=0.0, m=16, dt=1e-2, T=1.0, initial=f"file:{path}")
    with pytest.raises(BlowUpError) as info:
        run_ensemble([replace(cfg, epsilon=0.01), cfg])
    exc = info.value
    assert exc.step == round(exc.t / cfg.dt) and exc.step >= 1
    assert exc.dt == cfg.dt and exc.epsilon == 0.01
    assert f"(step {exc.step})" in str(exc) and "stability number" in str(exc)


class _CountedEvaluator:
    """Wraps an evaluator and counts the calls of the maps its neg_rhs()
    builds, which run_ensemble and rhs() alike evaluate, so run_ensemble and
    a loop of step() see the same sequence.  From evaluation `at` on, member
    `row` of each output holds N = bad: the right-hand side -bad - visc theta is
    written in mode order (states of `shape`) into the modes' entries of
    the native output only, so the entries of a GridProducts square off the
    modes and the tensor's trailing slot keep their 0."""

    def __init__(self, inner, at=math.inf, bad=np.nan, row=0, shape=None):
        self.inner, self.at, self.bad, self.row, self.shape = inner, at, bad, row, shape
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def neg_rhs(self, visc):
        inner = self.inner.neg_rhs(visc)

        def counted(x):
            self.calls += 1
            out = inner(x)
            if self.calls >= self.at:
                modes = self.inner.modes(out, self.shape).copy()
                theta = self.inner.modes(x, self.shape)
                r = self.row
                np.atleast_2d(modes)[r] = (
                    -self.bad - np.atleast_2d(visc)[r] * np.atleast_2d(theta)[r])
                # native() of zeros holds the layout's constant entries only
                zeros = np.zeros(self.shape)
                out = self.inner.native(modes) - self.inner.native(zeros)
            return out

        return counted


def _poison(monkeypatch, at, bad, members):
    """Make galerkin.nonlinearity build evaluators whose last member reads
    N = bad from evaluation `at` on."""
    build = galerkin.nonlinearity

    def poisoned(basis, m, alpha):
        shape = (members, m) if members > 1 else (m,)
        return _CountedEvaluator(build(basis, m, alpha), at, bad, members - 1, shape)

    monkeypatch.setattr(galerkin, "nonlinearity", poisoned)


@pytest.mark.parametrize("bad", (np.nan, np.inf))
@pytest.mark.parametrize("members", (1, 2))
def test_nonfinite_state_mid_run_raises_blowup_at_its_step(monkeypatch, bad, members):
    # at stride 1 step s makes evaluations 4s - 2, 4s - 1, 4s (k2, k3, k4) and
    # 4s + 1 (the record, which is step s + 1's k1); poison k3 of step 5.
    # Warnings are errors: the steps the loop computes after the crossing,
    # before it checks their block, must not leak a RuntimeWarning
    _poison(monkeypatch, 19, bad, members)
    cfg = SimConfig(alpha=0.5, m=16, dt=1e-3, T=0.02, stride=1, initial="random")
    with pytest.raises(BlowUpError) as info, warnings.catch_warnings():
        warnings.simplefilter("error")
        run_ensemble([replace(cfg, epsilon=e) for e in (0.01, 0.2)[:members]])
    exc = info.value
    assert exc.step == 5 and exc.t == pytest.approx(5e-3)
    assert exc.epsilon == (0.01, 0.2)[members - 1]
    assert not exc.max_coeff <= galerkin.BLOWUP_THRESHOLD


@pytest.mark.parametrize("bad", (np.nan, 1e20))
@pytest.mark.parametrize("m, members, at_step", [
    (16, 1, 1), (60, 3, 1), (64, 1, 1), (16, 2, 290), (60, 1, 290), (64, 2, 290),
])
def test_blowup_in_any_block_names_what_step_names(monkeypatch, bad, m, members, at_step):
    # 300 steps at stride 1 span several blocks and end on a partial one,
    # which holds step 290; poisoning k3 of a step makes it the first to
    # cross.  A finite poison overflows in the steps after the crossing
    n_steps = 300
    cfg = SimConfig(alpha=0.5, m=m, dt=1e-3, T=n_steps * 1e-3, stride=1, initial="random")
    configs = [replace(cfg, epsilon=e) for e in (0.01, 0.2, 0.05)[:members]]
    if at_step > 1:
        ev = galerkin.nonlinearity(build_rectangle_basis(cfg.basis_cutoff()), m, 0.5)
        shape = (members, m) if members > 1 else (m,)
        block = galerkin.BLOCK_VALUES // ev.native(np.zeros(shape)).size
        # more than one block, and at_step in the last, partial one
        assert block <= n_steps - n_steps % block < at_step <= n_steps
    _poison(monkeypatch, 4 * at_step - 1, bad, members)
    with pytest.raises(BlowUpError) as got, warnings.catch_warnings():
        warnings.simplefilter("error")
        run_ensemble(configs)
    with pytest.raises(BlowUpError) as want, np.errstate(all="ignore"):
        _run_per_step_oracle(configs)
    got, want = got.value, want.value
    assert got.step == want.step == at_step
    assert str(got) == str(want)
    for name in ("t", "max_coeff", "dt", "epsilon", "stability"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
    assert got.epsilon == configs[-1].epsilon


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_state_built_by_a_caller_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        GalerkinState(0.0, np.array([bad]))
    with pytest.raises(ValueError, match="finite"):
        GalerkinState(0.0, np.array([[0.0, 1.0], [bad, 0.0]]))


def _counting_evaluators(monkeypatch):
    made = []
    build = galerkin.nonlinearity

    def counting(*args):
        made.append(_CountedEvaluator(build(*args)))
        return made[-1]

    monkeypatch.setattr(galerkin, "nonlinearity", counting)
    return made


@pytest.mark.parametrize("m", (16, 64))
@pytest.mark.parametrize("stride", (1, 7, 10))
@pytest.mark.parametrize("members", (1, 3))
def test_run_makes_four_rhs_calls_per_step_plus_one(monkeypatch, m, stride, members):
    # the rhs at each recorded state feeds the balance diagnostics and is
    # reused as the next step's k1, so records cost no extra evaluation of
    # the nonlinearity
    cfg = SimConfig(alpha=0.5, m=m, dt=1e-3, T=0.05, stride=stride, initial="random", seed=2)
    made = _counting_evaluators(monkeypatch)
    if members == 1:
        trajs = [run(cfg)]
    else:
        trajs = run_ensemble([replace(cfg, epsilon=e) for e in (0.1, 0.01, 0.0)[:members]])
    n_steps = 50
    assert len(made) == 1 and made[0].calls == 4 * n_steps + 1
    assert len(trajs[0].times) == 1 + -(-n_steps // stride)


@pytest.mark.parametrize("m", (16, 64))
@pytest.mark.parametrize("batch", (False, True))
def test_step_with_given_k1_equals_step(m, batch):
    basis = build_rectangle_basis(math.ceil(math.sqrt(m)))
    lam = basis.eigenvalues[:m]
    evaluator = galerkin.nonlinearity(basis, m, 0.4)
    rng = np.random.default_rng(m)
    th = rng.standard_normal((3, m) if batch else m)
    eps = np.array([0.1, 0.0, 3e-3]) if batch else 0.02
    state = GalerkinState(0.3, th)
    plain = step(state, evaluator, 1e-3, eps=eps, eigvals=lam)
    given = step(state, evaluator, 1e-3, rhs(th, evaluator, eps, lam), eps=eps, eigvals=lam)
    assert given.t == plain.t
    assert np.array_equal(given.coeffs, plain.coeffs)


@pytest.mark.parametrize("m, members", [(16, 1), (20, 3), (64, 2)])
def test_run_diagnostics_equal_per_record_recomputation(m, members):
    # at stride 1 every step is recorded, so each diagnostic can be rebuilt
    # from the snapshots alone, one record at a time as the loop used to
    cfg = SimConfig(alpha=0.45, m=m, dt=1e-3, T=0.03, stride=1, initial="random_rough", seed=3)
    trajs = run_ensemble([replace(cfg, epsilon=e) for e in (0.05, 0.2, 0.0)[:members]])
    basis = trajs[0].basis
    lam = basis.eigenvalues[:m]
    lam_ham, lam_diss = lam ** (-cfg.alpha / 2), lam ** (1 - cfg.alpha / 2)
    evaluator = galerkin.nonlinearity(basis, m, cfg.alpha)
    em = cfg.dt**2 / 12
    for tr in trajs:
        eps = tr.config.epsilon
        l2_0 = ham_0 = rate_g0 = rate_h0 = None
        de = dh = 0.0
        g_prev = h_prev = None
        for i, th in enumerate(tr.snaps):
            d = rhs(th, evaluator, eps, lam)
            g, h = np.sum(lam * th**2), np.sum(lam_diss * th**2)
            l2, ham = np.sum(th**2), np.sum(lam_ham * th**2)
            rate_g, rate_h = 2 * np.sum(lam * th * d), 2 * np.sum(lam_diss * th * d)
            if i == 0:
                l2_0, ham_0, rate_g0, rate_h0 = l2, ham, rate_g, rate_h
            else:
                de += 0.5 * cfg.dt * (g_prev + g)
                dh += 0.5 * cfg.dt * (h_prev + h)
            g_prev, h_prev = g, h
            expect = {
                "l2_theta": np.sqrt(l2),
                "h1_theta": np.sqrt(g),
                "hdot_psi": np.sqrt(ham),
                "hone_psi": np.sqrt(h),
                "energy_residual": 0.5 * l2 + eps * (de - em * (rate_g - rate_g0)) - 0.5 * l2_0,
                "hamiltonian_residual":
                    0.5 * ham + eps * (dh - em * (rate_h - rate_h0)) - 0.5 * ham_0,
            }
            for key, val in expect.items():
                assert tr.diagnostics[key][i] == val, (key, i)


def _run_per_step_oracle(configs):
    """run_ensemble with the diagnostics kept up to date inside the loop: the
    trapezoid integrals advance every step and the rates are taken at every
    record.  Returns (times, snaps, diagnostics) per member."""
    config, B, m, dt = configs[0], len(configs), configs[0].m, configs[0].dt
    basis = build_rectangle_basis(config.basis_cutoff())
    lam = basis.eigenvalues[:m]
    evaluator = galerkin.nonlinearity(basis, m, config.alpha)
    lead = (B,) if B > 1 else ()
    eps = np.array([cfg.epsilon for cfg in configs]).reshape(lead)[()]
    lam_ham, lam_diss = lam ** (-config.alpha / 2), lam ** (1 - config.alpha / 2)
    n_steps = int(round(config.T / dt))
    theta = np.broadcast_to(initial_data(config), lead + (m,))
    state = GalerkinState(0.0, theta.copy())

    def dissipation(th):
        sq = th**2
        return (lam * sq).sum(axis=-1), (lam_diss * sq).sum(axis=-1)

    diss_energy = diss_ham = np.zeros(lead)[()]
    recs = []

    def record(st, g, h, k1):
        th = st.coeffs
        recs.append((
            st.t, th, g, h, 2.0 * np.sum(lam * th * k1, axis=-1),
            2.0 * np.sum(lam_diss * th * k1, axis=-1), diss_energy, diss_ham,
        ))

    k1 = rhs(state.coeffs, evaluator, eps, lam)
    g_prev, h_prev = dissipation(state.coeffs)
    record(state, g_prev, h_prev, k1)
    for i in range(1, n_steps + 1):
        try:
            state = step(state, evaluator, dt, k1, eps=eps, eigvals=lam)
        except BlowUpError as exc:
            exc.step = i
            raise
        k1 = None
        g_new, h_new = dissipation(state.coeffs)
        diss_energy = diss_energy + 0.5 * dt * (g_prev + g_new)
        diss_ham = diss_ham + 0.5 * dt * (h_prev + h_new)
        g_prev, h_prev = g_new, h_new
        if i % config.stride == 0 or i == n_steps:
            k1 = rhs(state.coeffs, evaluator, eps, lam)
            record(state, g_new, h_new, k1)

    times, snaps, g, h, g_rate, h_rate, de, dh = (np.array(v) for v in zip(*recs))
    l2_sq = np.sum(snaps**2, axis=-1)
    ham = np.sum(lam_ham * snaps**2, axis=-1)
    em = dt**2 / 12.0
    diag = {
        "l2_theta": np.sqrt(l2_sq),
        "h1_theta": np.sqrt(g),
        "hdot_psi": np.sqrt(ham),
        "hone_psi": np.sqrt(h),
        "energy_residual": 0.5 * l2_sq + eps * (de - em * (g_rate - g_rate[0])) - 0.5 * l2_sq[0],
        "hamiltonian_residual":
            0.5 * ham + eps * (dh - em * (h_rate - h_rate[0])) - 0.5 * ham[0],
    }
    snaps = snaps.reshape(len(times), B, m)
    diag = {key: v.reshape(len(times), B) for key, v in diag.items()}
    return [(times, snaps[:, b], {key: v[:, b] for key, v in diag.items()}) for b in range(B)]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# tensor (m = 16) and grid products on squares the modes fill (m = 64) or
# not (m = 40 on K = 7, m = 60 on K = 8)
@pytest.mark.parametrize("m", (16, 40, 60, 64))
@pytest.mark.parametrize("stride", (1, 7, 10))
@pytest.mark.parametrize("members", (1, 3, 6))
def test_run_ensemble_equals_per_step_oracle(m, stride, members):
    # the loop in the evaluator's native layout with its per-block checks
    # and sums, the trapezoid integrals taken after it by one cumsum and the
    # rates reduced over the stacked records match the per-step loop of
    # step() and rhs() bit for bit; 300 steps span more than one block of
    # states and end on a partial block, except for one state at m = 16
    cfg = SimConfig(alpha=0.45, m=m, dt=1e-3, T=0.3, stride=stride,
                    initial="random_rough", seed=6)
    _assert_equals_per_step_oracle(
        [replace(cfg, epsilon=e) for e in (0.3, 0.02, 0.0, 0.1, 1e-3, 0.05)[:members]])


@pytest.mark.parametrize("members, steps_per_block", [(8, 1), (4, 2)])
def test_run_ensemble_equals_per_step_oracle_in_blocks_of_one_and_two_steps(
        members, steps_per_block):
    # at m = 1024 a member's native state is the (32, 1, 32) square, so a
    # block of BLOCK_VALUES values holds one step of 8 members and two of 4;
    # 11 steps at stride 3 end on a partial block for 4
    cfg = SimConfig(alpha=0.45, m=1024, dt=1e-3, T=0.011, stride=3,
                    initial="random_rough", seed=6)
    configs = [replace(cfg, epsilon=e)
               for e in (0.3, 0.02, 0.0, 0.1, 1e-3, 0.05, 0.2, 0.01)[:members]]
    ev = galerkin.nonlinearity(build_rectangle_basis(cfg.basis_cutoff()), 1024, cfg.alpha)
    assert galerkin.BLOCK_VALUES // ev.native(np.zeros((members, 1024))).size == steps_per_block
    _assert_equals_per_step_oracle(configs)


def _assert_equals_per_step_oracle(configs):
    for tr, (times, snaps, diag) in zip(run_ensemble(configs), _run_per_step_oracle(configs)):
        assert _same_bits(tr.times, times)
        assert _same_bits(tr.snaps, snaps)
        assert tr.diagnostics.keys() == diag.keys()
        for key, val in diag.items():
            assert _same_bits(tr.diagnostics[key], val), key


def test_viscous_balance_residuals_converge_at_fourth_order():
    # residuals well above round-off at both step sizes, so their ratio
    # measures the scheme: 7.27e-5 and 5.43e-6 here, order 3.74; without the
    # endpoint correction the trapezoid's dt^2 error gives order ~2
    cfg = SimConfig(alpha=0.5, epsilon=0.5, m=64, T=1.0, stride=1,
                    initial="random", seed=1)
    res = []
    for dt in (1e-2, 5e-3):
        d = run(replace(cfg, dt=dt)).diagnostics
        res.append(max(np.abs(d["energy_residual"]).max(),
                       np.abs(d["hamiltonian_residual"]).max()))
    assert res[1] > 1e-9
    assert math.log2(res[0] / res[1]) >= 3.0


def test_rk4_trajectory_error_is_fourth_order():
    # self-convergence of the final state against a dt = 2.5e-4 reference;
    # RK4 gives order ~4.0 here, a second-order scheme ~2
    cfg = SimConfig(alpha=0.5, epsilon=0.01, m=256, dt=4e-3, T=0.5,
                    initial="random", seed=3, stride=125)
    final = {dt: run(replace(cfg, dt=dt)).snaps[-1] for dt in (4e-3, 2e-3, 2.5e-4)}
    errs = [np.linalg.norm(final[dt] - final[2.5e-4]) for dt in (4e-3, 2e-3)]
    assert errs[1] > 1e-13  # above round-off, so the ratio measures the scheme
    assert math.log2(errs[0] / errs[1]) >= 3.5
