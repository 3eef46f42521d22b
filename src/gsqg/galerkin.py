"""Galerkin mode ODE with viscosity, its two nonlinearity evaluators, and RK4
trajectories.

The dynamics is the quadratic ODE
    d theta_l / dt + sum_jk gamma_jkl theta_j theta_k + eps lambda_l theta_l = 0
with gamma_jkl = lambda_j^{-alpha/2} int (perp-grad w_j . grad w_k) w_l dx.
The tensor is antisymmetric in (k, l), which makes the inviscid L2 norm an
exact invariant of the ODE; trajectories track the discrete energy and
stream-function (Hamiltonian) balances alongside the state.

Two evaluators of the quadratic term share one interface, `.m` and
`.quadratic(theta)`, where theta is one state of shape (m,) or a batch of
shape (B, m) and the result has the same shape:

- GalerkinTensor, the sparse gamma_jkl (about 2 m^2 nonzeros), assembled in
  closed form by assemble_tensor in Python loops; each contraction costs
  O(m^2).
- GridProducts, which samples grad psi and grad theta on N x N interior nodes,
  multiplies pointwise and projects back with dense sine/cosine matrices.
  Along each axis the integrand of gamma_jkl is a product of three sines or
  cosines of total wavenumber at most 3K, i.e. a sum of cos(n x) with
  |n| <= 3K.  The rectangle rule on N interior nodes sums cos(n x) to its
  exact integral unless n is a nonzero multiple of 2(N+1): there the nodes
  see cos(n x) as the constant 1 (aliasing) and the rule returns pi, not 0.
  So 2(N+1) > 3K, Orszag's 3/2 de-aliasing rule, makes the projection exact,
  and N = floor(3K/2) is the smallest such grid.  Its bilinear(a, b) is the
  one grid form of gamma; tensor() evaluates it on unit pairs, which is how
  the closed-form tensor is checked.

run_ensemble() advances B trajectories that differ only in epsilon as one
(B, m) RK4 state; run() is its B = 1 case.  Both use the tensor for
m < GRID_MIN_M and grid products from there on; the tensor stays as the test
oracle for the grid path.  Each member of a batch comes out bit-identical to
its own run(): every batched operation is elementwise, a per-row reduction
or a GEMM in which the batch only adds rows or columns, so each entry is the
same dot product over the same k as in the member's own call (true of
OpenBLAS at one and two threads, which the tests and CI run).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .basis import (
    EigenBasis,
    GridField,
    QuadratureGrid,
    SpectralField,
    analyze,
    build_rectangle_basis,
    gradient,
    perp_gradient,
    _cosine_matrix,
    _sine_matrix,
)

PI = np.pi

#: smallest mode count at which run() evaluates the nonlinearity by grid
#: products.  Below it the grid's fixed cost of a dozen small array
#: operations dominates, above it the tensor's O(m^2) contraction.  On a
#: 2-core Xeon VM (OpenBLAS, one thread) one state at m = 16 took 8.9 us by
#: the tensor and 19.7 us by grid products per call.  run_suite("quick")
#: holds both sides: its weak_residual check makes 12,002 one-state rhs calls
#: at m = 16, while the sweep and simulate runs at m = 64 and 256 sit above
#: the switch.  run_suite("quick") took 0.53-0.63 s (median 0.56 s) in process
#: with this switch and 0.64-0.82 s (median 0.70 s) with grid products at
#: every m.
GRID_MIN_M = 40

#: coefficient magnitude treated as integrator blow-up (the exact ODE cannot
#: leave the initial L2 sphere, so crossings indicate integrator failure)
BLOWUP_THRESHOLD = 1e12

#: RK4's stability limit on the negative real axis (2.7853 to four digits):
#: the viscous term alone grows without bound once eps lambda_max dt exceeds it
RK4_REAL_LIMIT = 2.785


class BlowUpError(RuntimeError):
    """Raised when a trajectory exceeds the blow-up threshold.

    Carries the time `t` and largest |coefficient| `max_coeff` at the failed
    step, the step size `dt`, the `epsilon` of the trajectory (in a batch, of
    the first member that crossed) and its stability number eps lambda_max dt.
    run_ensemble adds the step index `step`.
    """

    def __init__(self, t: float, max_coeff: float, dt: float, epsilon: float,
                 stability: float, step: int | None = None):
        super().__init__(t, max_coeff)
        self.t = t
        self.max_coeff = max_coeff
        self.dt = dt
        self.epsilon = epsilon
        self.stability = stability
        self.step = step

    def __str__(self) -> str:
        at = f"t={self.t}" if self.step is None else f"t={self.t} (step {self.step})"
        return (
            f"integrator blow-up at {at}: max |coefficient| = {self.max_coeff:.3e} "
            f"exceeds {BLOWUP_THRESHOLD:.0e}; epsilon={self.epsilon}, dt={self.dt}, "
            f"stability number epsilon*lambda_max*dt = {self.stability:.3g} "
            f"(RK4 limit {RK4_REAL_LIMIT})"
        )


@dataclass
class GalerkinTensor:
    """Sparse structure constants gamma_jkl for the first m modes."""

    m: int
    alpha: float
    j: np.ndarray
    k: np.ndarray
    l: np.ndarray
    vals: np.ndarray
    mode: str
    _bins: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.m, self.m, self.m))
        dense[self.j, self.k, self.l] = self.vals
        return dense

    def quadratic(self, theta: np.ndarray) -> np.ndarray:
        """(sum_jk gamma_jkl theta_j theta_k)_l, the nonlinear part of the ODE,
        for theta of shape (m,) or (B, m)."""
        weights = self.vals * theta.take(self.j, axis=-1) * theta.take(self.k, axis=-1)
        if theta.ndim == 1:
            return np.bincount(self.l, weights=weights, minlength=self.m)
        B = len(theta)
        bins = self._bins.get(B)
        if bins is None:
            bins = self._batch_bins(B)
        return np.bincount(bins, weights=weights.ravel(), minlength=B * self.m).reshape(B, self.m)

    def _batch_bins(self, B: int) -> np.ndarray:
        """Row b's terms go to bins b*m + l, each summed in the row-wise
        order; built once per batch size and kept read-only."""
        bins = (self.l + self.m * np.arange(B)[:, None]).ravel()
        bins.setflags(write=False)
        return self._bins.setdefault(B, bins)

    def save(self, path):
        np.savez(
            path, m=self.m, alpha=self.alpha, mode=self.mode,
            j=self.j, k=self.k, l=self.l, vals=self.vals,
        )

    @classmethod
    def load(cls, path) -> "GalerkinTensor":
        """Read a saved tensor; ValueError names the first malformed field."""
        with np.load(path, allow_pickle=False) as z:
            missing = {"m", "alpha", "mode", "j", "k", "l", "vals"} - set(z.files)
            if missing:
                raise ValueError(f"{path}: missing field(s) {sorted(missing)}")
            t = cls(
                m=int(z["m"]), alpha=float(z["alpha"]),
                j=z["j"], k=z["k"], l=z["l"], vals=z["vals"],
                mode=str(z["mode"]),
            )
        if t.m < 1:
            raise ValueError(f"{path}: field 'm' = {t.m} must be >= 1")
        if t.vals.ndim != 1 or not np.issubdtype(t.vals.dtype, np.number):
            raise ValueError(
                f"{path}: field 'vals' must be a 1-d numeric array, got "
                f"shape {t.vals.shape} dtype {t.vals.dtype}"
            )
        if not np.all(np.isfinite(t.vals)):
            raise ValueError(f"{path}: field 'vals' holds non-finite values")
        for name in ("j", "k", "l"):
            idx = getattr(t, name)
            if idx.shape != t.vals.shape:
                raise ValueError(
                    f"{path}: field {name!r} has shape {idx.shape}, "
                    f"'vals' has {t.vals.shape}"
                )
            if not np.issubdtype(idx.dtype, np.integer):
                raise ValueError(f"{path}: field {name!r} has non-integer dtype {idx.dtype}")
            bad = idx[(idx < 0) | (idx >= t.m)]
            if bad.size:
                raise ValueError(
                    f"{path}: field {name!r} holds index {int(bad[0])} "
                    f"outside [0, m={t.m})"
                )
        return t


def _sine_cos_integral(a: int, b: int, c: int) -> float:
    """int_0^pi sin(a x) cos(b x) sin(c x) dx for positive integers."""
    val = 0.0
    if a + b == c:
        val += PI / 4.0
    if abs(a - b) == c and a != b:
        val += math.copysign(PI / 4.0, a - b)
    return val


def assemble_tensor(basis: EigenBasis, m: int, alpha: float) -> GalerkinTensor:
    """gamma_jkl for all mode triples below m, from the closed-form triple
    sine/cosine product integrals.  GridProducts(basis, m, alpha).tensor()
    builds the same tensor by exact grid products."""
    if not 1 <= m <= basis.size:
        raise ValueError(f"mode count m={m} out of range [1, {basis.size}]")
    lam_pref = basis.eigenvalues[:m] ** (-alpha / 2.0)
    modes = basis.modes[:m]
    triples_j, triples_k, triples_l, vals = [], [], [], []
    index = {(mm.j, mm.k): i for i, mm in enumerate(modes)}
    c0 = (2.0 / PI) ** 3
    for ji, mj in enumerate(modes):
        for ki, mk in enumerate(modes):
            if ji == ki:
                continue
            acc: dict[int, float] = {}
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
    return GalerkinTensor(
        m=m,
        alpha=alpha,
        j=np.array(triples_j, dtype=np.intp),
        k=np.array(triples_k, dtype=np.intp),
        l=np.array(triples_l, dtype=np.intp),
        vals=np.array(vals, dtype=float),
        mode="analytic",
    )


def _sc_candidates(a: int, b: int):
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


class GridProducts:
    """P_m(u . grad theta) by grid products that are exact on the first m modes.

    Built once per (basis, m, alpha); quadratic() then agrees with
    assemble_tensor(basis, m, alpha).quadratic to roundoff.  Each call
    allocates its own work arrays and only reads the stored ones (the
    per-shape index cache is filled once and never changed), so one instance
    may serve concurrent trajectories.
    """

    def __init__(self, basis: EigenBasis, m: int, alpha: float):
        if not 1 <= m <= basis.size:
            raise ValueError(f"mode count m={m} out of range [1, {basis.size}]")
        j, k = basis.mode_arrays()
        j, k = j[:m] - 1, k[:m] - 1
        K = int(max(j.max(), k.max())) + 1
        N = 3 * K // 2  # smallest N with 2(N+1) > 3K
        self.m, self.alpha, self.K, self.N = m, alpha, K, N
        self._j, self._k = j, k
        self._psi_scale = basis.eigenvalues[:m] ** (-alpha / 2.0)
        S = _sine_matrix(N, K)
        dC = (2.0 / PI) * _cosine_matrix(N, K) * np.arange(1, K + 1)
        # (d/dx, d/dy) f = (dC F S^T, S F dC^T) for the (K, K) coefficients F
        self._left = np.concatenate([dC, S])
        self._St, self._dCt = np.ascontiguousarray(S.T), np.ascontiguousarray(dC.T)
        self._proj = (2.0 / PI) * (PI / (N + 1)) ** 2 * S.T
        self._S = S
        # rows (h, p, f) of left @ F in the order (f, p) for the dC half h = 0
        # and (reversed f, p) for the S half h = 1; see bilinear()
        p = 2 * np.arange(N)
        self._rows_x = np.concatenate([p, p + 1])
        self._rows_y = np.concatenate([p + 2 * N + 1, p + 2 * N])
        self._index = {}  # state shape -> (psi scatter, b scatter, gather)
        for a in (self._psi_scale, self._left, self._St, self._dCt, self._proj,
                  self._rows_x, self._rows_y):
            a.setflags(write=False)

    def _indices(self, shape: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat positions of the modes of n = prod(shape[:-1]) states in the
        (K, 2nK) input of bilinear() (a's squares, then b's) and in its
        (nK, K) output."""
        K, j, k = self.K, self._j, self._k
        n = math.prod(shape[:-1])
        b = np.arange(n).reshape(shape[:-1] + (1,))
        index = (j * (2 * n * K) + b * K + k, j * (2 * n * K) + (n + b) * K + k,
                 (j * n + b) * K + k)
        for a in index:
            a.setflags(write=False)
        return self._index.setdefault(shape, index)

    def bilinear(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """P_m(perp-grad Lambda^{-alpha} a . grad b) = (sum_jk gamma_jkl a_j b_k)_l
        for a and b of one shape, (m,) or (B, m); the products broadcast over B.

        The n = B states' 2n coefficient squares F_c (psi = Lambda^{-alpha/2} a
        first, then b) sit side by side in one (K, 2nK) matrix, so each of the
        five products below is one 2-d GEMM whatever n is, and an (m,) state
        is simply n = 1.  The row reorder between the first two products puts
        the psi and b derivatives of one member into matching contiguous
        blocks, which keeps the pointwise product contiguous.
        """
        K, N = self.K, self.N
        index = self._index.get(a.shape)
        s_a, s_b, gather = index if index is not None else self._indices(a.shape)
        n = gather.size // self.m
        F = np.zeros(2 * n * K * K)
        F[s_a] = self._psi_scale * a
        F[s_b] = b
        # ndarray.dot, not @: on matrices this small the matmul ufunc's
        # set-up costs more than the product (1.9 against 0.5 us at m = 64)
        # L: rows (h, p, f) with h = dC or S and f = psi or b, columns (member, k)
        L = self._left.dot(F.reshape(K, 2 * n * K)).reshape(4 * N, n * K)
        # X = (psi_x, b_x) and Y = (b_y, psi_y), each with rows (f, p, member)
        X = L.take(self._rows_x, axis=0).reshape(2 * n * N, K).dot(self._St)
        Y = L.take(self._rows_y, axis=0).reshape(2 * n * N, K).dot(self._dCt)
        # u . grad b with u = perp-grad psi = (-psi_y, psi_x)
        Z = (X * Y).reshape(2, N, n * N)
        adv = Z[0] - Z[1]  # (p, (member, q))
        return self._proj.dot(adv).reshape(n * K, N).dot(self._S).take(gather)

    def quadratic(self, theta: np.ndarray) -> np.ndarray:
        """(sum_jk gamma_jkl theta_j theta_k)_l, the nonlinear part of the ODE,
        for theta of shape (m,) or (B, m)."""
        return self.bilinear(theta, theta)

    def tensor(self) -> GalerkinTensor:
        """gamma_jkl as bilinear() on unit pairs (e_j, e_k), one j at a time,
        keeping the entries with |gamma_jkl| > 1e-13."""
        eye = np.eye(self.m)
        parts = []
        for j in range(self.m):
            g = self.bilinear(np.broadcast_to(eye[j], eye.shape), eye)  # (k, l)
            k, l = np.nonzero(np.abs(g) > 1e-13)
            parts.append((np.full(len(k), j, dtype=np.intp), k, l, g[k, l]))
        j, k, l, vals = (np.concatenate(p) for p in zip(*parts))
        return GalerkinTensor(self.m, self.alpha, j, k, l, vals, mode="grid")


def evaluator_mode(m: int) -> str:
    """Name of the nonlinearity evaluator run() uses for m modes."""
    return "grid" if m >= GRID_MIN_M else "analytic"


def nonlinearity(basis: EigenBasis, m: int, alpha: float) -> GalerkinTensor | GridProducts:
    """The evaluator run() uses: the analytic tensor below GRID_MIN_M, grid
    products from there on."""
    if evaluator_mode(m) == "grid":
        return GridProducts(basis, m, alpha)
    return assemble_tensor(basis, m, alpha)


def rhs(
    theta: np.ndarray, tensor: GalerkinTensor | GridProducts,
    visc: float | np.ndarray, eigvals: np.ndarray | None,
) -> np.ndarray:
    """d theta / dt = -N(theta) - eps lambda theta, with N(theta) from the
    evaluator `tensor` (a GalerkinTensor or GridProducts).

    theta is one state (m,) or a batch (B, m).  The viscous diagonal eps lambda
    is visc * eigvals, for a scalar visc = eps; with eigvals None it is visc
    itself, shape (m,) or (B, m), which run_ensemble builds once per run."""
    if theta.shape[-1:] != (tensor.m,):
        raise ValueError(f"state length {theta.shape} does not match m={tensor.m}")
    if eigvals is not None:
        visc = visc * eigvals
    return -tensor.quadratic(theta) - visc * theta


@dataclass
class GalerkinState:
    t: float
    coeffs: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("state coefficients must be finite")

    @classmethod
    def _checked(cls, t: float, coeffs: np.ndarray) -> "GalerkinState":
        """A state whose coefficients the caller has already shown finite."""
        state = object.__new__(cls)
        state.t, state.coeffs = t, coeffs
        return state


def step(
    state: GalerkinState,
    tensor: GalerkinTensor | GridProducts,
    dt: float,
    k1: np.ndarray | None = None,
    *,
    eps: float | np.ndarray,
    visc: np.ndarray,
) -> GalerkinState:
    """One classical RK4 step of the mode ODE, for one state or a batch, with
    visc the viscous diagonal (see rhs); eps, a scalar or (B,), only names the
    member in a BlowUpError.  k1 is the right-hand side at `state` when the
    caller already has it: the step then makes three rhs calls, not four, and
    leaves k1 unchanged."""
    if dt <= 0:
        raise ValueError(f"time step must be positive, got {dt}")
    th = state.coeffs
    if k1 is None:
        k1 = rhs(th, tensor, visc, None)
    h = 0.5 * dt
    k2 = rhs(th + h * k1, tensor, visc, None)
    k3 = rhs(th + h * k2, tensor, visc, None)
    k4 = rhs(th + dt * k3, tensor, visc, None)
    # new = th + (dt/6) (k1 + 2 k2 + 2 k3 + k4), built in k2 with the same
    # operations in the same association, operands swapped only
    new = k2
    new *= 2.0
    new += k1
    k3 *= 2.0
    new += k3
    new += k4
    new *= dt / 6.0
    new += th
    mx = np.abs(new).max() if new.size else 0.0
    if not mx <= BLOWUP_THRESHOLD:  # also true for nan, so a passing state is finite
        raise _blowup(state.t + dt, float(mx), new, eps, dt, visc)
    return GalerkinState._checked(state.t + dt, new)


def _blowup(t, mx, new, eps, dt, visc) -> BlowUpError:
    """The BlowUpError of a step, naming the first row that crossed."""
    row_max = np.abs(new.reshape(-1, new.shape[-1])).max(axis=-1)
    b = int(np.argmax(~(row_max <= BLOWUP_THRESHOLD)))  # nan counts as crossed
    e = float(np.ravel(eps)[b]) if np.ndim(eps) else float(eps)
    # eps >= 0 and rounding is monotone: the row's largest entry is eps lambda_max
    visc_max = np.broadcast_to(visc, new.shape).reshape(len(row_max), -1)[b].max()
    return BlowUpError(t, mx, dt, e, float(visc_max) * dt)


#: the named initial data of initial_data(); "file:PATH" reads a snapshot
INITIAL_DATA = ("single_mode", "two_mode", "random", "random_rough", "bump")


@dataclass
class SimConfig:
    """Validated run parameters for one Galerkin trajectory."""

    alpha: float = 0.5
    epsilon: float = 0.01
    m: int = 16
    dt: float = 1e-3
    T: float = 1.0
    stride: int = 10
    initial: str = "single_mode"
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T <= 0:
            raise ValueError("T must be positive")
        # a run takes round(T / dt) steps; 1e-9 absorbs 0.05 / 1e-3 = 50.00000000000001
        steps = self.T / self.dt
        if not (math.isfinite(steps) and round(steps) >= 1
                and abs(steps - round(steps)) <= 1e-9 * steps):
            raise ValueError(
                f"T (t_final) = {self.T} is not a whole number of dt = {self.dt} steps")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError("alpha must lie in (0, 2]")
        if self.initial not in INITIAL_DATA and not self.initial.startswith("file:"):
            raise ValueError(
                f"unknown initial datum {self.initial!r} for key 'initial' "
                f"(known: {', '.join(INITIAL_DATA)}, file:PATH)")
        if self.alpha >= 1.0:
            warnings.warn(
                f"alpha={self.alpha} is outside the singular-velocity "
                f"weak-solution regime alpha in (0, 1)",
                stacklevel=3,
            )

    def basis_cutoff(self) -> int:
        return int(math.ceil(math.sqrt(self.m)))


@dataclass
class Trajectory:
    """Snapshots and per-snapshot diagnostics of one run."""

    config: SimConfig
    basis: EigenBasis
    times: np.ndarray
    snaps: np.ndarray  # (n_snap, m)
    diagnostics: dict

    def state_at(self, i: int) -> SpectralField:
        coeffs = np.zeros(self.basis.size)
        coeffs[: self.config.m] = self.snaps[i]
        return SpectralField(self.basis, coeffs)

    def final_state(self) -> SpectralField:
        return self.state_at(len(self.times) - 1)


def initial_data(config: SimConfig, basis: EigenBasis) -> np.ndarray:
    """Named analytic initial fields, projected onto the first m modes."""
    m = config.m
    rng = np.random.default_rng(config.seed)
    name = config.initial
    theta0 = np.zeros(m)
    if name == "single_mode":
        theta0[0] = 1.0
    elif name == "two_mode":
        theta0[0] = 1.0
        theta0[min(1, m - 1)] = -0.5
    elif name == "random":
        theta0 = rng.standard_normal(m)
        theta0 /= np.linalg.norm(theta0)
    elif name == "random_rough":
        # slow coefficient decay lambda^{-0.6}: rough datum for sweeps
        theta0 = rng.standard_normal(m) * basis.eigenvalues[:m] ** (-0.6)
        theta0 /= np.linalg.norm(theta0)
    elif name == "bump":
        from .weakform import test_function_catalog

        phi = test_function_catalog()["quartic"]
        grid = QuadratureGrid(4 * basis.K)
        full = analyze(GridField(grid, phi.on(grid)), basis)
        theta0 = full.coeffs[:m].copy()
    elif name.startswith("file:"):
        from .snapshots import read_snapshot

        snap = read_snapshot(name[5:])
        if len(snap.coeffs) < m:
            raise ValueError(
                f"snapshot holds {len(snap.coeffs)} coefficients, need m={m}"
            )
        theta0 = np.asarray(snap.coeffs[:m])
    else:
        raise ValueError(f"unknown initial datum {name!r}")
    return theta0


def run(config: SimConfig, basis: EigenBasis | None = None) -> Trajectory:
    """Integrate the mode ODE and record snapshots plus balance diagnostics."""
    return run_ensemble([config], basis)[0]


def _check_ensemble(configs: list[SimConfig], lam_max: float) -> None:
    """Refuse configs that differ in more than epsilon or that RK4 cannot
    integrate stably, before any work is done."""
    first = configs[0]
    for cfg in configs[1:]:
        for f in fields(SimConfig):
            a, b = getattr(first, f.name), getattr(cfg, f.name)
            if f.name != "epsilon" and a != b:
                raise ValueError(
                    f"ensemble configs differ in {f.name!r} ({a!r} vs {b!r}); "
                    f"only 'epsilon' may vary"
                )
    for cfg in configs:
        number = cfg.epsilon * lam_max * cfg.dt
        if number > RK4_REAL_LIMIT:
            raise ValueError(
                f"epsilon={cfg.epsilon}, dt={cfg.dt}: stability number "
                f"epsilon*lambda_max*dt = {number:.4g} exceeds RK4's limit "
                f"{RK4_REAL_LIMIT} (lambda_max = {lam_max:g} at m={cfg.m}); "
                f"lower dt or epsilon"
            )


def run_ensemble(
    configs: list[SimConfig], basis: EigenBasis | None = None
) -> list[Trajectory]:
    """Integrate configs that differ only in epsilon as one (B, m) RK4 state.

    Returns one Trajectory per config, in order, each bit-identical to what
    run() of that config alone gives.  ValueError names the field when the
    configs differ in more than epsilon, and the member when a config's
    stability number eps lambda_max dt exceeds RK4_REAL_LIMIT.

    The loop keeps only what each step must: the state, its two dissipation
    sums g = ||grad theta||^2 and h = ||psi||^2_{D(L^{1+a/2})}, and at each
    record the state and the rhs there.  That rhs doubles as the next step's
    k1, so a run makes exactly 4 n_steps + 1 rhs calls.  After the loop the
    trapezoid integrals of g and h are one sequential cumsum over the steps,
    and the norms and the rates 2 sum lambda theta k1 are reduced over the
    stacked records; every sum is taken in the order a per-step update would
    take it, so the diagnostics match one to the bit.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("run_ensemble needs at least one config")
    config = configs[0]
    if basis is None:
        basis = build_rectangle_basis(config.basis_cutoff())
    if basis.size < config.m:
        raise ValueError(f"basis holds {basis.size} modes, need m={config.m}")
    m = config.m
    lam = basis.eigenvalues[:m]
    _check_ensemble(configs, float(lam[-1]))
    evaluator = nonlinearity(basis, m, config.alpha)
    alpha = config.alpha
    dt = config.dt
    # the state is (B, m), or (m,) for one member: with a (1, m) state the
    # tensor's bin offsets and the per-row viscosities made one RK4 step
    # 1.16x as long at m = 16 and 1.05x at m = 64
    B = len(configs)
    lead = (B,) if B > 1 else ()
    eps = np.array([cfg.epsilon for cfg in configs]).reshape(lead)[()]
    visc = np.multiply.outer(eps, lam)  # the viscous diagonal, (m,) or (B, m)
    lam_ham = lam ** (-alpha / 2.0)  # weight of ||psi||^2_{D(L^{a/2})}
    # weights of g and h, the dissipation rates of the two balances
    weights = np.stack([lam, lam ** (1.0 - alpha / 2.0)])

    theta = np.broadcast_to(initial_data(config, basis), lead + (m,)).copy()
    n_steps = round(config.T / dt)
    state = GalerkinState(0.0, theta)
    gh = np.empty((n_steps + 1,) + lead + (2,))  # g and h at every step
    gh[0] = (weights * theta[..., None, :] ** 2).sum(axis=-1)
    k1 = rhs(theta, evaluator, visc, None)
    rec_steps, times, snaps, k1s = [0], [0.0], [theta], [k1]
    for i in range(1, n_steps + 1):
        try:
            state = step(state, evaluator, dt, k1, eps=eps, visc=visc)
        except BlowUpError as exc:
            exc.step = i
            raise
        th = state.coeffs
        gh[i] = (weights * th[..., None, :] ** 2).sum(axis=-1)
        if i % config.stride == 0 or i == n_steps:
            # the rhs at a recorded state is also the next step's k1
            k1 = rhs(th, evaluator, visc, None)
            rec_steps.append(i)
            times.append(state.t)
            snaps.append(th)
            k1s.append(k1)
        else:
            k1 = None

    # trapezoid: the integral to step i is the sum of the first i increments,
    # accumulated one step at a time
    incr = np.zeros_like(gh)
    incr[1:] = 0.5 * dt * (gh[:-1] + gh[1:])
    integral = np.cumsum(incr, axis=0)[rec_steps]
    gh = gh[rec_steps]
    # snaps has shape (n_rec,) + lead + (m,), the reductions (n_rec,) + lead
    times, snaps = np.array(times), np.array(snaps)
    rate = 2.0 * np.sum(weights * snaps[..., None, :] * np.array(k1s)[..., None, :], axis=-1)
    l2_sq = np.sum(snaps**2, axis=-1)
    ham = np.sum(lam_ham * snaps**2, axis=-1)
    # endpoint-corrected trapezoid: subtracting (dt^2/12)(g'(t) - g'(0)) kills
    # the Euler-Maclaurin dt^2 term, so the balance residuals track the RK4
    # trajectory error instead of the quadrature error
    em = dt**2 / 12.0
    diss = integral - em * (rate - rate[0])  # last axis: energy, Hamiltonian
    diag = {
        "l2_theta": np.sqrt(l2_sq),
        "h1_theta": np.sqrt(gh[..., 0]),
        "hdot_psi": np.sqrt(ham),
        "hone_psi": np.sqrt(gh[..., 1]),
        "energy_residual": 0.5 * l2_sq + eps * diss[..., 0] - 0.5 * l2_sq[0],
        "hamiltonian_residual": 0.5 * ham + eps * diss[..., 1] - 0.5 * ham[0],
    }
    snaps = snaps.reshape(len(times), B, m)
    diag = {key: v.reshape(len(times), B) for key, v in diag.items()}
    return [
        Trajectory(
            config=cfg,
            basis=basis,
            times=times.copy(),
            snaps=np.ascontiguousarray(snaps[:, b]),
            diagnostics={key: np.ascontiguousarray(v[:, b]) for key, v in diag.items()},
        )
        for b, cfg in enumerate(configs)
    ]


def nonlinear_term_grid(
    theta: SpectralField, m: int, alpha: float, grid: QuadratureGrid | None = None
) -> np.ndarray:
    """P_m(u . grad theta) via grid products: independent check of the tensor."""
    basis = theta.basis
    if grid is None:
        grid = QuadratureGrid(3 * basis.K)
    u = perp_gradient(
        SpectralField(basis, basis.eigenvalues ** (-alpha / 2.0) * theta.coeffs), grid
    )
    g = gradient(theta, grid)
    advect = GridField(grid, u.values[0] * g.values[0] + u.values[1] * g.values[1])
    return analyze(advect, basis).coeffs[:m]
