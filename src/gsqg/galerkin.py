"""Galerkin mode ODE with viscosity, its two nonlinearity evaluators, and RK4
trajectories.

The dynamics is the quadratic ODE
    d theta_l / dt + sum_jk gamma_jkl theta_j theta_k + eps lambda_l theta_l = 0
with gamma_jkl = lambda_j^{-alpha/2} int (perp-grad w_j . grad w_k) w_l dx.
The tensor is antisymmetric in (k, l), which makes the inviscid L2 norm an
exact invariant of the ODE; trajectories track the discrete energy and
stream-function (Hamiltonian) balances alongside the state.

Two evaluators of the quadratic term share one interface: `.m`, a native
layout of the state that `.native(theta)` and `.modes(x, shape)` convert to
and from, `.neg_rhs(visc)`, which given the viscous diagonal eps lambda in
mode order returns the map (x, out) -> out writing -N(x) - visc x for
native x into out, and `.quadratic(theta)`, N(theta) in mode order.  theta
is one state of shape (m,) or a batch of shape (B, m), and results have the
same shape.  A map owns its work arrays (one run's), its caller x and out.
The RK4 stepper _advance builds the map once per run and allocates every
array a step writes once per run: the slots, stage buffer and coefficients
of _rk4, the one RK4 step, and the blocks it yields.  The per-step rhs()
and step(), its test oracle, build the map and buffers per call, in mode
order.

- GalerkinTensor, the about 2 m^2 nonzeros of gamma_jkl, assembled in
  closed form by assemble_tensor with array operations over all mode pairs
  at once.  Its native layout is mode order plus a trailing 1, the factor of
  the viscous terms in the contraction.  Below GRID_MIN_M, where runs use
  it, a contraction is two vector-matrix products with a dense matrix of
  -gamma, O(m^3) flops in two BLAS calls, the viscous diagonal folded into
  the matrix for one state; from there on, where it is the grid path's
  test oracle, one gather and one bincount over the nonzeros.
- GridProducts, which samples grad psi and grad theta on N x N interior nodes,
  multiplies pointwise and projects back with dense sine/cosine matrices.
  Along each axis the integrand of gamma_jkl is a product of three sines or
  cosines of total wavenumber at most 3K, i.e. a sum of cos(n x) with
  |n| <= 3K.  The rectangle rule on N interior nodes sums cos(n x) to its
  exact integral unless n is a nonzero multiple of 2(N+1): there the nodes
  see cos(n x) as the constant 1 (aliasing) and the rule returns pi, not 0.
  So 2(N+1) > 3K, Orszag's 3/2 de-aliasing rule, makes the projection exact,
  and N = floor(3K/2) is the smallest such grid.  Its native layout is the
  (K, n, K) array of the n states' coefficient squares side by side.  Its
  bilinear(a, b), the one grid form of gamma, runs the native contraction on
  a workspace of its own (neg_rhs() keeps one per run); tensor() runs the
  same contraction on unit pairs, every row on one workspace, which is how
  the closed-form tensor is checked.

run_ensemble() advances B trajectories that differ only in epsilon as one
(B, m) RK4 state, run() being its B = 1 case: the stepper _advance yields
mode-order blocks of states, which run_ensemble checks for blow-up, sums
and slices into records, and _diagnostics reduces.  Runs use the tensor for
m < GRID_MIN_M and grid products from there on; the tensor stays as the test
oracle for the grid path.  Each member of a batch comes out bit-identical to
its own run(): every batched operation is elementwise, a per-row reduction,
a GEMM in which the batch only adds rows or columns, so each entry is the
same dot product over the same k as in the member's own call, or, for the
tensor's dense contraction, a stacked matmul that runs one gemv per row,
the product a member's own call makes with x.dot.  One GEMM over the batch
would not do there: its kernel sums a row's products in another order than
gemv, and its rows differed from the solo x.dot in the last bits at every
m from 5 to 39.  (All of this holds for OpenBLAS at one and two threads,
which the tests and CI run.)
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .basis import (
    EigenBasis,
    GridField,
    QuadratureGrid,
    SpectralField,
    analyze,
    build_rectangle_basis,
    cutoff_for,
    gradient,
    space_mask,
    _cosine_matrix,
    _sine_matrix,
    _transposed,
)

PI = np.pi

#: smallest mode count at which run_ensemble evaluates the nonlinearity by
#: grid products, below it by the closed-form tensor's dense contraction; the
#: switch reads m only, so an ensemble member keeps the bits of its solo run.
#: Below it runs the one-state traffic of run_suite("quick"), above all its
#: weak_residual check's 12,002 evaluations at m = 16, where one grid
#: right-hand side costs about 4 tensor ones (5.1-5.7 against 1.3-1.4 us;
#: grid products at every m once took the benchmark's verify_quick median up
#: 22-26%).  From it on run simulate and the viscosity sweeps at m = 64 and
#: 256 (simulate_m256, sweep_visc_m64), where the tensor loses (0.55-0.61
#: against 0.008-0.010 ms at m = 256).  The one-state crossover lies near
#: m = 33 (4.9-5.0 against 5.7-5.9 us at 30, 6.1-6.2 against 5.9-6.1 us at
#: 33; timeit minimum, one BLAS thread), but no workload runs 30 <= m < 40
#: and moving the switch would change the bits of such runs.
GRID_MIN_M = 40

#: values in one block of stacked states (64 kB): run_ensemble converts,
#: checks and reduces its steps' states a block at a time, and
#: experiments.weak_residual runs GridProducts over blocks of snapshots
#: whose stacked N x N grid arrays hold about as many values
BLOCK_VALUES = 2**13

#: candidate entries, four per (j, k) pair, that assemble_tensor evaluates
#: at once: its work arrays stay near 0.5 MB each at any m
ASSEMBLY_CHUNK = 2**16

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
    """Structure constants gamma_jkl for the first m modes, stored sparse:
    entry i is gamma at (j[i], k[i], l[i]) = vals[i].  neg_rhs contracts a
    dense copy below GRID_MIN_M and the nonzeros from there on, where the
    dense (m + 1)^3 values would cost 136 MB at m = 256.  No attribute
    changes after construction; each map owns its work array.
    """

    m: int
    alpha: float
    j: np.ndarray
    k: np.ndarray
    l: np.ndarray
    vals: np.ndarray
    mode: str

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def quadratic(self, theta: np.ndarray) -> np.ndarray:
        """(sum_jk gamma_jkl theta_j theta_k)_l, the nonlinear part of the ODE,
        for theta of shape (m,) or (B, m): the contraction of neg_rhs with no
        viscous term, negated."""
        x = self.native(theta)
        neg_n = self.neg_rhs(np.zeros(theta.shape))
        return -self.modes(neg_n(x, np.empty_like(x)), theta.shape)

    def native(self, theta: np.ndarray) -> np.ndarray:
        """theta, (m,) or (B, m), in mode order plus a trailing 1 (native)."""
        return np.concatenate([theta, np.ones(theta.shape[:-1] + (1,))], axis=-1)

    def modes(self, x: np.ndarray, shape: tuple) -> np.ndarray:
        """Native states x, (..., m + 1), in mode order (a view)."""
        return x[..., :-1]

    def neg_rhs(self, visc: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """(x, out) -> out = -N(x) - visc x for native states x, visc the
        viscous diagonal in mode order, (m,) or (B, m).  Below GRID_MIN_M
        the map contracts W, the dense (m + 1) x (m + 1)^2 matrix of -gamma
        (512 kB at m = 39) with rows j and columns k (m + 1) + l: y = x W is
        (m + 1, m + 1), its trailing row k = m holds -visc_l x_l (x_m = 1),
        and x y is the right-hand side, whose trailing entry sums only zeros
        and keeps every RK4 stage's x_m at 1.  One state's W holds -visc_l
        at (l, m, l), that column's only nonzero product being x_l (-visc_l),
        as a multiply would form it.  A batch shares W, sets the row by a
        multiply and runs a stacked matmul, one gemv per row, for the bits
        of each row's solo x.dot.  The map owns y: one run's."""
        m, lead = self.m, visc.shape[:-1]
        if m >= GRID_MIN_M:
            return self._gather_neg_rhs(visc)
        m1, neg_visc = m + 1, -visc
        flat = np.ravel_multi_index((self.j, self.k, self.l), (m1, m1, m1))
        W = np.bincount(flat, -self.vals, m1**3).reshape(m1, m1 * m1)
        # bincount of no entries returns integers, which would cut the fold
        W = W.astype(float, copy=False)
        y = np.empty(lead + (m1 * m1,))
        Y = y.reshape(lead + (m1, m1))

        # ndarray.dot for one state: the matmul ufunc's set-up costs about
        # 2 us, more than the whole folded map at m = 16 (1.3-1.4 us)
        if not lead:
            W.reshape(m1, m1, m1)[np.arange(m), m, np.arange(m)] = neg_visc

            def neg_rhs(x, out):
                x.dot(W, out=y)
                return x.dot(Y, out=out)
            return neg_rhs

        viscous_row, y_stack = Y[..., m, :m], y[..., None, :]

        def neg_rhs(x, out):
            x_stack = x[..., None, :]
            np.matmul(x_stack, W, out=y_stack)
            np.multiply(neg_visc, x[..., :m], out=viscous_row)
            np.matmul(x_stack, Y, out=out[..., None, :])
            return out

        return neg_rhs

    def _gather_neg_rhs(self, visc: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """neg_rhs from m = GRID_MIN_M on, where W would hold (m + 1)^3
        values: the m terms (-visc_l) x_l x_m, x_m = 1, follow the tensor's
        own terms into bin l (b (m + 1) + l for row b), so one gather and
        one bincount give each bin its tensor sum minus visc_l x_l, and the
        trailing bin stays 0; out gets a copy.  Indices and bins are built
        once, writeable."""
        m, n, lead = self.m, self.nnz + self.m, visc.shape[:-1]
        modes = np.arange(m)
        jk = np.concatenate([self.j, modes, self.k, np.full(m, m)])
        weights = np.concatenate([np.broadcast_to(-self.vals, lead + (self.nnz,)), -visc], -1)
        rows = np.arange(math.prod(lead)).reshape(lead + (1,))
        bins = (np.concatenate([self.l, modes]) + (m + 1) * rows).ravel()
        size = (m + 1) * rows.size

        def neg_rhs(x, out):
            pairs = x.take(jk, axis=-1)
            terms = weights * pairs[..., :n] * pairs[..., n:]
            out[...] = np.bincount(bins, terms.ravel(), size).reshape(x.shape)
            return out

        return neg_rhs

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
            m, alpha, mode = z["m"], z["alpha"], str(z["mode"])
            # kinds i, u, f: a bool, complex or string header is refused too
            if not (m.ndim == 0 and m.dtype.kind in "iuf" and np.isfinite(m)
                    and m >= 1 and m % 1 == 0):
                raise ValueError(f"{path}: field 'm' = {m} must be an integer >= 1")
            if not (alpha.ndim == 0 and alpha.dtype.kind in "iuf" and 0.0 < alpha <= 2.0):
                raise ValueError(f"{path}: field 'alpha' = {alpha} must lie in (0, 2]")
            if mode not in ("analytic", "grid"):
                raise ValueError(
                    f"{path}: field 'mode' = {mode!r} must be 'analytic' or 'grid'")
            t = cls(m=int(m), alpha=float(alpha), j=z["j"], k=z["k"], l=z["l"],
                    vals=z["vals"], mode=mode)
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


def assemble_tensor(basis: EigenBasis, m: int, alpha: float) -> GalerkinTensor:
    """gamma_jkl for all mode triples below m, from the closed-form triple
    sine/cosine product integrals.  GridProducts(basis, m, alpha).tensor()
    builds the same tensor by exact grid products.

    gamma_jkl = (2/pi)^3 lambda_j^{-alpha/2} (-(j2 k1) Ix Iy + (j1 k2) Ix' Iy')
    with Ix = I(j1, k1, l1), Iy = I(k2, j2, l2), Ix' = I(k1, j1, l1), Iy' =
    I(j2, k2, l2) and I(a, b, c) = int_0^pi sin(a x) cos(b x) sin(c x) dx,
    which is pi/4 at c = a + b, sign(a - b) pi/4 at c = |a - b| > 0 and 0
    otherwise.  So each pair j != k has four candidate l, the sum and the
    |difference| on each axis, evaluated as arrays ASSEMBLY_CHUNK candidates
    at a time; the entries come out in (j, k, candidate) order.  A first pass
    counts the candidates that are modes, a bound on the entries, so the
    fields are allocated once and filled in place, then cut to length.
    """
    if not 1 <= m <= basis.size:
        raise ValueError(f"mode count m={m} out of range [1, {basis.size}]")
    pref = (2.0 / PI) ** 3 * basis.eigenvalues[:m] ** (-alpha / 2.0)
    x, y = (a[:m] for a in basis.mode_arrays())
    # index of mode (l1, l2) among the first m at l1 w + l2, -1 if not one
    w = 2 * basis.K + 1
    index = np.full(w * w, -1, dtype=np.intp)
    index[x * w + y] = np.arange(m)
    rows = max(1, ASSEMBLY_CHUNK // (4 * m))
    chunks = [np.arange(lo, min(lo + rows, m))[:, None] for lo in range(0, m, rows)]

    def candidates(j):  # dx, dy and each pair's four candidate l, -1 if no mode
        dx, dy = x[j] - x, y[j] - y
        l1 = np.stack(np.broadcast_arrays(x[j] + x, np.abs(dx)), -1)
        l2 = np.stack(np.broadcast_arrays(y[j] + y, np.abs(dy)), -1)
        return dx, dy, index.take(l1[..., :, None] * w + l2[..., None, :])

    def integrals(d):  # I(a, b, .) at a + b and at |d|, d = a - b
        return np.stack(np.broadcast_arrays(PI / 4.0, np.copysign(PI / 4.0, d)), -1)

    bound = sum(np.count_nonzero(candidates(j)[2] >= 0) for j in chunks)
    # the tensor's four fields
    jf, kf, lf = (np.empty(bound, dtype=np.intp) for _ in range(3))
    vf = np.empty(bound)
    n = 0
    for j in chunks:
        dx, dy, li = candidates(j)
        A = (y[j] * x)[..., None, None] * integrals(dx)[..., :, None] * integrals(-dy)[..., None, :]
        B = (x[j] * y)[..., None, None] * integrals(-dx)[..., :, None] * integrals(dy)[..., None, :]
        v = ((0.0 - A) + B) * pref[j][..., None, None]
        keep = (li >= 0) & (v != 0.0) & (j != np.arange(m))[..., None, None]
        # flat positions in the chunk's (rows, m, 4) candidates
        flat = np.flatnonzero(keep)
        part = slice(n, n + flat.size)
        np.add(flat // (4 * m), j[0, 0], out=jf[part])
        np.remainder(flat // 4, m, out=kf[part])
        li.take(flat, out=lf[part])
        v.take(flat, out=vf[part])
        n += flat.size
    for field in (jf, kf, lf, vf):  # in place: no view of the fields is left
        field.resize(n, refcheck=False)
    return GalerkinTensor(m, alpha, jf, kf, lf, vf, mode="analytic")


class GridProducts:
    """P_m(u . grad theta) by grid products that are exact on the first m modes.

    Built once per (basis, m, alpha); quadratic() then agrees with
    assemble_tensor(basis, m, alpha).quadratic to roundoff.

    Its native layout holds n states as one (K, n, K) array, member b's
    coefficient of mode (j, k) at [j - 1, b, k - 1] and zeros off the first m
    modes: the coefficient squares side by side, which is also the layout its
    contraction produces.  native() and modes() convert from and to mode
    order through the flat positions of the modes, computed on each call
    (the RK4 loop converts once per block of states).  The contraction needs
    no scatter or gather.  The map neg_rhs() returns owns its work arrays and
    serves one run; bilinear() allocates its own per call.  No attribute
    changes after __init__, so one instance serves any number of runs.
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
        # Lambda^{-alpha/2} on the square, zero off the modes
        self._psi_scale = np.zeros((K, 1, K))
        self._psi_scale[j, 0, k] = basis.eigenvalues[:m] ** (-alpha / 2.0)
        # the projection fills every entry of the square; when the modes do
        # not fill it, the 0/1 mask keeps the state zero off them
        self._mask = None
        if m < K * K:
            self._mask = np.zeros((K, 1, K))
            self._mask[j, 0, k] = 1.0
        S = _sine_matrix(N, K)
        dC = (2.0 / PI) * _cosine_matrix(N, K) * np.arange(1, K + 1)
        # (d/dx, d/dy) f = (dC F S^T, S F dC^T) for the (K, K) coefficients F
        self._S, self._dC = S, dC
        self._St, self._dCt = _transposed(_sine_matrix, N, K), np.ascontiguousarray(dC.T)
        # negated, so that the contraction comes out as -N
        self._neg_proj = -(2.0 / PI) * (PI / (N + 1)) ** 2 * S.T
        for a in (self._psi_scale, self._mask, self._dC, self._dCt, self._neg_proj):
            if a is not None:
                a.setflags(write=False)

    def _positions(self, shape: tuple) -> np.ndarray:
        """Flat positions in the (K, n, K) native layout of the entries of
        mode-order states of `shape`, n = prod(shape[:-1])."""
        n = math.prod(shape[:-1])
        b = np.arange(n).reshape(shape[:-1] + (1,))
        return (self._j * n + b) * self.K + self._k

    def native(self, theta: np.ndarray) -> np.ndarray:
        """theta, of shape (m,) or (B, m), in the native (K, n, K) layout
        with n = 1 or B."""
        pos = self._positions(theta.shape)
        x = np.zeros(pos.size // self.m * self.K * self.K)
        x[pos] = theta
        return x.reshape(self.K, -1, self.K)

    def modes(self, x: np.ndarray, shape: tuple) -> np.ndarray:
        """Native states x, (..., K, n, K), in mode order: (...) + shape for
        the mode-order state shape, (m,) or (n, m)."""
        flat = x.reshape(x.shape[:-3] + (math.prod(x.shape[-3:]),))
        return flat.take(self._positions(shape), axis=-1)

    def neg_rhs(self, visc: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """(x, out) -> out = -N(x) - visc x for native states x, visc the
        viscous diagonal in mode order, (m,) or (B, m).  The map owns work
        arrays: one run's."""
        visc = self.native(visc)
        return self._neg_product(visc.shape[1], visc)

    def _neg_product(self, n: int, visc: np.ndarray | None = None) -> Callable[..., np.ndarray]:
        """(a, out, b=a) -> out = -P_m(perp-grad Lambda^{-alpha} a . grad b)
        - visc a for native a, b and out of n states (no viscous term without
        visc), on work arrays allocated here once.  psi = Lambda^{-alpha/2} a
        and b are (K, nK) matrices, so each product is one 2-d GEMM whatever
        n is.  The last GEMM writes into out, which the mask and the viscous
        term then update in place; out must not overlap a or b."""
        K, N = self.K, self.N
        dC, S, St, dCt, neg_proj, mask = (
            self._dC, self._S, self._St, self._dCt, self._neg_proj, self._mask)
        scale = np.broadcast_to(self._psi_scale, (K, n, K)).copy()
        psi = np.empty((K, n * K))
        # blocks (N, nK), rows p and columns (member, k), that the first four
        # GEMMs write; XY_x and XY_y, rows (f, p, member), feed the next two
        XY = np.empty((2, 2, N, n * K))
        psi_x, b_x, b_y, psi_y = XY.reshape(4, N, n * K)
        XY_x, XY_y = XY.reshape(2, 2 * n * N, K)
        X, Y = np.empty((2, 2 * n * N, N))
        # u . grad b = psi_x b_y - psi_y b_x, rows p and columns (member, q)
        Z0, Z1 = X.reshape(2, N, n * N)
        P = np.empty((K, n * N))
        psi3, Pr = psi.reshape(K, n, K), P.reshape(n * K, N)
        va = None if visc is None else np.empty_like(visc)

        def neg_product(a, out, b=None):
            np.multiply(scale, a, out=psi3)
            b = (a if b is None else b).reshape(K, n * K)
            # ndarray.dot, not @: on matrices this small the matmul ufunc's
            # set-up costs more than the product (1.9 against 0.5 us at m = 64)
            dC.dot(psi, out=psi_x)
            dC.dot(b, out=b_x)
            S.dot(b, out=b_y)
            S.dot(psi, out=psi_y)
            XY_x.dot(St, out=X)
            XY_y.dot(dCt, out=Y)
            np.multiply(X, Y, out=X)
            neg_proj.dot(np.subtract(Z0, Z1, out=Z0), out=P)
            Pr.dot(S, out=out.reshape(n * K, K))
            if mask is not None:
                out *= mask
            if visc is not None:
                out -= np.multiply(visc, a, out=va)
            return out

        return neg_product

    def bilinear(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """P_m(perp-grad Lambda^{-alpha} a . grad b) = (sum_jk gamma_jkl a_j b_k)_l
        for a and b of one shape, (m,) or (B, m); the products broadcast over
        B.  The native contraction, converted from and to mode order."""
        x = self.native(a)
        neg_product = self._neg_product(x.shape[1])
        return -self.modes(neg_product(x, np.empty_like(x), self.native(b)), a.shape)

    def quadratic(self, theta: np.ndarray) -> np.ndarray:
        """(sum_jk gamma_jkl theta_j theta_k)_l, the nonlinear part of the ODE,
        for theta of shape (m,) or (B, m)."""
        return self.bilinear(theta, theta)

    def tensor(self) -> GalerkinTensor:
        """gamma_jkl as bilinear() on unit pairs (e_j, e_k), one j at a time,
        keeping the entries with |gamma_jkl| > 1e-13.  All rows share one
        contraction's work arrays, the native identity and its positions;
        a, m copies of e_j in the native layout, is one at mode j's
        (row, column) for every member and zero elsewhere."""
        eye = np.eye(self.m)
        neg_product, b = self._neg_product(self.m), self.native(eye)
        pos, a, out = self._positions(eye.shape), np.zeros_like(b), np.empty_like(b)
        parts = []
        for j in range(self.m):
            a[self._j[j], :, self._k[j]] = 1.0
            g = -neg_product(a, out, b).reshape(-1).take(pos)  # (k, l)
            a[self._j[j], :, self._k[j]] = 0.0
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
    eps: float | np.ndarray, eigvals: np.ndarray,
) -> np.ndarray:
    """d theta / dt = -N(theta) - eps lambda theta, with N(theta) from the
    evaluator `tensor` (a GalerkinTensor or GridProducts): the map its
    neg_rhs builds for the RK4 loop, run once in the native layout.

    theta is one state (m,) with a scalar eps, or a batch (B, m) with a
    scalar or (B,) eps, one viscosity per row; eigvals are the m eigenvalues
    lambda."""
    if theta.shape[-1:] != (tensor.m,):
        raise ValueError(f"state length {theta.shape} does not match m={tensor.m}")
    visc = np.broadcast_to(np.multiply.outer(eps, eigvals), theta.shape)
    x = tensor.native(theta)
    out = tensor.modes(tensor.neg_rhs(visc)(x, np.empty_like(x)), theta.shape)
    # the tensor's modes are a view of its (..., m + 1) native array
    return out if out.base is None else out.copy()


@dataclass
class GalerkinState:
    t: float
    coeffs: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("state coefficients must be finite")


def step(
    state: GalerkinState,
    tensor: GalerkinTensor | GridProducts,
    dt: float,
    k1: np.ndarray | None = None,
    *,
    eps: float | np.ndarray,
    eigvals: np.ndarray,
) -> GalerkinState:
    """One classical RK4 step of the mode ODE, for one state or a batch, with
    eps and eigvals as in rhs.  k1 is the right-hand side at `state` when the
    caller already has it: the step then makes three rhs calls, not four, and
    leaves k1 unchanged."""
    if dt <= 0:
        raise ValueError(f"time step must be positive, got {dt}")

    def f(x, out):
        out[...] = rhs(x, tensor, eps, eigvals)
        return out

    th, t = state.coeffs, state.t + dt
    k = np.empty((4,) + th.shape)
    k[0] = rhs(th, tensor, eps, eigvals) if k1 is None else k1
    new = _rk4(f, th, k, np.empty_like(th), _rk4_coefficients(dt), np.empty_like(th))
    if not np.abs(new).max(initial=0.0) <= BLOWUP_THRESHOLD:  # nan fails too
        raise _blowup(new[None], [t], eps, dt, float(np.max(eigvals)))
    return GalerkinState(t, new)


def _rk4_coefficients(dt: float) -> tuple:
    """(dt/2, dt, dt/6) as 0-d arrays, _rk4's coefficients for step dt: a
    ufunc converts a Python float at about 0.3 us a call, so they took an
    m = 16 step from 11.1 to 10.1 us.  The three np.array calls cost about
    0.5 us, so a run builds them once, not per step."""
    return np.array(0.5 * dt), np.array(dt), np.array(dt / 6.0)


def _rk4(f, th: np.ndarray, k, s: np.ndarray, coef: tuple, out: np.ndarray):
    """th + (dt/6) (k1 + 2 k2 + 2 k3 + k4), the classical RK4 step from th
    with coef = _rk4_coefficients(dt), written to `out` and returned, for
    f(x, out) writing the right-hand side at x into out.  k holds four
    slots of th's shape (the rows of a (4,) + th.shape array): k1 = f(th)
    in the first, left unchanged, and k2, k3 (doubled) and k4 written to
    the others; the stage states and the combination are built in s.  out
    may be th but no other argument."""
    k1, k2, k3, k4 = k
    h, dt, sixth = coef
    # every operation as in the formula th + h k with operands swapped only,
    # 2 k as k + k (exact), and the combination ((2 k2 + k1) + 2 k3 + k4)
    # dt/6 + th in that order
    f(np.add(np.multiply(k1, h, s), th, s), k2)
    f(np.add(np.multiply(k2, h, s), th, s), k3)
    f(np.add(np.multiply(k3, dt, s), th, s), k4)
    np.add(k2, k2, s)
    s += k1
    np.add(k3, k3, k3)
    s += k3
    s += k4
    s *= sixth
    return np.add(s, th, out)


def _blowup(states, t, eps, dt, lam_max, first=None) -> BlowUpError:
    """The BlowUpError of the first of the consecutive states, stacked on
    axis 0, that crossed, naming its first member that crossed: t holds
    their times and `first` the step index of states[0], if known."""
    rows = np.abs(states).max(axis=-1).reshape(len(states), -1)
    crossed = ~(rows <= BLOWUP_THRESHOLD)  # nan counts as crossed
    r = int(np.argmax(crossed.any(axis=-1)))
    b = int(np.argmax(crossed[r]))
    e = float(np.ravel(eps)[b]) if np.ndim(eps) else float(eps)
    return BlowUpError(float(t[r]), float(rows[r].max()), dt, e, e * lam_max * dt,
                       None if first is None else first + r)


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
        # a nan fails every comparison, so finiteness is tested first
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
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
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
        return cutoff_for(self.m)


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


def initial_data(config: SimConfig) -> np.ndarray:
    """Named analytic initial fields, projected onto the first m modes."""
    m = config.m
    basis = build_rectangle_basis(config.basis_cutoff())
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

        snap = read_snapshot(name[5:])  # V_{snap.m}, sorted by (lambda, j, k) as V_m is
        big = build_rectangle_basis(cutoff_for(max(m, snap.m)))
        theta0 = snap.coeffs[space_mask(m, big)[space_mask(snap.m, big)]]
        if len(theta0) < m:
            raise ValueError(f"snapshot at m={snap.m} does not hold V_m for m={m}")
    else:
        raise ValueError(f"unknown initial datum {name!r}")
    return theta0


def run(config: SimConfig) -> Trajectory:
    """Integrate the mode ODE and record snapshots plus balance diagnostics."""
    return run_ensemble([config])[0]


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


def run_ensemble(configs: list[SimConfig]) -> list[Trajectory]:
    """Integrate configs that differ only in epsilon as one (B, m) RK4 state.

    Returns one Trajectory per config, in order, each bit-identical to what
    run() of that config alone gives.  ValueError names the field when the
    configs differ in more than epsilon, and the member when a config's
    stability number eps lambda_max dt exceeds RK4_REAL_LIMIT.

    _advance steps the state a block at a time.  Each block after the
    initial state, which no step made, gets the blow-up test (BlowUpError
    names the first step that crossed, as step() does), and each gives the
    dissipation sums g = ||grad theta||^2 and h = ||psi||^2_{D(L^{1+a/2})}
    of its steps and its records, which _diagnostics reduces.  Every sum is
    taken in the order a per-step update would take it, so the diagnostics
    match one to the bit.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("run_ensemble needs at least one config")
    config = configs[0]
    basis = build_rectangle_basis(config.basis_cutoff())
    m, alpha, dt = config.m, config.alpha, config.dt
    lam = basis.eigenvalues[:m]
    lam_max = float(lam[-1])
    _check_ensemble(configs, lam_max)
    evaluator = nonlinearity(basis, m, alpha)
    # the state is (B, m), or (m,) for one member: on the tensor a (1, m)
    # state goes through the matmul ufunc and the viscous multiply, which
    # made one right-hand side cost 3.5-3.7 against 1.3-1.4 us at m = 16 and
    # 10.3-10.8 against 8.0-8.5 us at m = 36; grid products run the same
    # GEMMs for both (5.5-5.9 us either way at m = 64; timeit minimum, one
    # BLAS thread)
    B = len(configs)
    lead = (B,) if B > 1 else ()
    eps = np.array([cfg.epsilon for cfg in configs]).reshape(lead)[()]
    # weights of g and h, the dissipation rates of the two balances
    weights = np.stack([lam, lam ** (1.0 - alpha / 2.0)])
    n_steps = round(config.T / dt)
    # step i ends at t[i], accumulated one dt at a time as step() does
    t = np.cumsum(np.r_[0.0, np.full(n_steps, dt)])
    rec = np.r_[np.arange(0, n_steps, config.stride), n_steps]  # recorded steps
    gh = np.empty((n_steps + 1,) + lead + (2,))  # g and h at every step
    snaps, k1s = (np.empty((len(rec),) + lead + (m,)) for _ in range(2))
    theta = np.broadcast_to(initial_data(config), lead + (m,)).copy()
    first = 0  # the step of the block's first state
    # the steps computed after a crossing, before its block is checked, may
    # overflow.  An overflow or nan anywhere in a step leaves its state
    # non-finite, so these warnings only ever precede a BlowUpError, which
    # names the crossing instead
    with np.errstate(over="ignore", invalid="ignore"):
        for states, k1 in _advance(evaluator, np.multiply.outer(eps, lam), theta, dt, rec):
            if first and not np.abs(states).max() <= BLOWUP_THRESHOLD:  # nan fails too
                raise _blowup(states, t[first:], eps, dt, lam_max, first)
            gh[first:first + len(states)] = (weights * states[..., None, :] ** 2).sum(axis=-1)
            lo, hi = np.searchsorted(rec, (first, first + len(states)))
            snaps[lo:hi], k1s[lo:hi] = states[rec[lo:hi] - first], k1
            first += len(states)

    diag = _diagnostics(gh, rec, snaps, k1s, weights, lam ** (-alpha / 2.0), eps, dt)
    snaps = snaps.reshape(len(rec), B, m)
    diag = {key: v.reshape(len(rec), B) for key, v in diag.items()}
    return [Trajectory(cfg, basis, t[rec], np.ascontiguousarray(snaps[:, b]),
                       {key: np.ascontiguousarray(v[:, b]) for key, v in diag.items()})
            for b, cfg in enumerate(configs)]


def _advance(evaluator, visc, theta, dt, rec):
    """RK4 steps of d theta/dt = -N(theta) - visc theta from theta, (m,) or
    (B, m), to step rec[-1]: yields blocks of mode-order states stacked on
    axis 0, theta alone first, each with the right-hand sides at its steps
    in rec (read-only, valid until the next block).  The steps run in the
    evaluator's native layout on the map its neg_rhs(visc) builds once and
    write only arrays allocated here once: _rk4's slots k and buffer s, a
    block of about 64 kB (BLOCK_VALUES) for the states and one for the
    right-hand sides at records.  A step ends with the next step's k1, also
    copied out at a record, so n steps make exactly 4 n + 1 evaluations."""
    f, shape = evaluator.neg_rhs(visc), theta.shape
    x = evaluator.native(theta)
    # a tuple of rows, which _rk4 unpacks in a tenth of an array's 1.0 us
    k, s = tuple(np.empty((4,) + x.shape)), np.empty_like(x)
    coef = _rk4_coefficients(dt)
    k1 = k[0]
    yield theta[None], evaluator.modes(f(x, k1)[None], shape)
    n_steps, recorded = int(rec[-1]), set(rec.tolist())
    block = np.empty((min(n_steps, max(1, BLOCK_VALUES // x.size)),) + x.shape)
    k1s = np.empty_like(block)
    for done in range(0, n_steps, len(block)):
        nb, nr = min(len(block), n_steps - done), 0
        for i, slot in zip(range(done + 1, done + nb + 1), block):
            x = _rk4(f, x, k, s, coef, slot)
            f(x, k1)
            if i in recorded:
                k1s[nr] = k1
                nr += 1
        yield evaluator.modes(block[:nb], shape), evaluator.modes(k1s[:nr], shape)


def _diagnostics(gh, rec, snaps, k1s, weights, lam_ham, eps, dt) -> dict:
    """The diagnostics at the recorded steps rec, each (n_rec,) + eps.shape,
    from g and h at every step (gh, last axis; `weights` on theta^2) and
    the records' states snaps and right-hand sides k1s: the trapezoid
    integrals are one sequential cumsum, the norms and the rates
    2 sum weights theta k1 one reduction over the stacked records."""
    # trapezoid: the integral to step i is the sum of the first i increments,
    # accumulated one step at a time
    incr = np.zeros_like(gh)
    incr[1:] = 0.5 * dt * (gh[:-1] + gh[1:])
    integral = np.cumsum(incr, axis=0)[rec]
    gh = gh[rec]
    rate = 2.0 * np.sum(weights * snaps[..., None, :] * k1s[..., None, :], axis=-1)
    l2_sq = np.sum(snaps**2, axis=-1)
    ham = np.sum(lam_ham * snaps**2, axis=-1)
    # endpoint-corrected trapezoid: subtracting (dt^2/12)(g'(t) - g'(0)) kills
    # the Euler-Maclaurin dt^2 term, so the balance residuals track the RK4
    # trajectory error instead of the quadrature error
    em = dt**2 / 12.0
    diss = integral - em * (rate - rate[0])  # last axis: energy, Hamiltonian
    return {
        "l2_theta": np.sqrt(l2_sq),
        "h1_theta": np.sqrt(gh[..., 0]),
        "hdot_psi": np.sqrt(ham),
        "hone_psi": np.sqrt(gh[..., 1]),
        "energy_residual": 0.5 * l2_sq + eps * diss[..., 0] - 0.5 * l2_sq[0],
        "hamiltonian_residual": 0.5 * ham + eps * diss[..., 1] - 0.5 * ham[0],
    }


def nonlinear_term_grid(
    theta: SpectralField, m: int, alpha: float, grid: QuadratureGrid | None = None
) -> np.ndarray:
    """P_m(u . grad theta) via grid products: independent check of the tensor."""
    basis = theta.basis
    if grid is None:
        grid = QuadratureGrid(3 * basis.K)
    gpsi = gradient(
        SpectralField(basis, basis.eigenvalues ** (-alpha / 2.0) * theta.coeffs), grid
    ).values
    g = gradient(theta, grid).values
    # u = perp-grad psi = (-d psi/dy, d psi/dx)
    advect = GridField(grid, -gpsi[1] * g[0] + gpsi[0] * g[1])
    return analyze(advect, basis).coeffs[:m]
