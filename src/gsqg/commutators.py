"""Commutators of fractional powers with differentiation and multiplication.

All operators act on band-limited fields and are realized as padded
quadrature projections onto the padded sine basis, without leaving
coefficient space.  A field keeps its own (K, K) coefficient square: a
projected gradient is the pair of rectangles (K', K) for d/dx and (K, K')
for d/dy, K' the padded cutoff, and a projected multiplier product
P(a Lambda^r F), or P(a d_x F) and P(a d_y F), goes through the low-rank
factors a = sum_t u_t v_t^T of the multiplier's samples on the grid
(_cross_factors), as sum_t L_t F R_t (_mult_products), so its cost scales
with the rank of a.  The grid is left to comm_lambda_grad's output and
the test oracles.  A commutator [Lambda^s, T], T the projected gradient or
a projected multiplier product, is lambda^{s/2} T F - T Lambda^s F on T's
band, from one stack of powers of F for all multipliers.  The weak forms
share the power stack, band weights and products, but pair the two terms
of a commutator apart and build no commutator array (weakform._forms);
padded_sizes gives them (K', N) from one cached lookup.  The estimates'
constants are never asserted; monitor_bounds reports observed ratios only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .basis import (
    SAMPLE_CACHE_SIZE,
    EigenBasis,
    GridField,
    QuadratureGrid,
    SpectralField,
    _coeff_square,
    _cosine_matrix,
    _gather_square,
    _gradient_coeffs,
    _lambda_power,
    _sine_matrix,
    _synthesize_square,
    boundary_distance_grid,
    build_rectangle_basis,
    gradient,
    sample,
    synthesize,
)
from .fractional import sobolev_norm

#: weight values beyond this are treated as boundary-singular and excluded
WEIGHT_CLIP = 1e8

#: a commutator norm at most this times the field's norm is round-off of zero
ROUNDOFF = 1e-12

#: node pairs per chunk of Multiplier.holder_seminorm (about 2 MB per array)
HOLDER_PAIRS = 2**18


@dataclass(frozen=True)
class Multiplier:
    """Closed-form scalar multiplier a(x, y) with analytic gradient."""

    name: str
    fn: Callable = field(repr=False)
    grad_x: Callable = field(repr=False)
    grad_y: Callable = field(repr=False)

    def on(self, grid: QuadratureGrid) -> np.ndarray:
        """a on the grid nodes (read-only, shared between callers)."""
        return sample(self._values, grid.N)

    def grad_on(self, grid: QuadratureGrid) -> np.ndarray:
        """(da/dx, da/dy) on the grid nodes (read-only, shared between callers)."""
        return sample(self._grad_values, grid.N)

    def _values(self, X, Y):
        return _on_nodes(self.fn, X, Y)

    def _grad_values(self, X, Y):
        return np.stack([_on_nodes(self.grad_x, X, Y), _on_nodes(self.grad_y, X, Y)])

    def linf_norm(self, grid: QuadratureGrid) -> float:
        return float(np.abs(self.on(grid)).max())

    def w1inf_norm(self, grid: QuadratureGrid) -> float:
        g = self.grad_on(grid)
        return float(self.linf_norm(grid) + np.abs(g).max())

    def holder_seminorm(self, grid: QuadratureGrid, gamma: float) -> float:
        """Empirical sup |a(x)-a(y)| / |x-y|^gamma over pairs of nodes on every
        fourth grid line, taken over HOLDER_PAIRS pairs at a time."""
        X, Y = grid.meshgrid()
        sub = (slice(None, None, 4),) * 2
        pts = np.stack([X[sub].ravel(), Y[sub].ravel()], 1)
        vals = self.on(grid)[sub].ravel()
        rows, sups = max(1, HOLDER_PAIRS // len(vals)), []
        for lo in range(0, len(vals), rows):
            diff = np.abs(vals[lo:lo + rows, None] - vals[None, :])
            dist = np.linalg.norm(pts[lo:lo + rows, None, :] - pts[None, :, :], axis=2)
            mask = dist > 0
            sups.append((diff[mask] / dist[mask] ** gamma).max())
        return float(max(sups))


def _on_nodes(fn: Callable, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """fn(X, Y) with X's shape, without a copy; a constant fn may return a scalar."""
    return np.broadcast_to(np.asarray(fn(X, Y), dtype=float), X.shape)


def multiplier_catalog() -> dict[str, Multiplier]:
    """Named multipliers used by the monitors and the acceptance suite.

    A fresh dict of multipliers built once, so their grid samples are reused.
    """
    return {a.name: a for a in _multipliers()}


@lru_cache(maxsize=1)
def _multipliers() -> tuple[Multiplier, ...]:
    return (
        Multiplier("one", lambda x, y: 1.0, lambda x, y: 0.0, lambda x, y: 0.0),
        Multiplier(
            "coord_x", lambda x, y: x, lambda x, y: 1.0, lambda x, y: 0.0
        ),
        Multiplier(
            "cos_xy",
            lambda x, y: np.cos(x) * np.cos(y),
            lambda x, y: -np.sin(x) * np.cos(y),
            lambda x, y: -np.cos(x) * np.sin(y),
        ),
        # vanishes to 4th order at the boundary: admissible weight-side multiplier
        Multiplier(
            "bump4",
            lambda x, y: np.sin(x) ** 4 * np.sin(y) ** 4,
            lambda x, y: 4 * np.sin(x) ** 3 * np.cos(x) * np.sin(y) ** 4,
            lambda x, y: 4 * np.sin(x) ** 4 * np.sin(y) ** 3 * np.cos(y),
        ),
    )


@dataclass
class BoundReport:
    """Observed two-sided norms for one commutator estimate instance."""

    kind: str
    lhs_norm: float
    rhs_norm: float
    ratio: float

    def __post_init__(self):
        if not (np.isfinite(self.lhs_norm) and np.isfinite(self.rhs_norm)):
            raise ValueError("bound report norms must be finite")


@lru_cache(maxsize=64)
def padded_sizes(K: int, pad: float) -> tuple[int, int]:
    """(K', N): the cutoff K' of padded_basis for the cutoff K and N = 3 K',
    the size of padded_grid on it; cached, so a weak form looks both up at
    once without building a basis or a grid."""
    if not (math.isfinite(pad) and pad >= 1):
        raise ValueError(f"padding factor pad must be finite and >= 1, got {pad}")
    K_pad = int(math.ceil(K * math.sqrt(pad)))
    return K_pad, 3 * K_pad


def padded_basis(basis: EigenBasis, pad: float) -> EigenBasis:
    """Basis holding pad-times as many modes (per-axis cutoff scaled by sqrt)."""
    return build_rectangle_basis(padded_sizes(basis.K, pad)[0])


def padded_grid(basis: EigenBasis) -> QuadratureGrid:
    """Grid exact for triple products of the padded band."""
    return QuadratureGrid(3 * basis.K)


def comm_lambda_grad(psi: SpectralField, s: float, pad: float = 4.0) -> GridField:
    """[Lambda^s, grad] psi on the padded grid.

    Both terms go through the same projection of the gradient onto the sine
    basis, the x block (K', K) and the y block (K, K'), so the truncation of
    the slowly converging sine series of grad(psi) cancels as s -> 0.
    """
    if not 0.0 < s < 2.0:
        raise ValueError(f"require s in (0, 2), got {s}")
    big = padded_basis(psi.basis, pad)
    grid = padded_grid(big)
    K = psi.basis.K
    grad = _gradient_coeffs(_power_stack(_coeff_square(psi), (0.0, s)), grid.N, big.K)
    comm = _commutator(grad, _band_weights(((big.K, K), (K, big.K)), s), 0, 1)
    return GridField(grid, np.stack([_synthesize_square(c, grid.N) for c in comm]))


def _power_stack(F: np.ndarray, powers: tuple) -> np.ndarray:
    """Lambda^r F for each r of powers, stacked on axis -3, for (..., K, K)
    squares F."""
    return _lambda_stack(F.shape[-1], powers) * F[..., None, :, :]


@lru_cache(maxsize=64)
def _lambda_stack(K: int, powers: tuple) -> np.ndarray:
    """The (P, K, K) stack of lambda^{r/2} for each r of powers, read-only."""
    stack = np.stack([_lambda_power(K, r) for r in powers])
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=128)
def _band_weights(bands: tuple, s: float) -> tuple[np.ndarray, ...]:
    """lambda^{s/2} on each band (rows, cols) of bands, read-only views."""
    lam_s = _lambda_power(max(max(band) for band in bands), s)
    return tuple(lam_s[:rows, :cols] for rows, cols in bands)


def _commutator(T, weights, i: int, j: int) -> list[np.ndarray]:
    """[Lambda^s, T_c] Lambda^{r_i} F = lambda^{s/2} T_c Lambda^{r_i} F -
    T_c Lambda^{r_j} F, r_j = r_i + s, for the blocks T_c Lambda^r F of a
    power stack (power r on axis -3), weights lambda^{s/2} on T_c's band."""
    return [w * t[..., i, :, :] - t[..., j, :, :] for w, t in zip(weights, T)]


@lru_cache(maxsize=SAMPLE_CACHE_SIZE)
def _cross_factors(fn, N: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(U, V) with a = U V^T, read-only, for each (N, N) multiplier a that
    sample(fn, N) holds (one, or a stack on its leading axis).

    Cross elimination with complete pivoting (Bebendorf, Numer. Math. 86,
    2000): the largest residual entry is the pivot, its column and its row
    over the pivot the next factor pair, and the rank-one term leaves the
    residual, until no entry exceeds N eps max|a|.  Every catalog multiplier
    and test-function gradient has rank 1 or 3; a rough a has rank up to N.
    """
    out = []
    for a in sample(fn, N).reshape(-1, N, N):
        if not np.isfinite(a).all():
            raise ValueError("multiplier samples must be finite")
        E = np.array(a, dtype=float)
        tol = N * np.finfo(float).eps * np.abs(a).max()
        us, vs = [], []
        for _ in range(N):
            i, j = np.unravel_index(np.argmax(np.abs(E)), E.shape)
            if not abs(E[i, j]) > tol:
                break
            us.append(E[:, j].copy())
            vs.append(E[i] / E[i, j])
            E -= np.outer(us[-1], vs[-1])
        U, V = (np.array(f).reshape(-1, N).T for f in (us, vs))
        U.setflags(write=False)
        V.setflags(write=False)
        out.append((U, V))
    return tuple(out)


@lru_cache(maxsize=64)
def _product_maps(
    fn, N: int, K: int, bands: tuple, axes: tuple
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(L, R), stacked over the rank t as (rank, rows, K) and (rank, K, cols)
    and read-only, for each multiplier of _cross_factors(fn, N), its band
    (rows, cols) of bands and its derivative axis of axes: L_t =
    (2/pi)^2 w S_rows^T diag(u_t) X_0 and R_t = X_1^T diag(v_t) S_cols, so
    that the quadrature projection (2/pi) w S_rows^T (a * (2/pi) X_0 F X_1^T)
    S_cols is sum_t L_t F R_t.  X_i synthesizes F's axis i: S_K, or
    C_K diag(1..K), the derivative of the sine series, on the axis (0 for x,
    1 for y) that axes names; None differentiates neither.  Each stack is
    one GEMM of the sine matrix against the factor-scaled X_i.
    """
    c = (2.0 / np.pi) ** 2 * QuadratureGrid(N).weight
    S_K = _sine_matrix(N, K)
    dS_K = _cosine_matrix(N, K) * np.arange(1, K + 1)
    maps = []
    for (U, V), (rows, cols), axis in zip(_cross_factors(fn, N), bands, axes):
        X_0, X_1 = (dS_K if axis == i else S_K for i in (0, 1))
        rank = U.shape[1]
        L = c * _sine_matrix(N, rows).T @ (U[:, :, None] * X_0[:, None, :]).reshape(N, -1)
        R = (V[:, :, None] * X_1[:, None, :]).reshape(N, -1).T @ _sine_matrix(N, cols)
        L = np.ascontiguousarray(L.reshape(rows, rank, K).transpose(1, 0, 2))
        R = R.reshape(rank, K, cols)
        L.setflags(write=False)
        R.setflags(write=False)
        maps.append((L, R))
    return tuple(maps)


def _mult_products(fn, N: int, F: np.ndarray, bands, axes=None) -> list[np.ndarray]:
    """P(a F) for the multipliers a that sample(fn, N) holds on the N grid
    and (..., K, K) squares F, each onto its own band (rows, cols) >= K of
    bands, or P(a d_x F) or P(a d_y F) where axes names the axis, 0 or 1,
    differentiated for that multiplier; as sum_t L_t F R_t from a's cross
    factors.  No grid array is built: a square costs rank(a) K
    min(rows, cols) (K + max(rows, cols)) multiply-adds, 41k per rank at
    K = 24, pad 4 (N = 144), where the grid route's synthesis, product and
    analysis cost about 950k.  So a multiplier of rank above about 23 there,
    such as a rough one of rank N, costs more than the grid did."""
    axes = (None,) * len(bands) if axes is None else axes
    F = F[..., None, :, :]
    out = []
    for (L, R), (rows, cols) in zip(
            _product_maps(fn, N, F.shape[-1], tuple(bands), axes), bands):
        # the shorter band's product runs first, as in _analyze_square
        terms = (L @ F) @ R if rows <= cols else L @ (F @ R)
        out.append(terms[..., 0, :, :] if len(L) == 1 else terms.sum(axis=-3))
    return out


def comm_neg_lambda_mult(
    a: Multiplier, f: SpectralField, s: float, pad: float = 4.0
) -> SpectralField:
    """[Lambda^{-s}, a] f in the padded basis."""
    if not 0.0 < s < 2.0:
        raise ValueError(f"require s in (0, 2), got {s}")
    return _comm_mult(a, f, -s, pad)


def comm_lambda_mult(
    a: Multiplier, f: SpectralField, s: float, pad: float = 4.0
) -> SpectralField:
    """[Lambda^{s}, a] f in the padded basis."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"require s in (0, 1), got {s}")
    return _comm_mult(a, f, s, pad)


def _comm_mult(a: Multiplier, f: SpectralField, s: float, pad: float) -> SpectralField:
    big = padded_basis(f.basis, pad)
    grid = padded_grid(big)
    band = ((big.K, big.K),)
    prods = _mult_products(a._values, grid.N, _power_stack(_coeff_square(f), (0.0, s)), band)
    (c,) = _commutator(prods, _band_weights(band, s), 0, 1)
    return SpectralField(big, _gather_square(c, big))


def _lp_norm(values: np.ndarray, grid: QuadratureGrid, p: float) -> float:
    if np.isinf(p):
        return float(np.abs(values).max())
    return float((grid.weight * np.sum(np.abs(values) ** p)) ** (1.0 / p))


def monitor_bounds(
    kind: str,
    a: Multiplier,
    f: SpectralField,
    s: float,
    p: float = 2.0,
    q: float = 2.0,
    gamma: float = 1.0,
    pad: float = 4.0,
) -> BoundReport:
    """Observed lhs/rhs ratio for one of the commutator estimates.

    Kinds: 'lambda_grad' (weighted bound for a[Lambda^s, grad]f),
    'neg_mult' (W^{1,p} bound for [Lambda^{-s}, a]f),
    'pos_mult' (L^r bound for [Lambda^s, a]f),
    'gain' (D(Lambda^{1-s}) bound for [Lambda^s, a]f).
    """
    d = 2.0
    # the field's factor of every rhs
    f_norm = sobolev_norm(f, 2.0 * s) if kind == "gain" else _lp_norm_field(f, p)

    if kind == "lambda_grad":
        comm = comm_lambda_grad(f, s, pad)
        grid = comm.grid
        mag = np.hypot(comm.values[0], comm.values[1]) * np.abs(a.on(grid))
        lhs = _lp_norm(mag, grid, q)
        weight = boundary_distance_grid(grid) ** (-s - 1.0 - d / p)
        wa = np.abs(a.on(grid)) * weight
        wa = np.where(weight > WEIGHT_CLIP, 0.0, wa)
        rhs = _lp_norm(wa, grid, q) * f_norm
    elif kind == "neg_mult":
        if not s < d / p:
            raise ValueError(f"neg_mult requires s < d/p = {d / p}, got s={s}")
        comm = comm_neg_lambda_mult(a, f, s, pad)
        grid = padded_grid(comm.basis)
        vals = synthesize(comm, grid).values
        grad_vals = gradient(comm, grid).values
        lhs = (
            _lp_norm(vals, grid, p) ** 2
            + _lp_norm(np.hypot(grad_vals[0], grad_vals[1]), grid, p) ** 2
        ) ** 0.5
        rhs = a.w1inf_norm(grid) * f_norm
    elif kind == "pos_mult":
        if not s < gamma:
            raise ValueError(f"pos_mult requires s < gamma, got s={s}, gamma={gamma}")
        inv_r = 1.0 / p - (d + s - gamma) / d + 1.0
        if not 0.0 < inv_r < 1.0:
            raise ValueError(
                "exponent relation 1/p + (d+s-gamma)/d = 1 + 1/r "
                f"gives r outside (1, inf): 1/r = {inv_r}"
            )
        comm = comm_lambda_mult(a, f, s, pad)
        grid = padded_grid(comm.basis)
        lhs = _lp_norm(synthesize(comm, grid).values, grid, 1.0 / inv_r)
        rhs = a.holder_seminorm(grid, gamma) * f_norm
    elif kind == "gain":
        comm = comm_lambda_mult(a, f, s, pad)
        grid = padded_grid(comm.basis)
        lhs = sobolev_norm(comm, 2.0 * (1.0 - s))
        rhs = a.w1inf_norm(grid) * f_norm
    else:
        raise ValueError(f"unknown bound kind {kind!r}")

    if rhs > 0:
        ratio = lhs / rhs
    else:
        # a zero multiplier norm (a constant's Holder seminorm) makes the
        # commutator vanish exactly, up to round-off of the field
        ratio = 0.0 if lhs <= ROUNDOFF * f_norm else np.inf
    if not np.isfinite(ratio):
        raise ValueError(f"non-finite observed ratio for kind {kind!r}")
    return BoundReport(kind, lhs, rhs, ratio)


def _lp_norm_field(f: SpectralField, p: float) -> float:
    if p == 2.0:
        return f.l2_norm()
    grid = padded_grid(f.basis)
    return _lp_norm(synthesize(f, grid).values, grid, p)
