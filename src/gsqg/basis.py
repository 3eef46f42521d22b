"""Dirichlet sine eigenbasis of -Laplace on the square (0, pi)^2.

Eigenfunctions are w_{jk}(x, y) = (2/pi) sin(jx) sin(ky) with eigenvalues
lambda = j^2 + k^2.  Coefficient <-> grid transforms use the uniform interior
grid, which integrates products of sines exactly up to the stated band limit,
so analysis/synthesis round trips are exact in floating point.

Per-basis index arrays, the flat positions of the modes in the basis's own
flattened (K, K) coefficient square, and grid samples of closed-form fields
are built once and handed out read-only, so every transform reuses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

PI = np.pi

#: (function, N) grid samples kept by sample(); a scalar sample is 8 N^2 bytes
#: (166 kB at N = 144), a gradient twice that
SAMPLE_CACHE_SIZE = 32


@dataclass(frozen=True)
class ModeIndex:
    """Per-axis wavenumbers of one sine eigenfunction."""

    j: int
    k: int

    def __post_init__(self):
        if self.j < 1 or self.k < 1:
            raise ValueError(f"mode indices must be >= 1, got ({self.j}, {self.k})")


@dataclass(frozen=True)
class EigenBasis:
    """Ordered Dirichlet eigenpairs, eigenvalue-ascending with (j, k) tie-break."""

    K: int
    modes: tuple = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)

    def __post_init__(self):
        j = np.array([m.j for m in self.modes], dtype=np.intp)
        k = np.array([m.k for m in self.modes], dtype=np.intp)
        flat = (j - 1) * self.K + (k - 1)
        for a in (j, k, flat):
            a.setflags(write=False)
        object.__setattr__(self, "_jk", (j, k))
        object.__setattr__(self, "_flat", flat)

    @property
    def size(self) -> int:
        return len(self.modes)

    def mode_arrays(self):
        """(j, k) wavenumbers as two read-only integer arrays, built once."""
        return self._jk

    def flat_positions(self, K: int) -> np.ndarray:
        """(j - 1) K + (k - 1), each mode's index in a flattened (K, K) square,
        K >= self.K; read-only and built once for the basis's own K."""
        if K == self.K:
            return self._flat
        j, k = self._jk
        return (j - 1) * K + (k - 1)


def cutoff_for(m: int) -> int:
    """ceil(sqrt(m)), the cutoff of the smallest rectangle basis holding V_m."""
    return int(math.ceil(math.sqrt(m)))


@lru_cache(maxsize=64)
def build_rectangle_basis(K: int) -> EigenBasis:
    """All modes with 1 <= j, k <= K, sorted by (eigenvalue, j, k)."""
    if K < 1:
        raise ValueError(f"cutoff K must be >= 1, got {K}")
    modes = sorted(
        (ModeIndex(j, k) for j in range(1, K + 1) for k in range(1, K + 1)),
        key=lambda m: (m.j * m.j + m.k * m.k, m.j, m.k),
    )
    eigenvalues = np.array([float(m.j**2 + m.k**2) for m in modes])
    return EigenBasis(K=K, modes=tuple(modes), eigenvalues=eigenvalues)


def space_mask(m: int, basis: EigenBasis) -> np.ndarray:
    """V_m, the space a run at m modes evolves in (the first m modes of the
    basis of cutoff_for(m)), as a boolean mask over the modes of `basis`."""
    if not 0 <= m <= basis.size:
        raise ValueError(f"mode count m={m} out of range [0, {basis.size}]")
    v_m = set(build_rectangle_basis(max(1, cutoff_for(m))).modes[:m])
    return np.array([mode in v_m for mode in basis.modes])


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform interior grid x_i = i*pi/(N+1), rectangle-rule weight per node.

    Exact for products of sines with per-axis total wavenumber <= 2(N+1) - 1.
    """

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"grid size N must be >= 1, got {self.N}")

    @property
    def nodes(self) -> np.ndarray:
        return PI * np.arange(1, self.N + 1) / (self.N + 1)

    @property
    def weight(self) -> float:
        return (PI / (self.N + 1)) ** 2

    def meshgrid(self):
        x = self.nodes
        return np.meshgrid(x, x, indexing="ij")


@lru_cache(maxsize=SAMPLE_CACHE_SIZE)
def sample(fn, N: int) -> np.ndarray:
    """fn(X, Y) on the N-node interior grid, evaluated once and read-only.

    Functions compare by identity (bound methods by instance), so a sample is
    reused only when the same function object is passed again.
    """
    X, Y = QuadratureGrid(N).meshgrid()
    values = np.asarray(fn(X, Y))
    values.setflags(write=False)
    return values


@dataclass
class SpectralField:
    """Coefficient vector in an EigenBasis (flat, basis mode order)."""

    basis: EigenBasis
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.basis.size,):
            raise ValueError(
                f"coefficient length {self.coeffs.shape} does not match "
                f"basis size {self.basis.size}"
            )

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass
class GridField:
    """Scalar (N, N) or 2-vector (2, N, N) samples on a QuadratureGrid."""

    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        N = self.grid.N
        if self.values.shape not in ((N, N), (2, N, N)):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid N={N}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid field contains non-finite values")

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == 3


@lru_cache(maxsize=256)
def _sine_matrix(N: int, K: int) -> np.ndarray:
    """S[i, j-1] = sin(j * x_i) for interior nodes x_i, 1 <= j <= K."""
    x = PI * np.arange(1, N + 1) / (N + 1)
    j = np.arange(1, K + 1)
    return np.sin(np.outer(x, j))


@lru_cache(maxsize=256)
def _cosine_matrix(N: int, K: int) -> np.ndarray:
    x = PI * np.arange(1, N + 1) / (N + 1)
    j = np.arange(1, K + 1)
    return np.cos(np.outer(x, j))


@lru_cache(maxsize=256)
def _transposed(matrix, N: int, K: int) -> np.ndarray:
    """matrix(N, K)^T, read-only and contiguous: BLAS is faster on it than on .T."""
    T = np.ascontiguousarray(matrix(N, K).T)
    T.setflags(write=False)
    return T


def _coeff_square(f: SpectralField, K: int | None = None) -> np.ndarray:
    """Scatter the flat coefficient vector into a (K, K) wavenumber array,
    zero-padded to a larger K when one is given."""
    K = f.basis.K if K is None else K
    A = np.zeros(K * K)
    A[f.basis.flat_positions(K)] = f.coeffs
    return A.reshape(K, K)


def _gather_square(A: np.ndarray, basis: EigenBasis) -> np.ndarray:
    """The basis's coefficients from a (K, K) square A, K >= basis.K."""
    return A.take(basis.flat_positions(A.shape[-1]))


def _check_grid(basis: EigenBasis, grid: QuadratureGrid):
    if grid.N + 1 <= basis.K:
        raise ValueError(
            f"grid N={grid.N} too coarse for basis cutoff K={basis.K} "
            f"(need N+1 > K)"
        )


def synthesize(f: SpectralField, grid: QuadratureGrid) -> GridField:
    """Evaluate sum_j f_j w_j at the grid nodes."""
    _check_grid(f.basis, grid)
    return GridField(grid, _synthesize_square(_coeff_square(f), grid.N))


def _synthesize_square(A: np.ndarray, N: int) -> np.ndarray:
    """(2/pi) S_r A S_c^T on N interior nodes, for (..., r, c) coefficient
    rectangles: the rows carry the x band 1..r, the columns the y band 1..c.

    The longer band's product runs first, so the two products take
    N r c + N^2 min(r, c) multiply-adds rather than those of the zero-padded
    square.  The 2/pi scales the (..., r, c) coefficients, not the
    (..., N, N) result.
    """
    r, c = A.shape[-2:]
    S_r, S_ct = _sine_matrix(N, r), _transposed(_sine_matrix, N, c)
    A = (2.0 / PI) * A
    if r >= c:
        return (S_r @ A) @ S_ct
    return S_r @ (A @ S_ct)


def analyze(g: GridField, basis: EigenBasis) -> SpectralField:
    """Quadrature projection f_j = int g w_j dx onto the basis.

    Exact inverse of synthesize when N+1 >= 2K.
    """
    if g.is_vector:
        raise ValueError("analyze expects a scalar field; handle components separately")
    _check_grid(basis, g.grid)
    return SpectralField(
        basis, _gather_square(_analyze_square(g.values, basis.K, basis.K), basis))


def _analyze_square(G: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """(2/pi) w S_rows^T G S_cols, for (..., N, N) grid samples, as
    (..., rows, cols) coefficient rectangles; the shorter band's product runs
    first, and (2/pi) w scales the coefficients, not the grid samples."""
    grid = QuadratureGrid(G.shape[-1])
    S_r, S_c = _sine_matrix(grid.N, rows), _sine_matrix(grid.N, cols)
    if rows <= cols:
        return (2.0 / PI) * grid.weight * ((S_r.T @ G) @ S_c)
    return (2.0 / PI) * grid.weight * (S_r.T @ (G @ S_c))


def gradient(f: SpectralField, grid: QuadratureGrid) -> GridField:
    """Term-by-term analytic gradient (d/dx, d/dy) sampled on the grid."""
    _check_grid(f.basis, grid)
    return GridField(grid, np.stack(_gradient_square(_coeff_square(f), grid.N)))


def _gradient_square(A: np.ndarray, N: int):
    """(d/dx, d/dy) on N interior nodes, for (..., K, K) coefficient squares;
    2/pi and the wavenumbers scale the coefficients, not the (..., N, N)
    results, and the right factors are cached contiguous transposes."""
    K = A.shape[-1]
    wav = (2.0 / PI) * np.arange(1, K + 1)
    dx = _cosine_matrix(N, K) @ (wav[:, None] * A) @ _transposed(_sine_matrix, N, K)
    dy = _sine_matrix(N, K) @ (A * wav) @ _transposed(_cosine_matrix, N, K)
    return dx, dy


@lru_cache(maxsize=64)
def _gradient_projection(N: int, K_out: int, K_in: int) -> np.ndarray:
    """The (K_out, K_in) map D with analyze(gradient(f)) onto the cutoff
    K_out >= K_in equal to (D A, A D^T) on the N grid, A the (K_in, K_in)
    square of f; the rest of each projected component is zero.

    analyze(d/dx) is (2/pi)^2 w S_out^T C_in diag(1..K_in) A S_in^T S_out, and
    S_in^T S_out = (N+1)/2 [I 0] for K_out <= N, so
    D = (2/(N+1)) S_out^T C_in diag(1..K_in).  Read-only.
    """
    D = (2.0 / (N + 1)) * (_sine_matrix(N, K_out).T @ _cosine_matrix(N, K_in)) * np.arange(
        1, K_in + 1)
    D.setflags(write=False)
    return D


def _gradient_coeffs(A: np.ndarray, N: int, K_out: int) -> tuple[np.ndarray, np.ndarray]:
    """The projected gradient analyze(gradient(f)) onto the cutoff K_out of
    (..., K, K) squares A, without leaving coefficient space: the blocks that
    carry data, d/dx as (..., K_out, K) and d/dy as (..., K, K_out).  D^T
    stays a .T view: on a contiguous copy BLAS takes other kernels, which
    change the last bits of d/dy at some shapes (K = 16, K_out = 17)."""
    D = _gradient_projection(N, K_out, A.shape[-1])
    return D @ A, A @ D.T


@lru_cache(maxsize=128)
def _lambda_power(K: int, s: float) -> np.ndarray:
    """lambda^{s/2}, lambda = j^2 + k^2, the symbol of Lambda^s, as a
    read-only (K, K) wavenumber array built once per (K, s)."""
    wav2 = np.arange(1, K + 1, dtype=float) ** 2
    lam_s = (wav2[:, None] + wav2[None, :]) ** (s / 2.0)
    lam_s.setflags(write=False)
    return lam_s


def boundary_distance_grid(grid: QuadratureGrid) -> np.ndarray:
    """Boundary distance evaluated at every grid node."""
    X, Y = grid.meshgrid()
    return np.minimum.reduce([X, PI - X, Y, PI - Y])


def embed(f: SpectralField, target: EigenBasis) -> SpectralField:
    """Re-express coefficients in a larger basis (zero padding by mode index)."""
    if target.K < f.basis.K:
        raise ValueError(f"cannot embed basis K={f.basis.K} into smaller K={target.K}")
    return restrict(f, target)


def restrict(f: SpectralField, target: EigenBasis) -> SpectralField:
    """Re-express coefficients by mode index in any target basis: the modes
    outside f's basis get 0, f's modes outside the target are dropped."""
    return SpectralField(
        target, _gather_square(_coeff_square(f, max(f.basis.K, target.K)), target))
