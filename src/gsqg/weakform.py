"""Commutator representations of the transport nonlinearity.

The classical integral int theta u . grad(phi) dx is rewritten as
N = (N1 - N2)/2 where N1 pairs [Lambda^alpha, perp-grad]psi with grad(phi) psi
and N2 pairs Lambda^{-1+alpha} perp-grad(psi) with the multiplier commutator
of grad(phi).  N2 also has a delta-shifted two-term form; both must agree.
All functionals are quadratic in psi and evaluated with padded projections.

Every weak form is built from two bilinear forms on (..., K, K) coefficient
squares, _b1 (the N1 pairing) and _b2 (one N2 pairing), which take a leading
batch axis.  A field stays on its own K band and is never zero-padded to the
padded cutoff K'.  Where a gradient is only projected back onto the sine
basis, they apply the exact coefficient-space map basis._gradient_projection,
a (K', K) rectangle, in place of a synthesize-gradient-analyze round trip, so
d/dx lives on (K', K) and d/dy on (K, K').  _b1 synthesizes those rectangles
and _b2 analyzes each multiplier product only onto the rectangle of the
left factor it is paired with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import (
    QuadratureGrid,
    SpectralField,
    _coeff_square,
    _eigenvalue_square,
    _gradient_coeffs,
    _gradient_square,
    _synthesize_square,
)
from .commutators import (
    Multiplier,
    _lambda_grad_coeffs,
    _mult_coeffs,
    padded_basis,
    padded_grid,
)

PI = np.pi


def _quartic_profile():
    """p(t) = (t (pi - t))^4 and its derivative."""

    def q(t):
        return t * (PI - t)

    def p(t):
        return q(t) ** 4

    def dp(t):
        return 4.0 * q(t) ** 3 * (PI - 2.0 * t)

    return p, dp


def _make_quartic() -> Multiplier:
    p, dp = _quartic_profile()
    c = 1.0 / p(PI / 2.0) ** 2
    return Multiplier(
        "quartic",
        lambda x, y: c * p(x) * p(y),
        lambda x, y: c * dp(x) * p(y),
        lambda x, y: c * p(x) * dp(y),
    )


def _s4(t):
    return np.sin(t) ** 4


def _ds4(t):
    return 4.0 * np.sin(t) ** 3 * np.cos(t)


def _make_sine_bump() -> Multiplier:
    return Multiplier(
        "sine_bump",
        lambda x, y: _s4(x) * _s4(y),
        lambda x, y: _ds4(x) * _s4(y),
        lambda x, y: _s4(x) * _ds4(y),
    )


def _make_skew_bump() -> Multiplier:
    """Non-separable: sine bump modulated by sin(x + 2y)."""
    g = lambda x, y: 1.0 + 0.5 * np.sin(x + 2.0 * y)
    gx = lambda x, y: 0.5 * np.cos(x + 2.0 * y)
    gy = lambda x, y: np.cos(x + 2.0 * y)
    return Multiplier(
        "skew_bump",
        lambda x, y: _s4(x) * _s4(y) * g(x, y),
        lambda x, y: _ds4(x) * _s4(y) * g(x, y) + _s4(x) * _s4(y) * gx(x, y),
        lambda x, y: _s4(x) * _ds4(y) * g(x, y) + _s4(x) * _s4(y) * gy(x, y),
    )


def test_function_catalog() -> dict[str, Multiplier]:
    """Closed-form test functions phi with analytic gradients, each vanishing
    to order >= 4 at the boundary.

    A fresh dict of functions built once, so their grid samples are reused.
    """
    return {tf.name: tf for tf in _test_functions()}


@lru_cache(maxsize=1)
def _test_functions() -> tuple[Multiplier, ...]:
    return (_make_quartic(), _make_sine_bump(), _make_skew_bump())


@dataclass
class WeakFormValue:
    """n_total = (n1 - n2) / 2 with its two halves."""

    n1: float
    n2: float
    n_total: float

    def __post_init__(self):
        half = 0.5 * (self.n1 - self.n2)
        # np.isclose(n_total, half, rtol=1e-12, atol=1e-300) on two floats
        if not abs(self.n_total - half) <= 1e-300 + 1e-12 * abs(half):
            raise ValueError("n_total must equal (n1 - n2)/2")


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"constitutive exponent alpha must lie in (0, 1), got {alpha}")


def _b1(
    a: np.ndarray, b: np.ndarray, alpha: float, grad_phi: np.ndarray, K_pad: int
) -> float | np.ndarray:
    """int [Lambda^alpha, perp-grad] a . grad(phi) b dx.

    a and b are (..., K, K) coefficient squares, grad_phi the (2, N, N) grid
    samples of grad(phi) and K_pad the cutoff the commutator is projected
    onto; one value per leading index.  The commutator's (K_pad, K) and
    (K, K_pad) blocks and b are synthesized from their own bands.
    """
    N = grad_phi.shape[-1]
    c_x, c_y = (_synthesize_square(c, N) for c in _lambda_grad_coeffs(a, alpha, N, K_pad))
    # perp of the commutator (c_x, c_y) is (-c_y, c_x)
    integrand = (c_x * grad_phi[1] - c_y * grad_phi[0]) * _synthesize_square(b, N)
    return QuadratureGrid(N).weight * integrand.sum(axis=(-2, -1))


def _perp_left(a: np.ndarray, N: int, K_pad: int) -> tuple[np.ndarray, np.ndarray]:
    """P perp-grad a = (-P d/dy a, P d/dx a) of (..., K, K) squares projected
    onto the cutoff K_pad, as its (..., K, K_pad) and (..., K_pad, K) blocks:
    the left factor of _b2 before its power."""
    d_x, d_y = _gradient_coeffs(a, N, K_pad)
    return -d_y, d_x


def _b2(
    left, b: np.ndarray, lexp: float, s: float, rexp: float, grad_phi: np.ndarray
) -> float | np.ndarray:
    """<Lambda^lexp P perp-grad a, -Lambda [Lambda^{-s}, grad phi] Lambda^rexp b>.

    left is _perp_left(a, N, K_pad) for (..., K, K) squares a, b a (..., K, K)
    square and grad_phi the (2, N, N) samples of grad(phi) used as the two
    multipliers; each multiplier's commutator is projected only onto the
    block of its left component.  One value per leading index.
    """
    K = b.shape[-1]
    bands = [comp.shape[-2:] for comp in left]
    lam = _eigenvalue_square(max(max(band) for band in bands))
    right = _mult_coeffs(grad_phi, lam[:K, :K] ** (rexp / 2.0) * b, -s, bands)
    total = 0.0
    for comp, r, (rows, cols) in zip(left, right, bands):
        lam_b = lam[:rows, :cols]
        total = total - np.sum(lam_b ** (lexp / 2.0) * comp * (lam_b**0.5 * r), axis=(-2, -1))
    return total


def _padded_square(psi: SpectralField, pad: float):
    """psi's own coefficient square, the grid of its padded basis and the
    padded cutoff."""
    big = padded_basis(psi.basis, pad)
    return _coeff_square(psi), padded_grid(big), big.K


def n1(psi: SpectralField, phi: Multiplier, alpha: float, pad: float = 4.0) -> float:
    """int [Lambda^alpha, perp-grad] psi . grad(phi) psi dx."""
    _check_alpha(alpha)
    A, grid, K_pad = _padded_square(psi, pad)
    return float(_b1(A, A, alpha, phi.grad_on(grid), K_pad))


def n2(psi: SpectralField, phi: Multiplier, alpha: float, pad: float = 4.0) -> float:
    """int Lambda^{-1+alpha} perp-grad(psi) . Lambda^{1-alpha}[Lambda^alpha, grad phi] psi dx.

    Computed via the rewriting Lambda^{-alpha}[Lambda^alpha, grad phi]psi =
    [grad phi, Lambda^{-alpha}] Lambda^alpha psi, so only negative-power
    multiplier commutators are needed.
    """
    _check_alpha(alpha)
    A, grid, K_pad = _padded_square(psi, pad)
    left = _perp_left(A, grid.N, K_pad)
    return float(_b2(left, A, -1.0 + alpha, alpha, alpha, phi.grad_on(grid)))


def _n2_shift_exponents(alpha: float, delta: float):
    """(lexp, s, rexp) of the two _b2 terms of the delta-shifted n2: the
    shifted term first, then the plain (delta-power) term."""
    return (-1.0 + alpha - delta, alpha - delta, alpha), (-1.0 + alpha, delta, delta)


def n2_alt(
    psi: SpectralField,
    phi: Multiplier,
    alpha: float,
    delta: float | None = None,
    pad: float = 4.0,
) -> float:
    """Delta-shifted two-term representation of n2 (must agree with n2)."""
    _check_alpha(alpha)
    dmax = min(alpha, 1.0 - alpha)
    if delta is None:
        delta = 0.5 * dmax
    if not 0.0 < delta < dmax:
        raise ValueError(
            f"delta must lie in (0, min(alpha, 1-alpha)) = (0, {dmax}), got {delta}"
        )
    A, grid, K_pad = _padded_square(psi, pad)
    left = _perp_left(A, grid.N, K_pad)
    grad_phi = phi.grad_on(grid)
    shift, plain = _n2_shift_exponents(alpha, delta)
    return float(_b2(left, A, *shift, grad_phi) + _b2(left, A, *plain, grad_phi))


def _transport(a: np.ndarray, alpha: float, G: np.ndarray) -> float | np.ndarray:
    """int theta (perp-grad Lambda^{-alpha} theta) . G dx by quadrature.

    a is the (..., K, K) coefficient square of theta and G the (2, N, N) grid
    samples of the vector field; one value per leading index.
    """
    N = G.shape[-1]
    psi_x, psi_y = _gradient_square(_eigenvalue_square(a.shape[-1]) ** (-alpha / 2.0) * a, N)
    # perp-grad psi = (-psi_y, psi_x)
    integrand = _synthesize_square(a, N) * (-psi_y * G[0] + psi_x * G[1])
    return QuadratureGrid(N).weight * integrand.sum(axis=(-2, -1))


def classical_transport(
    theta: SpectralField, alpha: float, phi: Multiplier, pad: float = 4.0
) -> float:
    """int theta (perp-grad Lambda^{-alpha} theta) . grad(phi) dx by quadrature."""
    _check_alpha(alpha)
    A, grid, _ = _padded_square(theta, pad)
    return float(_transport(A, alpha, phi.grad_on(grid)))


def n_total(
    psi: SpectralField, phi: Multiplier, alpha: float, pad: float = 4.0
) -> WeakFormValue:
    """N(psi, phi) = (N1 - N2)/2 with its two halves."""
    v1 = n1(psi, phi, alpha, pad)
    v2 = n2(psi, phi, alpha, pad)
    return WeakFormValue(v1, v2, 0.5 * (v1 - v2))
