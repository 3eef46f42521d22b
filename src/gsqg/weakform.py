"""Commutator representations of the transport nonlinearity.

The classical integral int theta u . grad(phi) dx is rewritten as
N = (N1 - N2)/2 where N1 pairs [Lambda^alpha, perp-grad]psi with grad(phi) psi
and N2 pairs Lambda^{-1+alpha} perp-grad(psi) with the multiplier commutator
of grad(phi).  N2 also has a delta-shifted two-term form; both must agree.
All functionals are quadratic in psi and evaluated with padded projections.

Every weak form is one pairing sum_c <left_c(a), right_c(b)> of coefficient
blocks that _factors computes once per field, for (..., K, K) squares with
any leading batch axes.  Component c lies on the band (K, K') for c = 0 and
(K', K) for c = 1, K' the padded cutoff, and pairs with d_c phi; no field is
zero-padded to K', and projected gradients stay in coefficient space
(basis._gradient_projection).  N1 pairs perp [Lambda^alpha, grad] a with
R_0 and N2 pairs P perp-grad a with multiplier commutators, all built from
R_r = P_c(d_c phi Lambda^r b): as w sum_nodes synthesize(C) h =
sum C * analyze(h) up to rounding, N1's grid integral is a pairing too.  The
powers of b are one stack, and every R_r comes from the low-rank factors of
d_c phi's grid samples (commutators._mult_products), so its cost scales with
their rank and no grid array is built.  classical_transport, the oracle of
N, takes the same factors with psi's derivative in the product maps.  The
grid is left to the test oracles, which integrate on it, and to
comm_lambda_grad's output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import (
    SpectralField,
    _coeff_square,
    _gradient_coeffs,
    _lambda_power,
)
from .commutators import (
    Multiplier,
    _band_weights,
    _commutator,
    _mult_products,
    _power_stack,
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


def _check_delta(alpha: float, delta: float | None) -> float:
    """delta of the shifted N2, by default half its bound, after checking
    alpha and delta."""
    _check_alpha(alpha)
    dmax = min(alpha, 1.0 - alpha)
    if delta is None:
        delta = 0.5 * dmax
    if not 0.0 < delta < dmax:
        raise ValueError(
            f"delta must lie in (0, min(alpha, 1-alpha)) = (0, {dmax}), got {delta}"
        )
    return delta


def _factors(
    A: np.ndarray, phi: Multiplier, N: int, K_pad: int, alpha: float,
    delta: float | None = None, n1: bool = True,
):
    """The blocks (..., K, K) squares A bring to the weak forms, each a list
    over the components c = 0, 1 on the bands (K, K_pad) and (K_pad, K):
    comm = perp [Lambda^alpha, grad] A and r0 = R_0, N1's left and right
    factors; perp = P perp-grad A, N2's left factor; and N2's right factors,
    [Lambda^alpha, d_c phi] A = lambda^{alpha/2} R_0 - R_alpha or, with
    delta, the shifted [Lambda^{alpha-delta}, d_c phi] Lambda^delta A and the
    plain Lambda^{alpha-delta} [Lambda^delta, d_c phi] A that sum to it.
    The products with d_c phi are projected from its samples on the N grid.

    The powers (0, alpha), or (0, delta, alpha), of A are one stack: both
    multipliers' products take it in one call, and its projected gradient
    gives perp and comm.  Without n1, comm is None and only power 0 is
    differentiated.
    """
    K = A.shape[-1]
    bands = ((K, K_pad), (K_pad, K))
    F = _power_stack(A, (0.0, alpha) if delta is None else (0.0, delta, alpha))
    d_x, d_y = _gradient_coeffs(F if n1 else F[..., :1, :, :], N, K_pad)
    perp = [-d_y, d_x]
    R = _mult_products(phi._grad_values, N, F, bands)
    if delta is None:
        rights = [_commutator(R, _band_weights(bands, alpha), 0, 1)]
    else:
        w_shift = _band_weights(bands, alpha - delta)
        plain = _commutator(R, _band_weights(bands, delta), 0, 1)
        rights = [_commutator(R, w_shift, 1, 2), [v * c for v, c in zip(w_shift, plain)]]
    comm = _commutator(perp, _band_weights(bands, alpha), 0, -1) if n1 else None
    return comm, [t[..., 0, :, :] for t in perp], [t[..., 0, :, :] for t in R], rights


def _pair(left, right) -> float | np.ndarray:
    """sum_c <left_c, right_c> over the last two axes, one value per leading
    index."""
    return sum((a * b).sum(axis=(-2, -1)) for a, b in zip(left, right))


def _halves(
    psi: SpectralField, phi: Multiplier, alpha: float, delta: float | None, pad: float,
    n1: bool,
) -> tuple[float | None, float]:
    """(N1, N2) of psi from one set of factors on the grid of its padded
    basis; N2 as the sum of its delta-shifted terms when delta is given, N1
    None unless n1."""
    big = padded_basis(psi.basis, pad)
    comm, perp, r0, rights = _factors(
        _coeff_square(psi), phi, padded_grid(big).N, big.K, alpha, delta, n1)
    return float(_pair(comm, r0)) if n1 else None, float(sum(_pair(perp, r) for r in rights))


def n1(psi: SpectralField, phi: Multiplier, alpha: float, pad: float = 4.0) -> float:
    """int [Lambda^alpha, perp-grad] psi . grad(phi) psi dx."""
    return n_total(psi, phi, alpha, pad).n1


def n2(psi: SpectralField, phi: Multiplier, alpha: float, pad: float = 4.0) -> float:
    """int Lambda^{-1+alpha} perp-grad(psi) . Lambda^{1-alpha}[Lambda^alpha, grad phi] psi dx,
    that is <P perp-grad psi, [Lambda^alpha, grad phi] psi>: Lambda is
    self-adjoint."""
    _check_alpha(alpha)
    return _halves(psi, phi, alpha, None, pad, False)[1]


def n2_alt(
    psi: SpectralField, phi: Multiplier, alpha: float, delta: float | None = None,
    pad: float = 4.0,
) -> float:
    """Delta-shifted two-term representation of n2 (must agree with n2), from
    [Lambda^alpha, a] = [Lambda^{alpha-delta}, a] Lambda^delta +
    Lambda^{alpha-delta} [Lambda^delta, a]."""
    return _halves(psi, phi, alpha, _check_delta(alpha, delta), pad, False)[1]


def classical_transport(
    theta: SpectralField, alpha: float, phi: Multiplier, pad: float = 4.0
) -> float:
    """int theta (perp-grad Lambda^{-alpha} theta) . grad(phi) dx by quadrature
    on the padded grid, in coefficient space.

    With A theta's square and psi = Lambda^{-alpha} theta, the quadrature of
    theta (-d_y psi d_x phi + d_x psi d_y phi) is
    <A, P(d_y phi d_x psi) - P(d_x phi d_y psi)>, P the (K, K) quadrature
    projection, and each product comes from the cross factors of d_c phi's
    grid samples with psi's differentiated axis (commutators._mult_products),
    as in the weak forms; no grid array is built.
    """
    _check_alpha(alpha)
    N = padded_grid(padded_basis(theta.basis, pad)).N
    A = _coeff_square(theta)
    K = A.shape[-1]
    p0, p1 = _mult_products(
        phi._grad_values, N, _lambda_power(K, -alpha) * A, [(K, K)] * 2, (1, 0))
    return float(np.sum(A * (p1 - p0)))


def n_total(
    psi: SpectralField, phi: Multiplier, alpha: float, pad: float = 4.0
) -> WeakFormValue:
    """N(psi, phi) = (N1 - N2)/2 with its two halves."""
    _check_alpha(alpha)
    v1, v2 = _halves(psi, phi, alpha, None, pad, True)
    return WeakFormValue(v1, v2, 0.5 * (v1 - v2))
