"""Commutator representations of the transport nonlinearity.

The classical integral int theta u . grad(phi) dx is rewritten as
N = (N1 - N2)/2 where N1 pairs [Lambda^alpha, perp-grad]psi with grad(phi) psi
and N2 pairs Lambda^{-1+alpha} perp-grad(psi) with the multiplier commutator
of grad(phi).  N2 also has a delta-shifted two-term form; both must agree.
All functionals are quadratic in psi and evaluated with padded projections.

Every weak form is a difference of two pairings sum_c <left_c, right_c>
of coefficient blocks that _factors computes once per field, for
(..., K, K) squares with any leading batch axes: the projected gradients
G_r of Lambda^r a and the products R_r = P_c(d_c phi Lambda^r b), each
stacked over the powers r.  Component c lies on the band (K, K') for c = 0
and (K', K) for c = 1, K' the padded cutoff, and pairs with d_c phi; no
field is zero-padded to K', and projected gradients stay in coefficient
space (basis._gradient_projection).  No commutator array
lambda^{s/2} T_i - T_j is built: each form pairs the two terms of its
commutator apart, <w T_i - T_j, X> = <w T_i, X> - <T_j, X> (_forms), every
pairing one np.vecdot over the flattened band per component (_perp_dot),
and N1 and N2 share their pairing <P perp-grad a, lambda^{alpha/2} R_0>.
n2_alt keeps its two delta-shifted terms as two pairings: folded, they
would be n2's own pairings, and the check that the two agree would compare
n2 with itself.  As w sum_nodes synthesize(C) h = sum C * analyze(h) up to
rounding, N1's grid integral is a pairing too.  Every R_r comes from the
low-rank factors of d_c phi's grid samples (commutators._mult_products),
so its cost scales with their rank and no grid array is built.
classical_transport, the oracle of N, takes the same factors with psi's
derivative in the product maps and the same pairing.  The padded sizes
(K', N) come from one cached lookup, commutators.padded_sizes.  The grid is
left to the test oracles, which integrate on it, and to comm_lambda_grad's
output.
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
    _mult_products,
    _power_stack,
    padded_sizes,
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
    """(bands, G, R): the blocks (..., K, K) squares A bring to the weak
    forms, G and R each a pair over the components c = 0, 1 on the bands
    (K, K_pad) and (K_pad, K), stacked on axis -3 over the powers (0, alpha),
    or (0, delta, alpha), of A.  G = (d_y, d_x) is the projected gradient of
    each power, which _perp_dot pairs as P perp-grad, and R_r =
    P_c(d_c phi Lambda^r A) is projected from d_c phi's samples on the N
    grid; both multipliers' products take the power stack in one call.
    Without n1, G holds power 0 alone: only N1 pairs G_alpha.
    """
    K = A.shape[-1]
    bands = ((K, K_pad), (K_pad, K))
    F = _power_stack(A, (0.0, alpha) if delta is None else (0.0, delta, alpha))
    d_x, d_y = _gradient_coeffs(F if n1 else F[..., :1, :, :], N, K_pad)
    return bands, (d_y, d_x), _mult_products(phi._grad_values, N, F, bands)


def _perp_dot(left, right) -> float | np.ndarray:
    """<left_1, right_1> - <left_0, right_0> over the last two axes, one
    value per leading index, each <,> one np.vecdot over the flattened axes:
    <P perp-grad f, right> for left = (d_y, d_x) of f."""
    (a0, a1), (b0, b1) = left, right
    flat = a0.shape[:-2] + (-1,)
    return np.vecdot(a1.reshape(flat), b1.reshape(flat)) - np.vecdot(
        a0.reshape(flat), b0.reshape(flat))


def _forms(factors, alpha: float, delta: float | None, names, left=..., right=...) -> list:
    """The weak forms `names` between the fields that left and right pick on
    the leading axis of factors (_factors' output), each the difference of
    two pairings of the power blocks G_r and R_r, w_s = lambda^{s/2}:

        n1     <G_0, w_alpha R_0> - <G_alpha, R_0>
        n2     <G_0, w_alpha R_0> - <G_0, R_alpha>
        shift  <w_{alpha-delta} G_0, R_delta> - <G_0, R_alpha>
        plain  <w_{alpha-delta} G_0, w_delta R_0> - <w_{alpha-delta} G_0, R_delta>

    n1 pairs perp [Lambda^alpha, grad] left with R_0, its weight moved onto
    R_0 as Lambda is self-adjoint; n2 pairs P perp-grad left with
    [Lambda^alpha, d_c phi] right; shift and plain are the two terms
    [Lambda^{alpha-delta}, d_c phi] Lambda^delta and
    Lambda^{alpha-delta} [Lambda^delta, d_c phi] that sum to n2's commutator.
    No commutator array is built, and a pairing two forms share is computed
    once.
    """
    bands, G, R = factors

    def block(T, power, fields, s=None):
        t = [c[..., power, :, :][fields] for c in T]
        return t if s is None else [w * c for w, c in zip(_band_weights(bands, s), t)]

    g0 = block(G, 0, left)
    if "n1" in names or "n2" in names:
        common = _perp_dot(g0, block(R, 0, right, alpha))
    if "shift" in names or "plain" in names:
        wg0 = block(G, 0, left, alpha - delta)
        cross = _perp_dot(wg0, block(R, 1, right))
    forms = {
        "n1": lambda: common - _perp_dot(block(G, -1, left), block(R, 0, right)),
        "n2": lambda: common - _perp_dot(g0, block(R, -1, right)),
        "shift": lambda: cross - _perp_dot(g0, block(R, -1, right)),
        "plain": lambda: _perp_dot(wg0, block(R, 0, right, delta)) - cross,
    }
    return [forms[name]() for name in names]


def _values(
    psi: SpectralField, phi: Multiplier, alpha: float, delta: float | None, pad: float,
    names,
) -> list[float]:
    """The weak forms `names` (see _forms) of psi, from one set of factors on
    the grid of its padded basis."""
    K_pad, N = padded_sizes(psi.basis.K, pad)
    factors = _factors(_coeff_square(psi), phi, N, K_pad, alpha, delta, "n1" in names)
    return [float(v) for v in _forms(factors, alpha, delta, names)]


def n1(psi: SpectralField, phi: Multiplier, alpha: float, pad: float = 4.0) -> float:
    """int [Lambda^alpha, perp-grad] psi . grad(phi) psi dx."""
    return n_total(psi, phi, alpha, pad).n1


def n2(psi: SpectralField, phi: Multiplier, alpha: float, pad: float = 4.0) -> float:
    """int Lambda^{-1+alpha} perp-grad(psi) . Lambda^{1-alpha}[Lambda^alpha, grad phi] psi dx,
    that is <P perp-grad psi, [Lambda^alpha, grad phi] psi>: Lambda is
    self-adjoint."""
    _check_alpha(alpha)
    (v2,) = _values(psi, phi, alpha, None, pad, ("n2",))
    return v2


def n2_alt(
    psi: SpectralField, phi: Multiplier, alpha: float, delta: float | None = None,
    pad: float = 4.0,
) -> float:
    """Delta-shifted two-term representation of n2 (must agree with n2), from
    [Lambda^alpha, a] = [Lambda^{alpha-delta}, a] Lambda^delta +
    Lambda^{alpha-delta} [Lambda^delta, a]."""
    shift, plain = _values(psi, phi, alpha, _check_delta(alpha, delta), pad, ("shift", "plain"))
    return shift + plain


def classical_transport(
    theta: SpectralField, alpha: float, phi: Multiplier, pad: float = 4.0
) -> float:
    """int theta (perp-grad Lambda^{-alpha} theta) . grad(phi) dx by quadrature
    on the padded grid, in coefficient space.

    With A theta's square and psi = Lambda^{-alpha} theta, the quadrature of
    theta (-d_y psi d_x phi + d_x psi d_y phi) is
    <A, P(d_y phi d_x psi)> - <A, P(d_x phi d_y psi)>, P the (K, K)
    quadrature projection, paired by _perp_dot as in the weak forms; each
    product comes from the cross factors of d_c phi's grid samples with psi's
    differentiated axis (commutators._mult_products), so no grid array is
    built.
    """
    _check_alpha(alpha)
    N = padded_sizes(theta.basis.K, pad)[1]
    A = _coeff_square(theta)
    K = A.shape[-1]
    products = _mult_products(
        phi._grad_values, N, _lambda_power(K, -alpha) * A, [(K, K)] * 2, (1, 0))
    return float(_perp_dot((A, A), products))


def n_total(
    psi: SpectralField, phi: Multiplier, alpha: float, pad: float = 4.0
) -> WeakFormValue:
    """N(psi, phi) = (N1 - N2)/2 with its two halves."""
    _check_alpha(alpha)
    v1, v2 = _values(psi, phi, alpha, None, pad, ("n1", "n2"))
    return WeakFormValue(v1, v2, 0.5 * (v1 - v2))
