"""Commutator representations of the transport nonlinearity.

The classical integral int theta u . grad(phi) dx is rewritten as
N = (N1 - N2)/2 where N1 pairs [Lambda^alpha, perp-grad]psi with grad(phi) psi
and N2 pairs Lambda^{-1+alpha} perp-grad(psi) with the multiplier commutator
of grad(phi).  N2 also has a delta-shifted two-term form; both must agree.
All functionals are quadratic in psi and evaluated with padded projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .basis import (
    GridField,
    QuadratureGrid,
    SpectralField,
    analyze,
    embed,
    perp_gradient,
    sample,
    synthesize,
)
from .commutators import (
    Multiplier,
    comm_lambda_grad,
    comm_neg_lambda_mult,
    padded_basis,
    padded_grid,
)
from .fractional import apply_lambda_power, sobolev_norm

PI = np.pi


@dataclass(frozen=True)
class TestFunction:
    """Analytic test function vanishing to order >= 4 at the boundary.

    Carries closed-form first and second derivatives; higher-order norm
    metadata is computed spectrally on demand.
    """

    name: str
    phi: Callable = field(repr=False)
    dx: Callable = field(repr=False)
    dy: Callable = field(repr=False)
    dxx: Callable = field(repr=False)
    dxy: Callable = field(repr=False)
    dyy: Callable = field(repr=False)

    def __post_init__(self):
        mx = Multiplier(f"{self.name}.dx", self.dx, self.dxx, self.dxy)
        my = Multiplier(f"{self.name}.dy", self.dy, self.dxy, self.dyy)
        object.__setattr__(self, "_grad_mults", (mx, my))

    def on(self, grid: QuadratureGrid) -> np.ndarray:
        """phi on the grid nodes (read-only, shared between callers)."""
        return sample(self.phi, grid.N)

    def grad_on(self, grid: QuadratureGrid) -> np.ndarray:
        """grad(phi) on the grid nodes (read-only, shared between callers)."""
        return sample(self._grad, grid.N)

    def laplacian_on(self, grid: QuadratureGrid) -> np.ndarray:
        """Laplacian of phi on the grid nodes (read-only, shared between callers)."""
        return sample(self._laplacian, grid.N)

    def _grad(self, X, Y):
        return np.stack([self.dx(X, Y), self.dy(X, Y)])

    def _laplacian(self, X, Y):
        return self.dxx(X, Y) + self.dyy(X, Y)

    def grad_multipliers(self) -> tuple[Multiplier, Multiplier]:
        """The two components of grad(phi) as multipliers with analytic gradients.

        Built once per test function, so their grid samples are reused.
        """
        return self._grad_mults

    def h4_norm(self, K: int = 48) -> float:
        """H^4-equivalent norm via the D(Lambda^4) norm of a fine projection."""
        from .basis import build_rectangle_basis

        basis = build_rectangle_basis(K)
        grid = QuadratureGrid(4 * K)
        f = analyze(GridField(grid, self.on(grid)), basis)
        return sobolev_norm(f, 4.0)

    def grad_w1inf(self, grid: QuadratureGrid) -> float:
        X, Y = grid.meshgrid()
        first = max(np.abs(self.dx(X, Y)).max(), np.abs(self.dy(X, Y)).max())
        second = max(
            np.abs(self.dxx(X, Y)).max(),
            np.abs(self.dxy(X, Y)).max(),
            np.abs(self.dyy(X, Y)).max(),
        )
        return float(first + second)


def _quartic_profile():
    """p(t) = (t (pi - t))^4 and its first two derivatives."""

    def q(t):
        return t * (PI - t)

    def p(t):
        return q(t) ** 4

    def dp(t):
        return 4.0 * q(t) ** 3 * (PI - 2.0 * t)

    def d2p(t):
        return 12.0 * q(t) ** 2 * (PI - 2.0 * t) ** 2 - 8.0 * q(t) ** 3

    return p, dp, d2p


def _make_quartic() -> TestFunction:
    p, dp, d2p = _quartic_profile()
    c = 1.0 / p(PI / 2.0) ** 2
    return TestFunction(
        "quartic",
        phi=lambda x, y: c * p(x) * p(y),
        dx=lambda x, y: c * dp(x) * p(y),
        dy=lambda x, y: c * p(x) * dp(y),
        dxx=lambda x, y: c * d2p(x) * p(y),
        dxy=lambda x, y: c * dp(x) * dp(y),
        dyy=lambda x, y: c * p(x) * d2p(y),
    )


def _make_sine_bump() -> TestFunction:
    s4 = lambda t: np.sin(t) ** 4
    ds4 = lambda t: 4.0 * np.sin(t) ** 3 * np.cos(t)
    d2s4 = lambda t: 12.0 * np.sin(t) ** 2 * np.cos(t) ** 2 - 4.0 * np.sin(t) ** 4
    return TestFunction(
        "sine_bump",
        phi=lambda x, y: s4(x) * s4(y),
        dx=lambda x, y: ds4(x) * s4(y),
        dy=lambda x, y: s4(x) * ds4(y),
        dxx=lambda x, y: d2s4(x) * s4(y),
        dxy=lambda x, y: ds4(x) * ds4(y),
        dyy=lambda x, y: s4(x) * d2s4(y),
    )


def _make_skew_bump() -> TestFunction:
    """Non-separable: sine bump modulated by sin(x + 2y)."""
    s4 = lambda t: np.sin(t) ** 4
    ds4 = lambda t: 4.0 * np.sin(t) ** 3 * np.cos(t)
    d2s4 = lambda t: 12.0 * np.sin(t) ** 2 * np.cos(t) ** 2 - 4.0 * np.sin(t) ** 4
    g = lambda x, y: 1.0 + 0.5 * np.sin(x + 2.0 * y)
    gx = lambda x, y: 0.5 * np.cos(x + 2.0 * y)
    gy = lambda x, y: np.cos(x + 2.0 * y)
    gxx = lambda x, y: -0.5 * np.sin(x + 2.0 * y)
    gxy = lambda x, y: -np.sin(x + 2.0 * y)
    gyy = lambda x, y: -2.0 * np.sin(x + 2.0 * y)
    return TestFunction(
        "skew_bump",
        phi=lambda x, y: s4(x) * s4(y) * g(x, y),
        dx=lambda x, y: ds4(x) * s4(y) * g(x, y) + s4(x) * s4(y) * gx(x, y),
        dy=lambda x, y: s4(x) * ds4(y) * g(x, y) + s4(x) * s4(y) * gy(x, y),
        dxx=lambda x, y: d2s4(x) * s4(y) * g(x, y)
        + 2.0 * ds4(x) * s4(y) * gx(x, y)
        + s4(x) * s4(y) * gxx(x, y),
        dxy=lambda x, y: ds4(x) * ds4(y) * g(x, y)
        + ds4(x) * s4(y) * gy(x, y)
        + s4(x) * ds4(y) * gx(x, y)
        + s4(x) * s4(y) * gxy(x, y),
        dyy=lambda x, y: s4(x) * d2s4(y) * g(x, y)
        + 2.0 * s4(x) * ds4(y) * gy(x, y)
        + s4(x) * s4(y) * gyy(x, y),
    )


def test_function_catalog() -> dict[str, TestFunction]:
    """A fresh dict of test functions built once, so their grid samples are reused."""
    return {tf.name: tf for tf in _test_functions()}


@lru_cache(maxsize=1)
def _test_functions() -> tuple[TestFunction, ...]:
    return (_make_quartic(), _make_sine_bump(), _make_skew_bump())


@dataclass
class WeakFormValue:
    """n_total = (n1 - n2) / 2 with the parameters that produced it."""

    n1: float
    n2: float
    n_total: float
    params: dict

    def __post_init__(self):
        if not np.isclose(self.n_total, 0.5 * (self.n1 - self.n2), rtol=1e-12, atol=1e-300):
            raise ValueError("n_total must equal (n1 - n2)/2")


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"constitutive exponent alpha must lie in (0, 1), got {alpha}")


def n1(psi: SpectralField, phi: TestFunction, alpha: float, pad: float = 4.0) -> float:
    """int [Lambda^alpha, perp-grad] psi . grad(phi) psi dx."""
    _check_alpha(alpha)
    comm = comm_lambda_grad(psi, alpha, pad, perp=True)
    grid = comm.grid
    big = padded_basis(psi.basis, pad)
    psi_grid = synthesize(embed(psi, big), grid).values
    grad_phi = phi.grad_on(grid)
    integrand = (comm.values[0] * grad_phi[0] + comm.values[1] * grad_phi[1]) * psi_grid
    return float(grid.weight * integrand.sum())


def _neg_comm_perp(psi_b: SpectralField, grid, exponent: float):
    """Lambda^{exponent} applied to each component of perp-grad(psi)."""
    pg = perp_gradient(psi_b, grid)
    return [
        apply_lambda_power(analyze(GridField(grid, comp), psi_b.basis), exponent)
        for comp in pg.values
    ]


def n2(psi: SpectralField, phi: TestFunction, alpha: float, pad: float = 4.0) -> float:
    """int Lambda^{-1+alpha} perp-grad(psi) . Lambda^{1-alpha}[Lambda^alpha, grad phi] psi dx.

    Computed via the rewriting Lambda^{-alpha}[Lambda^alpha, grad phi]psi =
    [grad phi, Lambda^{-alpha}] Lambda^alpha psi, so only negative-power
    multiplier commutators are needed.
    """
    _check_alpha(alpha)
    big = padded_basis(psi.basis, pad)
    grid = padded_grid(big)
    psi_b = embed(psi, big)
    left = _neg_comm_perp(psi_b, grid, -1.0 + alpha)
    theta = apply_lambda_power(psi_b, alpha)
    total = 0.0
    for comp, mult in zip(left, phi.grad_multipliers()):
        # [grad phi, L^{-a}] L^a psi = -[L^{-a}, grad phi] L^a psi
        c = comm_neg_lambda_mult(mult, theta, alpha, pad=1.0)
        right = apply_lambda_power(SpectralField(big, -c.coeffs), 1.0)
        total += float(np.dot(comp.coeffs, right.coeffs))
    return total


def n2_alt(
    psi: SpectralField,
    phi: TestFunction,
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
    big = padded_basis(psi.basis, pad)
    grid = padded_grid(big)
    psi_b = embed(psi, big)

    left1 = _neg_comm_perp(psi_b, grid, -1.0 + alpha - delta)
    theta = apply_lambda_power(psi_b, alpha)
    left2 = _neg_comm_perp(psi_b, grid, -1.0 + alpha)
    f_delta = apply_lambda_power(psi_b, delta)

    total = 0.0
    for lcomp1, lcomp2, mult in zip(left1, left2, phi.grad_multipliers()):
        c1 = comm_neg_lambda_mult(mult, theta, alpha - delta, pad=1.0)
        r1 = apply_lambda_power(SpectralField(big, -c1.coeffs), 1.0)
        c2 = comm_neg_lambda_mult(mult, f_delta, delta, pad=1.0)
        r2 = apply_lambda_power(SpectralField(big, -c2.coeffs), 1.0)
        total += float(np.dot(lcomp1.coeffs, r1.coeffs) + np.dot(lcomp2.coeffs, r2.coeffs))
    return total


def classical_transport(
    theta: SpectralField, alpha: float, phi: TestFunction, pad: float = 4.0
) -> float:
    """int theta (perp-grad Lambda^{-alpha} theta) . grad(phi) dx by quadrature."""
    _check_alpha(alpha)
    big = padded_basis(theta.basis, pad)
    grid = padded_grid(big)
    theta_b = embed(theta, big)
    u = perp_gradient(apply_lambda_power(theta_b, -alpha), grid)
    theta_grid = synthesize(theta_b, grid).values
    grad_phi = phi.grad_on(grid)
    integrand = theta_grid * (u.values[0] * grad_phi[0] + u.values[1] * grad_phi[1])
    return float(grid.weight * integrand.sum())


def n_total(
    psi: SpectralField, phi: TestFunction, alpha: float, pad: float = 4.0
) -> WeakFormValue:
    """N(psi, phi) = (N1 - N2)/2 with its two halves."""
    v1 = n1(psi, phi, alpha, pad)
    v2 = n2(psi, phi, alpha, pad)
    return WeakFormValue(v1, v2, 0.5 * (v1 - v2), {"alpha": alpha, "pad": pad})
