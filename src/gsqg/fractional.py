"""Diagonal spectral fractional operators and heat-kernel quadrature oracles.

On the truncated eigenbasis every power of the Dirichlet Laplacian is a
diagonal rescaling of coefficients.  The two quadrature routines rebuild the
same operators from the heat semigroup and serve as independent cross-checks:
negative powers from the subordination integral, positive powers (order < 2)
from the balanced difference 1 - e^{t*Laplacian}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import EigenBasis, SpectralField, space_mask


def _check_power(s: float):
    if not np.isfinite(s):
        raise ValueError(f"fractional power must be finite, got {s}")


def apply_lambda_power(f: SpectralField, s: float) -> SpectralField:
    """Coefficients f_j -> lambda_j^(s/2) f_j."""
    _check_power(s)
    return SpectralField(f.basis, f.basis.eigenvalues ** (s / 2.0) * f.coeffs)


def sobolev_norm(f: SpectralField, s: float) -> float:
    """(sum lambda_j^s f_j^2)^(1/2), the D(Lambda^s) norm."""
    _check_power(s)
    return float(np.sqrt(np.sum(f.basis.eigenvalues**s * f.coeffs**2)))


def project(f: SpectralField, m: int) -> SpectralField:
    """Keep the modes of V_m (basis.space_mask), zero the rest."""
    return SpectralField(f.basis, np.where(space_mask(m, f.basis), f.coeffs, 0.0))


def heat_semigroup(f: SpectralField, t: float) -> SpectralField:
    """e^{t*Laplacian} f, i.e. f_j -> exp(-lambda_j t) f_j."""
    if not t >= 0:  # nan fails too; t = inf gives exact zeros
        raise ValueError(f"heat semigroup time must be >= 0, got t={t}")
    return SpectralField(f.basis, np.exp(-f.basis.eigenvalues * t) * f.coeffs)


@dataclass(frozen=True)
class HeatQuadRule:
    """Composite Simpson rule on log-uniform time nodes in [t_min, t_max]."""

    t_min: float
    t_max: float
    n_nodes: int

    def __post_init__(self):
        if not (0 < self.t_min < self.t_max):
            raise ValueError(
                f"need 0 < t_min < t_max, got ({self.t_min}, {self.t_max})"
            )
        if self.n_nodes < 3:
            raise ValueError(f"need at least 3 nodes, got {self.n_nodes}")

    def nodes_weights(self):
        """Nodes t_q and weights w_q approximating integral dt over the window."""
        n = self.n_nodes if self.n_nodes % 2 == 1 else self.n_nodes + 1
        u = np.linspace(math.log(self.t_min), math.log(self.t_max), n)
        h = u[1] - u[0]
        w = np.full(n, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= h / 3.0
        t = np.exp(u)
        return t, w * t  # dt = t du


def default_heat_rule(basis: EigenBasis) -> HeatQuadRule:
    """Window [1e-8/lambda_max, 40/lambda_min] resolving decay at both ends,
    with 513 nodes."""
    lam = basis.eigenvalues
    return HeatQuadRule(1e-8 / lam.max(), 40.0 / lam.min(), 513)


def lambda_neg_power_heat(
    f: SpectralField, s: float, rule: HeatQuadRule | None = None
) -> SpectralField:
    """Lambda^{-s} f via c_s * int t^{-1+s/2} e^{t*Laplacian} f dt, c_s = 1/Gamma(s/2).

    The window head and tail, where the integrand reduces to explicit power
    laws, are added in closed form so the default window meets quadrature
    tolerance for all s > 0.
    """
    if not 0 < s < math.inf:  # nan fails too
        raise ValueError(f"negative-power route requires finite s > 0, got s={s}")
    if rule is None:
        rule = default_heat_rule(f.basis)
    lam = f.basis.eigenvalues
    t, w = rule.nodes_weights()
    quad = np.exp(-np.outer(lam, t)) @ (w * t ** (s / 2.0 - 1.0))
    # head: e^{-lam t} ~ 1 - lam t on [0, t_min]
    head = (2.0 / s) * rule.t_min ** (s / 2.0) - lam * rule.t_min ** (
        s / 2.0 + 1.0
    ) / (s / 2.0 + 1.0)
    # tail: integrand below t^{s/2-1} e^{-lam t_max}
    tail = rule.t_max ** (s / 2.0 - 1.0) * np.exp(-lam * rule.t_max) / lam
    factor = (quad + head + tail) / math.gamma(s / 2.0)
    return SpectralField(f.basis, factor * f.coeffs)


def lambda_pos_power_heat(
    f: SpectralField, s: float, rule: HeatQuadRule | None = None
) -> SpectralField:
    """Lambda^{s} f via c_s * int t^{-1-s/2} (1 - e^{t*Laplacian}) f dt.

    c_s = s / (2 Gamma(1 - s/2)), fixed by the normalization
    1 = c_s int t^{-1-s/2} (1 - e^{-t}) dt.  Head and tail handled as in the
    negative-power route.
    """
    if not 0.0 < s < 2.0:
        raise ValueError(f"positive-power route requires s in (0, 2), got {s}")
    if rule is None:
        rule = default_heat_rule(f.basis)
    lam = f.basis.eigenvalues
    t, w = rule.nodes_weights()
    quad = (1.0 - np.exp(-np.outer(lam, t))) @ (w * t ** (-s / 2.0 - 1.0))
    # head: 1 - e^{-lam t} ~ lam t - (lam t)^2 / 2 on [0, t_min]
    head = lam * rule.t_min ** (1.0 - s / 2.0) / (1.0 - s / 2.0) - 0.5 * (
        lam**2
    ) * rule.t_min ** (2.0 - s / 2.0) / (2.0 - s / 2.0)
    # tail: 1 - e^{-lam t} ~ 1 beyond t_max
    tail = (2.0 / s) * rule.t_max ** (-s / 2.0)
    c_s = s / (2.0 * math.gamma(1.0 - s / 2.0))
    factor = c_s * (quad + head + tail)
    return SpectralField(f.basis, factor * f.coeffs)
