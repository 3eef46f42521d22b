"""Convergence experiments: weak residuals, mode/viscosity sweeps, and the
six-term weak-continuity decomposition.

The sweeps report pairwise trajectory distances in negative norms (diagonal
on the shared basis) and trend summaries; no convergence rate is asserted
because the underlying compactness arguments provide none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .basis import (
    GridField,
    QuadratureGrid,
    SpectralField,
    analyze,
    embed,
    gradient,
    perp_gradient,
    synthesize,
    _gradient_square,
    _synthesize_square,
)
from .commutators import comm_lambda_grad, comm_neg_lambda_mult, padded_basis, padded_grid
from .fractional import apply_lambda_power, sobolev_norm
from .galerkin import (
    SimConfig,
    Trajectory,
    build_rectangle_basis,
    initial_data,
    run,
    run_ensemble,
)
from .weakform import TestFunction, n1, n2_alt

PI = np.pi


@dataclass(frozen=True)
class SpaceTimeTest:
    """Separable phi(x, y) chi(t) with chi vanishing at t = 0 and t = T."""

    spatial: TestFunction
    T: float
    chi: Callable = field(repr=False)
    dchi: Callable = field(repr=False)

    def __post_init__(self):
        for t in (0.0, self.T):
            if abs(self.chi(t)) > 1e-12:
                raise ValueError(f"chi must vanish at t={t}")


def sine_window_test(spatial: TestFunction, T: float) -> SpaceTimeTest:
    """chi(t) = sin^4(pi t / T): the catalog time window."""
    w = PI / T
    return SpaceTimeTest(
        spatial=spatial,
        T=T,
        chi=lambda t: math.sin(w * t) ** 4,
        dchi=lambda t: 4.0 * w * math.sin(w * t) ** 3 * math.cos(w * t),
    )


@dataclass
class SweepReport:
    """Per-parameter metrics plus pairwise difference norms of a sweep."""

    parameter: str
    values: list
    metrics: dict  # name -> array over parameter values
    pair_diffs: dict  # name -> array over consecutive pairs
    fits: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if len(vals) > 1 and not (
            np.all(np.diff(vals) > 0) or np.all(np.diff(vals) < 0)
        ):
            raise ValueError("swept parameter values must be strictly monotone")
        for name, arr in self.metrics.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"metric {name!r} contains non-finite entries")


def weak_residual(traj: Trajectory, st: SpaceTimeTest) -> float:
    """Absolute residual of the space-time weak identity along a trajectory.

    The transport term is evaluated against the band-limited projection of
    the spatial test function, which is the test class the Galerkin dynamics
    satisfies exactly; the remaining error is pure time discretization.  The
    snapshots go through the transforms as stacked (n, 3K, 3K) arrays.
    """
    cfg = traj.config
    if abs(st.T - cfg.T) > 1e-12:
        raise ValueError(f"test window T={st.T} does not match trajectory T={cfg.T}")
    if cfg.stride > 10:
        raise ValueError(f"snapshot stride {cfg.stride} too coarse (need <= 10 steps)")
    basis = traj.basis
    m = cfg.m
    lam = basis.eigenvalues[:m]

    # projected test function: exact tensor-consistent coefficients
    grid = QuadratureGrid(3 * basis.K)
    v = analyze(GridField(grid, st.spatial.on(grid)), basis).coeffs[:m]
    phi_m = np.zeros(basis.size)
    phi_m[:m] = v
    gphi = gradient(SpectralField(basis, phi_m), grid).values

    times, snaps = traj.times, traj.snaps
    chi = np.array([st.chi(float(t)) for t in times])
    dchi = np.array([st.dchi(float(t)) for t in times])
    psi = lam ** (-cfg.alpha / 2.0) * snaps  # Lambda^{-alpha} theta
    j, k = basis.mode_arrays()
    # transport against grad(P_m phi), u = (-psi_y, psi_x), machine-exact for
    # the triple band; blocks of snapshots keep each grid array near 64 kB
    block = max(1, 2**13 // grid.N**2)
    transport = np.empty(len(times))
    for b in range(0, len(times), block):
        squares = np.zeros((2, len(snaps[b:b + block]), basis.K, basis.K))
        squares[:, :, j[:m] - 1, k[:m] - 1] = (snaps[b:b + block], psi[b:b + block])
        th_grid = _synthesize_square(squares[0], grid.N)
        psi_x, psi_y = _gradient_square(squares[1], grid.N)
        transport[b:b + block] = grid.weight * np.sum(
            th_grid * (-psi_y * gphi[0] + psi_x * gphi[1]), axis=(1, 2)
        )
    # viscous term: <theta, Lap P_m phi> = -sum lam theta v
    visc = -cfg.epsilon * np.sum(lam * snaps * v, axis=-1)
    integrand = (snaps @ v) * dchi + (transport + visc) * chi
    return float(abs(np.trapezoid(integrand, times)))


def negative_norm_diff(
    a: SpectralField, b: SpectralField, nu: float
) -> float:
    """D(Lambda^{-nu}) distance on a common basis."""
    if a.basis is not b.basis and a.basis.K != b.basis.K:
        raise ValueError("fields must share a basis for diagonal negative norms")
    diff = SpectralField(a.basis, a.coeffs - b.coeffs)
    return sobolev_norm(diff, -nu)


def mode_sweep(template: SimConfig, m_list: list[int]) -> SweepReport:
    """Galerkin truncation study: pairwise final-state distances over m."""
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ValueError("m-list must be strictly increasing")
    K = int(math.ceil(math.sqrt(max(m_list))))
    basis = build_rectangle_basis(K)

    # members differ in m, so each runs on its own
    trajs = [run(replace(template, m=m), basis=basis) for m in m_list]

    finals = [tr.final_state() for tr in trajs]
    metrics = {
        "final_l2": np.array([f.l2_norm() for f in finals]),
        "max_l2": np.array([tr.diagnostics["l2_theta"].max() for tr in trajs]),
    }
    pair_diffs = {
        f"dneg_{nu}": np.array(
            [
                negative_norm_diff(finals[i], finals[i + 1], nu)
                for i in range(len(finals) - 1)
            ]
        )
        for nu in (0.5, 1.0)
    }

    # tail decay of the projection error of the initial datum
    big = replace(template, m=basis.size)
    theta0 = initial_data(big, basis)
    tails = np.array(
        [float(np.linalg.norm(theta0[m:])) for m in m_list if m < basis.size]
    )
    fits = {}
    ms = np.array([m for m in m_list if m < basis.size], dtype=float)
    if len(ms) >= 2 and np.all(tails > 0):
        slope = np.polyfit(np.log(ms), np.log(tails), 1)[0]
        fits["tail_decay_exponent"] = float(slope)
    return SweepReport("m", list(m_list), metrics, pair_diffs, fits)


def viscosity_sweep(template: SimConfig, eps_list: list[float]) -> SweepReport:
    """Vanishing-viscosity study at fixed m over a decreasing eps list; all
    members advance together as one batched state (galerkin.run_ensemble)."""
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps-list must be strictly decreasing")
    basis = build_rectangle_basis(template.basis_cutoff())
    trajs = run_ensemble([replace(template, epsilon=e) for e in eps_list], basis)

    theta0_norm = float(np.linalg.norm(initial_data(template, basis)))
    max_l2 = np.array([tr.diagnostics["l2_theta"].max() for tr in trajs])

    # H^{-4} time-derivative surrogate over consecutive snapshots
    surrogate = []
    for tr in trajs:
        m = tr.config.m
        lamw = basis.eigenvalues[:m] ** (-4.0)
        d = np.diff(tr.snaps, axis=0)
        dt_snap = np.diff(tr.times)
        surrogate.append(
            float(np.max(np.sqrt(np.sum(lamw * d**2, axis=1)) / dt_snap))
        )
    metrics = {
        "max_l2": max_l2,
        "uni_tt_margin": max_l2 / theta0_norm,
        "dt_surrogate_hm4": np.array(surrogate),
    }
    finals = [tr.final_state() for tr in trajs]
    pair_diffs = {
        f"dneg_{nu}": np.array(
            [
                negative_norm_diff(finals[i], finals[i + 1], nu)
                for i in range(len(finals) - 1)
            ]
        )
        for nu in (0.5, 1.0)
    }
    return SweepReport("epsilon", list(eps_list), metrics, pair_diffs)


def weak_continuity_terms(
    traj_eps: Trajectory,
    traj_ref: Trajectory,
    phi: TestFunction,
    delta: float,
    pad: float = 4.0,
) -> dict:
    """Six-term decomposition of twice the nonlinearity difference.

    Returns time-integrated I_1..I_6 over the matched snapshot times, their
    sum, and the directly computed 2 * (N(psi_eps) - N(psi_ref)).
    """
    cfg = traj_eps.config
    alpha = cfg.alpha
    dmax = min(alpha, 1.0 - alpha)
    if not 0.0 < delta < dmax:
        raise ValueError(f"delta must lie in (0, {dmax}), got {delta}")
    if len(traj_eps.times) != len(traj_ref.times) or not np.allclose(
        traj_eps.times, traj_ref.times
    ):
        raise ValueError("trajectories must share snapshot times")
    if traj_eps.basis.K != traj_ref.basis.K:
        raise ValueError("trajectories must share a basis")

    basis = traj_eps.basis
    big = padded_basis(basis, pad)
    grid = padded_grid(big)
    grad_phi = phi.grad_on(grid)
    mults = phi.grad_multipliers()

    n_t = len(traj_eps.times)
    terms = np.zeros((n_t, 6))
    two_dn = np.zeros(n_t)
    for i in range(n_t):
        th_e, th_r = traj_eps.state_at(i), traj_ref.state_at(i)
        psi_e = embed(apply_lambda_power(th_e, -alpha), big)
        psi_r = embed(apply_lambda_power(th_r, -alpha), big)
        dpsi = SpectralField(big, psi_e.coeffs - psi_r.coeffs)

        terms[i, 0] = _n1_pair(dpsi, psi_e, phi, alpha, grid, grad_phi)
        terms[i, 1] = _n1_pair(psi_r, dpsi, phi, alpha, grid, grad_phi)
        terms[i, 2] = -_n2_pair(dpsi, psi_e, mults, alpha, delta, grid, "shift")
        terms[i, 3] = -_n2_pair(psi_r, dpsi, mults, alpha, delta, grid, "shift")
        terms[i, 4] = -_n2_pair(dpsi, psi_r, mults, alpha, delta, grid, "plain")
        terms[i, 5] = -_n2_pair(psi_e, dpsi, mults, alpha, delta, grid, "plain")

        ne = 0.5 * (
            n1(psi_e, phi, alpha, pad=1.0) - n2_alt(psi_e, phi, alpha, delta, pad=1.0)
        )
        nr = 0.5 * (
            n1(psi_r, phi, alpha, pad=1.0) - n2_alt(psi_r, phi, alpha, delta, pad=1.0)
        )
        two_dn[i] = 2.0 * (ne - nr)

    t = traj_eps.times
    out = {f"I{j + 1}": float(np.trapezoid(terms[:, j], t)) for j in range(6)}
    out["sum"] = float(np.trapezoid(terms.sum(axis=1), t))
    out["two_delta_n"] = float(np.trapezoid(two_dn, t))
    return out


def _n1_pair(psi_a, psi_b, phi, alpha, grid, grad_phi) -> float:
    """int [Lambda^alpha, perp-grad] psi_a . grad(phi) psi_b dx (padded basis inputs)."""
    comm = comm_lambda_grad(psi_a, alpha, pad=1.0, perp=True)
    psi_b_grid = synthesize(psi_b, grid).values
    vals = (comm.values[0] * grad_phi[0] + comm.values[1] * grad_phi[1]) * psi_b_grid
    return float(grid.weight * vals.sum())


def _n2_pair(psi_left, psi_right, mults, alpha, delta, grid, which) -> float:
    """One bilinear term of the delta-shifted N2 representation.

    'shift': pairs Lambda^{-1+alpha-delta} perp-grad psi_left with
    Lambda [grad phi, Lambda^{-alpha+delta}] Lambda^alpha psi_right;
    'plain': the delta-power analogue.
    """
    big = psi_left.basis
    if which == "shift":
        lexp, s, rexp = -1.0 + alpha - delta, alpha - delta, alpha
    else:
        lexp, s, rexp = -1.0 + alpha, delta, delta
    pg = perp_gradient(psi_left, grid)
    left = [
        apply_lambda_power(analyze(GridField(grid, comp), big), lexp)
        for comp in pg.values
    ]
    f = apply_lambda_power(psi_right, rexp)
    total = 0.0
    for comp, mult in zip(left, mults):
        c = comm_neg_lambda_mult(mult, f, s, pad=1.0)
        r = apply_lambda_power(SpectralField(big, -c.coeffs), 1.0)
        total += float(np.dot(comp.coeffs, r.coeffs))
    return total
