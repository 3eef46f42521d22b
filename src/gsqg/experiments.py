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
    cutoff_for,
    restrict,
    space_mask,
)
from .commutators import Multiplier, _cross_factors, padded_basis, padded_grid
from .fractional import sobolev_norm
from .galerkin import (
    BLOCK_VALUES,
    GridProducts,
    SimConfig,
    Trajectory,
    build_rectangle_basis,
    initial_data,
    run,
    run_ensemble,
)
from .weakform import _check_delta, _factors, _pair

PI = np.pi

#: values one block of weak_continuity_terms' _factors may hold (2 MB)
FACTOR_VALUES = 2**18


@dataclass(frozen=True)
class SpaceTimeTest:
    """Separable phi(x, y) chi(t) with chi vanishing at t = 0 and t = T."""

    spatial: Multiplier
    T: float
    chi: Callable = field(repr=False)
    dchi: Callable = field(repr=False)

    def __post_init__(self):
        for t in (0.0, self.T):
            if abs(self.chi(t)) > 1e-12:
                raise ValueError(f"chi must vanish at t={t}")


def sine_window_test(spatial: Multiplier, T: float) -> SpaceTimeTest:
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
    satisfies exactly; the remaining error is pure time discretization.
    For v the coefficients of P_m phi, <theta, u . grad P_m phi> is
    sum_l theta_l (sum_jk gamma_jkl theta_j v_k), the Galerkin form that
    GridProducts.bilinear evaluates exactly by the 3/2 rule, over blocks of
    snapshots; below GRID_MIN_M, where runs contract the tensor, it is an
    evaluator independent of the run's.  Besides those products, the only
    grid work is the projection of phi onto V_m.
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

    times, snaps = traj.times, traj.snaps
    chi = np.array([st.chi(float(t)) for t in times])
    dchi = np.array([st.dchi(float(t)) for t in times])
    # transport <theta, u . grad P_m phi>; blocks of snapshots keep each
    # (N, block N) grid array of the products near 64 kB
    products = GridProducts(basis, m, cfg.alpha)
    block = max(1, BLOCK_VALUES // products.N**2)
    transport = np.empty(len(times))
    for b in range(0, len(times), block):
        theta = snaps[b:b + block]
        u_grad_phi = products.bilinear(theta, np.broadcast_to(v, theta.shape))
        transport[b:b + block] = np.sum(theta * u_grad_phi, axis=-1)
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


def _consecutive_diffs(finals: list[SpectralField]) -> dict:
    """dneg_nu: D(Lambda^{-nu}) distances of consecutive final states."""
    return {
        f"dneg_{nu}": np.array(
            [negative_norm_diff(a, b, nu) for a, b in zip(finals, finals[1:])]
        )
        for nu in (0.5, 1.0)
    }


def mode_sweep(template: SimConfig, m_list: list[int]) -> SweepReport:
    """Galerkin truncation study over nested V_m: each member runs as `gsqg
    simulate` runs it, and the final states meet on the largest basis."""
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ValueError("m-list must be strictly increasing")
    basis = build_rectangle_basis(cutoff_for(max(m_list)))
    spaces = [space_mask(m, basis) for m in m_list]
    for a, in_a, b, in_b in zip(m_list, spaces, m_list[1:], spaces[1:]):
        if np.any(in_a & ~in_b):
            raise ValueError(f"m-list is not nested: m={a} holds a mode that m={b} drops")

    # tail decay of the projection error of the initial datum off each V_m,
    # fitted first so that a `file:` datum lacking V_{basis.size} runs nothing
    try:
        theta0 = initial_data(replace(template, m=basis.size))
    except ValueError as exc:
        raise ValueError(
            f"key 'initial' = {template.initial!r}: a mode sweep fits its tail decay on "
            f"the largest basis, every mode of the K = {basis.K} square (m = K^2 = "
            f"{basis.size}), and the datum does not give it: {exc}") from exc
    ms = np.array([m for m in m_list if m < basis.size], dtype=float)
    tails = np.array([np.linalg.norm(theta0[~space]) for space in spaces[:len(ms)]])
    fits = {}
    if len(ms) >= 2 and np.all(tails > 0):
        fits["tail_decay_exponent"] = float(np.polyfit(np.log(ms), np.log(tails), 1)[0])

    # members differ in m, so each runs on its own
    trajs = [run(replace(template, m=m)) for m in m_list]
    finals = [tr.final_state() for tr in trajs]
    metrics = {
        "final_l2": np.array([f.l2_norm() for f in finals]),
        "max_l2": np.array([tr.diagnostics["l2_theta"].max() for tr in trajs]),
    }
    pair_diffs = _consecutive_diffs([restrict(f, basis) for f in finals])
    return SweepReport("m", list(m_list), metrics, pair_diffs, fits)


def viscosity_sweep(template: SimConfig, eps_list: list[float]) -> SweepReport:
    """Vanishing-viscosity study at fixed m over a decreasing eps list; all
    members advance together as one batched state (galerkin.run_ensemble)."""
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps-list must be strictly decreasing")
    trajs = run_ensemble([replace(template, epsilon=e) for e in eps_list])
    basis = trajs[0].basis

    theta0_norm = float(np.linalg.norm(initial_data(template)))
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
    pair_diffs = _consecutive_diffs([tr.final_state() for tr in trajs])
    return SweepReport("epsilon", list(eps_list), metrics, pair_diffs)


def weak_continuity_terms(
    traj_eps: Trajectory,
    traj_ref: Trajectory,
    phi: Multiplier,
    delta: float,
    pad: float = 4.0,
) -> dict:
    """Six-term decomposition of twice the nonlinearity difference.

    Returns time-integrated I_1..I_6 over the matched snapshot times, their
    sum, and the directly computed 2 * (N(psi_eps) - N(psi_ref)).
    """
    alpha = traj_eps.config.alpha
    delta = _check_delta(alpha, delta)
    if len(traj_eps.times) != len(traj_ref.times) or not np.allclose(
        traj_eps.times, traj_ref.times
    ):
        raise ValueError("trajectories must share snapshot times")
    if traj_eps.basis.K != traj_ref.basis.K:
        raise ValueError("trajectories must share a basis")

    basis = traj_eps.basis
    big = padded_basis(basis, pad)
    grid = padded_grid(big)

    # psi = Lambda^{-alpha} theta of both runs as (2, n_t, K, K) squares on
    # their own band; the forms project onto the padded cutoff big.K
    jj, kk = basis.mode_arrays()
    n_t = len(traj_eps.times)
    psi = np.zeros((2, n_t, basis.K, basis.K))
    for sq, tr in zip(psi, (traj_eps, traj_ref)):
        m = tr.config.m
        sq[:, jj[:m] - 1, kk[:m] - 1] = basis.eigenvalues[:m] ** (-alpha / 2.0) * tr.snaps
    # the fields (d, e, r) = (psi_eps - psi_ref, psi_eps, psi_ref) bring
    # their factors once; each form pairs four (left, right) fields: two of
    # the six terms, then (e, e) and (r, r) for N(psi_eps) and N(psi_ref)
    d, e, r = 0, 1, 2
    v1, vs, vp = (np.empty((4, n_t)) for _ in range(3))
    # a block's _factors and pairings hold about (64 + 16 rank) K K' values
    # per snapshot (traced: 76-82 at rank 1, 110 at rank 3, K = 5 to 24), the
    # largest array a product's first stage of (3 fields, 3 powers, rank, K, K')
    rank = max(U.shape[1] for U, _ in _cross_factors(phi._grad_values, grid.N))
    block = max(1, FACTOR_VALUES // ((64 + 16 * rank) * basis.K * big.K))

    def pair(left, right, li, ri):
        return _pair([c[li] for c in left], [c[ri] for c in right])

    for b in range(0, n_t, block):
        pe, pr = psi[:, b:b + block]
        comm, perp, r0, (shift, plain) = _factors(
            np.stack([pe - pr, pe, pr]), phi, grid.N, big.K, alpha, delta)
        v1[:, b:b + block] = pair(comm, r0, [d, r, e, r], [e, d, e, r])
        vs[:, b:b + block] = pair(perp, shift, [d, r, e, r], [e, d, e, r])
        vp[:, b:b + block] = pair(perp, plain, [d, e, e, r], [r, d, e, r])
    terms = np.stack([v1[0], v1[1], -vs[0], -vs[1], -vp[0], -vp[1]], axis=1)
    n_eps, n_ref = 0.5 * (v1[2:] - vs[2:] - vp[2:])
    two_dn = 2.0 * (n_eps - n_ref)

    t = traj_eps.times
    out = {f"I{j + 1}": float(np.trapezoid(terms[:, j], t)) for j in range(6)}
    out["sum"] = float(np.trapezoid(terms.sum(axis=1), t))
    out["two_delta_n"] = float(np.trapezoid(two_dn, t))
    return out
