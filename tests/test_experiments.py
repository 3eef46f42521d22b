import numpy as np
import pytest
from dataclasses import replace

from gsqg.basis import (
    GridField,
    ModeIndex,
    QuadratureGrid,
    SpectralField,
    analyze,
    build_rectangle_basis,
    gradient,
    synthesize,
)
from gsqg.experiments import (
    SweepReport,
    mode_sweep,
    sine_window_test,
    viscosity_sweep,
    weak_continuity_terms,
    weak_residual,
)
from gsqg import experiments, verify
from gsqg.fractional import apply_lambda_power
from gsqg.galerkin import SimConfig, run, run_ensemble
from gsqg.snapshots import Snapshot, write_snapshot
from gsqg.weakform import test_function_catalog as catalog

from oracles import perp_gradient


@pytest.fixture
def viscous_config():
    return SimConfig(alpha=0.5, epsilon=0.01, m=16, dt=1e-3, T=0.25,
                     initial="random", seed=7, stride=1)


def test_space_time_window_vanishes_at_endpoints():
    st = sine_window_test(catalog()["quartic"], T=0.5)
    assert st.chi(0.0) == 0.0
    assert abs(st.chi(0.5)) < 1e-12
    # analytic derivative vs finite difference
    h = 1e-7
    for t in (0.1, 0.23, 0.4):
        fd = (st.chi(t + h) - st.chi(t - h)) / (2 * h)
        assert st.dchi(t) == pytest.approx(fd, abs=1e-6)


def test_weak_residual_steady_single_mode():
    cfg = SimConfig(alpha=0.5, epsilon=0.0, m=16, dt=1e-3, T=0.25,
                    initial="single_mode", stride=1)
    tr = run(cfg)
    st = sine_window_test(catalog()["sine_bump"], T=cfg.T)
    assert weak_residual(tr, st) < 1e-8


def test_weak_residual_dt_convergence(viscous_config):
    st = sine_window_test(catalog()["sine_bump"], T=viscous_config.T)
    residuals = []
    for dt in (1e-3, 5e-4):
        tr = run(replace(viscous_config, dt=dt))
        residuals.append(weak_residual(tr, st))
    assert residuals[0] < 1e-5
    assert residuals[0] / residuals[1] > 4.0  # order >= 2


def test_off_grid_t_final_is_refused_before_the_residual_window_slips(viscous_config):
    # a run ends at round(T / dt) steps, so an off-grid T used to end the
    # trajectory at t = 0.25 while the test window ended at T: the residual
    # read 9.2e-10 at T = 0.2504 and 9.3e-10 at T = 0.2496, against 4.7e-12
    st = sine_window_test(catalog()["sine_bump"], T=viscous_config.T)
    assert weak_residual(run(viscous_config), st) < 1e-11
    for T in (0.2504, 0.2496):
        with pytest.raises(ValueError, match=r"T \(t_final\) = .* dt = 0.001"):
            replace(viscous_config, T=T)


def test_weak_residual_epsilon_term_linear(viscous_config):
    # the residual of an inviscid-identity evaluation of a viscous run
    # isolates the eps term, so it scales linearly in eps
    st = sine_window_test(catalog()["sine_bump"], T=viscous_config.T)
    gaps = []
    for eps in (1e-3, 5e-4):
        tr = run(replace(viscous_config, epsilon=eps))
        r_full = weak_residual(tr, st)
        fake = replace(tr, config=replace(tr.config, epsilon=0.0))
        gaps.append(weak_residual(fake, st) - r_full)
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.05)


def _weak_residual_per_snapshot(traj, st):
    """weak_residual one snapshot at a time through the public transforms:
    the residual and its integrand over the snapshot times."""
    cfg = traj.config
    basis = traj.basis
    m = cfg.m
    lam = basis.eigenvalues[:m]
    grid = QuadratureGrid(3 * basis.K)
    v = analyze(GridField(grid, st.spatial.on(grid)), basis).coeffs[:m]
    phi_m = np.zeros(basis.size)
    phi_m[:m] = v
    gphi = gradient(SpectralField(basis, phi_m), grid).values
    integrand = np.empty(len(traj.times))
    for i, t in enumerate(traj.times):
        th = traj.snaps[i]
        a = float(np.dot(th, v)) * st.dchi(float(t))
        tf = traj.state_at(i)
        u = perp_gradient(apply_lambda_power(tf, -cfg.alpha), grid)
        th_grid = synthesize(tf, grid).values
        transport = float(
            grid.weight * np.sum(th_grid * (u.values[0] * gphi[0] + u.values[1] * gphi[1]))
        )
        visc = -cfg.epsilon * float(np.sum(lam * th * v))
        integrand[i] = a + (transport + visc) * st.chi(float(t))
    return float(abs(np.trapezoid(integrand, traj.times))), integrand


@pytest.mark.parametrize("m, name", [
    # both sides of GRID_MIN_M and every catalog test function; an id names
    # the function unless it is sine_bump, the one the verify check uses
    pytest.param(m, name, id=str(m) if name == "sine_bump" else f"{m}-{name}")
    for m in (16, 20, 40, 64) for name in sorted(catalog())
])
@pytest.mark.parametrize("alpha", (0.3, 0.5, 0.7))
@pytest.mark.parametrize("shift_eps", (False, True))
def test_weak_residual_equals_per_snapshot_oracle(viscous_config, m, name, alpha, shift_eps):
    cfg = replace(viscous_config, m=m, alpha=alpha, epsilon=1e-3, stride=1 if m == 16 else 7)
    tr = run(cfg)
    if shift_eps:
        # evaluated with the inviscid identity: a residual of size eps
        tr = replace(tr, config=replace(tr.config, epsilon=0.0))
    st = sine_window_test(catalog()[name], T=cfg.T)
    expect, integrand = _weak_residual_per_snapshot(tr, st)
    got = weak_residual(tr, st)
    assert abs(got - expect) <= 1e-13 * max(1.0, float(np.abs(integrand).sum()))
    if shift_eps:
        assert expect > 1e-6


def test_weak_residual_rejects_mismatched_window(viscous_config):
    tr = run(viscous_config)
    st = sine_window_test(catalog()["sine_bump"], T=1.0)
    with pytest.raises(ValueError, match="does not match"):
        weak_residual(tr, st)


def test_weak_residual_rejects_coarse_stride(viscous_config):
    tr = run(replace(viscous_config, stride=50))
    st = sine_window_test(catalog()["sine_bump"], T=viscous_config.T)
    with pytest.raises(ValueError, match="stride"):
        weak_residual(tr, st)


def test_mode_sweep_band_limited_datum():
    # datum whose dynamics stays inside the smallest band (a single mode is
    # steady up to viscous decay): all runs integrate identical projections
    tpl = SimConfig(alpha=0.5, epsilon=0.01, m=8, dt=1e-3, T=0.1,
                    initial="single_mode", stride=10)
    rep = mode_sweep(tpl, [8, 16, 32])
    for diffs in rep.pair_diffs.values():
        assert np.all(diffs < 1e-8)


def test_mode_sweep_rough_datum_cauchy_trend():
    tpl = SimConfig(alpha=0.5, epsilon=0.01, m=16, dt=1e-3, T=0.25,
                    initial="random_rough", seed=9, stride=10)
    rep = mode_sweep(tpl, [16, 32, 64])
    diffs = rep.pair_diffs["dneg_1.0"]
    assert np.all(np.diff(diffs) < 0)
    assert "tail_decay_exponent" in rep.fits


def test_mode_sweep_requires_increasing_list():
    tpl = SimConfig(m=16)
    with pytest.raises(ValueError, match="increasing"):
        mode_sweep(tpl, [16, 16, 32])


def test_mode_sweep_members_equal_their_solo_runs():
    tpl = SimConfig(alpha=0.5, epsilon=0.01, m=16, dt=1e-3, T=0.25,
                    initial="random_rough", seed=9, stride=10)
    rep = mode_sweep(tpl, [16, 32, 64])
    for i, m in enumerate([16, 32, 64]):
        solo = run(replace(tpl, m=m))
        assert rep.metrics["final_l2"][i] == solo.final_state().l2_norm(), m
        assert rep.metrics["max_l2"][i] == solo.diagnostics["l2_theta"].max(), m


def test_mode_sweep_refuses_spaces_that_are_not_nested_before_any_run(monkeypatch):
    # V_16 holds (4, 4), lambda = 32; V_17 stops at lambda = 26
    def no_run(*args, **kwargs):
        raise AssertionError("mode_sweep ran a member before refusing the list")

    monkeypatch.setattr(experiments, "run", no_run)
    with pytest.raises(ValueError, match="not nested: m=16 .* m=17"):
        mode_sweep(SimConfig(m=16), [16, 17])


def test_mode_sweep_from_a_snapshot_maps_each_member_by_mode(tmp_path):
    # an m = 64 snapshot holding only mode (1, 5), index 15 of the K = 8
    # order: V_16 (the K = 4 square) lacks it, V_32 and V_64 hold it
    coeffs = np.zeros(64)
    coeffs[build_rectangle_basis(8).modes.index(ModeIndex(1, 5))] = 1.0
    path = tmp_path / "s64.bin"
    write_snapshot(path, Snapshot(64, 0.5, 0.0, 0.0, coeffs))
    tpl = SimConfig(alpha=0.5, epsilon=0.01, m=16, dt=1e-3, T=0.01,
                    initial=f"file:{path}", stride=10)
    rep = mode_sweep(tpl, [16, 32, 64])
    assert rep.metrics["max_l2"][0] == 0.0
    assert np.all(rep.metrics["max_l2"][1:] > 0.5)


def test_viscosity_sweep_uniform_bound():
    tpl = SimConfig(alpha=0.5, m=16, dt=1e-3, T=0.5, initial="random",
                    seed=10, stride=10)
    rep = viscosity_sweep(tpl, [1e-1, 1e-2, 1e-3])
    assert np.all(rep.metrics["uni_tt_margin"] <= 1.0 + 1e-8)
    assert np.all(np.isfinite(rep.metrics["dt_surrogate_hm4"]))


def test_viscosity_sweep_ignores_gsqg_threads(monkeypatch):
    tpl = SimConfig(alpha=0.5, m=16, dt=1e-3, T=0.1, initial="random", seed=10, stride=10)
    eps = [1e-1, 1e-2, 1e-3]
    monkeypatch.delenv("GSQG_THREADS", raising=False)
    base = viscosity_sweep(tpl, eps)
    monkeypatch.setenv("GSQG_THREADS", "4")
    other = viscosity_sweep(tpl, eps)
    for name in ("metrics", "pair_diffs"):
        a, b = getattr(base, name), getattr(other, name)
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)


def test_viscosity_sweep_refuses_an_unstable_member():
    tpl = SimConfig(alpha=0.5, m=64, dt=1e-2, T=0.1, initial="random")
    with pytest.raises(ValueError, match="epsilon=3.0, dt=0.01"):
        viscosity_sweep(tpl, [3.0, 1.0, 0.1])


def test_viscosity_sweep_requires_decreasing_list():
    with pytest.raises(ValueError, match="decreasing"):
        viscosity_sweep(SimConfig(m=16), [1e-3, 1e-2])


def test_sweep_report_validates_monotone_parameters():
    with pytest.raises(ValueError, match="monotone"):
        SweepReport("m", [1, 3, 2], {}, {})
    with pytest.raises(ValueError, match="non-finite"):
        SweepReport("m", [1, 2], {"bad": np.array([1.0, np.nan])}, {})


def test_weak_continuity_identical_trajectories():
    cfg = SimConfig(alpha=0.4, m=20, dt=1e-3, T=0.05, epsilon=1e-2,
                    initial="random", seed=5, stride=5)
    tr = run(cfg)
    out = weak_continuity_terms(tr, tr, catalog()["sine_bump"], delta=0.15)
    for j in range(1, 7):
        assert abs(out[f"I{j}"]) < 1e-14


def test_weak_continuity_sum_identity():
    cfg = SimConfig(alpha=0.4, m=20, dt=1e-3, T=0.05, initial="random",
                    seed=5, stride=5)
    tr_e = run(replace(cfg, epsilon=1e-2))
    tr_r = run(replace(cfg, epsilon=1e-3))
    out = weak_continuity_terms(tr_e, tr_r, catalog()["sine_bump"], delta=0.15)
    scale = max(1.0, sum(abs(out[f"I{j}"]) for j in range(1, 7)))
    assert abs(out["sum"] - out["two_delta_n"]) < 1e-8 * scale


def test_weak_continuity_terms_shrink_with_closer_pairs():
    cfg = SimConfig(alpha=0.4, m=20, dt=1e-3, T=0.05, initial="random",
                    seed=5, stride=5)
    tr_ref = run(replace(cfg, epsilon=1e-4))
    far = run(replace(cfg, epsilon=1e-1))
    near = run(replace(cfg, epsilon=1e-3))
    phi = catalog()["sine_bump"]
    out_far = weak_continuity_terms(far, tr_ref, phi, delta=0.15)
    out_near = weak_continuity_terms(near, tr_ref, phi, delta=0.15)
    for j in range(1, 7):
        assert abs(out_near[f"I{j}"]) < abs(out_far[f"I{j}"])


def test_weak_continuity_rejects_bad_delta():
    cfg = SimConfig(alpha=0.4, m=10, dt=1e-3, T=0.02, initial="random", stride=5)
    tr = run(cfg)
    with pytest.raises(ValueError, match="delta"):
        weak_continuity_terms(tr, tr, catalog()["quartic"], delta=0.5)


def test_weak_continuity_refuses_alpha_outside_the_weak_regime():
    # SimConfig accepts alpha in [1, 2] with a warning; the commutator forms
    # need alpha in (0, 1) and say so before any delta is checked
    with pytest.warns(UserWarning, match="alpha=1.2"):
        cfg = SimConfig(alpha=1.2, m=10, dt=1e-3, T=0.02, initial="random", stride=5)
    tr = run(cfg)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\), got 1.2"):
        weak_continuity_terms(tr, tr, catalog()["quartic"], delta=0.1)


def test_weak_continuity_refuses_trajectories_of_different_alpha():
    # psi = Lambda^{-alpha} theta and the forms take one alpha: runs of 0.4
    # and 0.6 paired under 0.4 gave a number that belonged to neither
    cfg = SimConfig(alpha=0.4, m=10, dt=1e-3, T=0.02, initial="random", stride=5)
    tr_e, tr_r = run(cfg), run(replace(cfg, alpha=0.6))
    for a, b in ((tr_e, tr_r), (tr_r, tr_e)):
        with pytest.raises(ValueError, match=rf"share alpha, got {a.config.alpha} and "
                                             rf"{b.config.alpha}"):
            weak_continuity_terms(a, b, catalog()["quartic"], delta=0.1)


def test_check_weak_continuity_runs_one_ensemble(monkeypatch):
    calls = []

    def counting(configs):
        calls.append([c.epsilon for c in configs])
        return run_ensemble(configs)

    def no_run(*args, **kwargs):
        raise AssertionError("check_weak_continuity called run")

    monkeypatch.setattr(verify, "run_ensemble", counting)
    monkeypatch.setattr(verify, "run", no_run)
    res = verify.check_weak_continuity()
    assert calls == [[1e-1, 1e-2, 1e-3]]

    # the observed value of one run per (pair, member), as computed before
    phi = catalog()["sine_bump"]
    cfg = SimConfig(alpha=0.4, m=20, dt=1e-3, T=0.05, initial="random", seed=8, stride=5)
    worst = 0.0
    for e_hi, e_lo in ((1e-1, 1e-2), (1e-2, 1e-3)):
        tr_e = run(replace(cfg, epsilon=e_hi))
        tr_r = run(replace(cfg, epsilon=e_lo))
        out = weak_continuity_terms(tr_e, tr_r, phi, delta=0.15)
        scale = max(1.0, sum(abs(out[f"I{j}"]) for j in range(1, 7)))
        worst = max(worst, abs(out["sum"] - out["two_delta_n"]) / scale)
    assert res.passed and res.observed == worst
