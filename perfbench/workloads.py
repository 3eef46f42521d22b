"""The four benchmark workloads: one op each, and the checks on its output.

Each workload is one client in one process running ops as a closed loop.
An op reaches gsqg only through its public functions and gsqg.cli.main; the
check after it reads the op's output back and applies tolerances at least as
tight as the repository's own.  A check returns a list of problems, empty
when the output is correct.
"""

from __future__ import annotations

import csv
import math
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

import inputs

# Tolerances, each at least as tight as the repository's own.
BALANCE_TOL = 1e-6  # verify viscous_balances
L2_GROWTH_TOL = 1e-8  # verify uniform_l2
IDENTITY_TOL = 1e-4  # verify representation_identity
N2_ALT_TOL = 1e-6  # verify representation_equivalence
# tensor RK4 against the benchmark's grid-product RK4: the two
# nonlinearities agree to ~1e-12 per evaluation over 800 evaluations
REFERENCE_TOL = 1e-9


class Workload:
    """Inputs, op and output check of one workload; `work` is a scratch dir."""

    name = ""
    pool = 64  # distinct op inputs made per run; ops cycle through them
    trace_ops = 1  # ops in the traced phase, fixed so counts repeat exactly

    def __init__(self, gsqg, seed: int, work: Path):
        self.gsqg = gsqg
        self.work = work
        self.warmup_input, self.op_inputs = inputs.make_inputs(self.name, seed, self.pool)

    def prepare(self, item, tag: str):
        """Turn one generated input into op arguments (outside the timed op)."""
        return item

    def op(self, arg, tag: str):
        raise NotImplementedError

    def check(self, arg, result) -> list[str]:
        raise NotImplementedError

    def discard(self, tag: str):
        """Delete what op `tag` wrote."""
        shutil.rmtree(self.work / tag, ignore_errors=True)

    def run_check(self, tag: str) -> list[str]:
        """Once per run, outside the timed region; tag names a kept op."""
        return []

    def counters(self, result) -> dict:
        """Per-op counts read from an op's result, for the traced run."""
        return {}

    def probe_state(self, tag: str):
        """(SimConfig, Galerkin state) from kept op `tag` for the RHS probes,
        or None where the workload runs no Galerkin trajectory."""
        return None


class _CliWorkload(Workload):
    def prepare(self, item: str, tag: str):
        d = self.work / tag
        d.mkdir(parents=True, exist_ok=True)
        (d / "run.ini").write_text(item)
        return d

    def _main(self, argv) -> None:
        rc = self.gsqg.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"gsqg {argv[0]} exited with {rc}")


class SimulateM256(_CliWorkload):
    name = "simulate_m256"
    pool = 48
    trace_ops = 6
    n_snapshots = 21  # t_final / dt / stride + 1

    def op(self, d: Path, tag: str):
        self._main(["simulate", "--config", str(d / "run.ini"), "--out", str(d / "out")])
        return d / "out"

    def check(self, d: Path, out: Path) -> list[str]:
        problems = []
        cfg = self.gsqg.cli.load_config(d / "run.ini")
        snaps = sorted(out.glob("snapshot_*.bin"))
        if len(snaps) != self.n_snapshots:
            problems.append(f"{len(snaps)} snapshots, expected {self.n_snapshots}")
        for p in snaps:
            s = self.gsqg.snapshots.read_snapshot(p)
            if s.m != cfg.m or not np.all(np.isfinite(s.coeffs)):
                problems.append(f"{p.name}: m={s.m} or non-finite coefficients")
        rows = _read_csv(out / "diagnostics.csv")
        if len(rows) != self.n_snapshots:
            problems.append(f"diagnostics.csv has {len(rows)} rows")
        for key in ("energy_residual", "hamiltonian_residual"):
            worst = max((abs(r[key]) for r in rows), default=math.inf)
            if not worst <= BALANCE_TOL:
                problems.append(f"max |{key}| = {worst:.3e} > {BALANCE_TOL:.0e}")
        l2 = [r["l2_theta"] for r in rows]
        if not l2 or not max(l2) <= l2[0] * (1.0 + L2_GROWTH_TOL):
            problems.append("L2 norm grew above L2_0 (1 + 1e-8)")
        return problems

    def run_check(self, tag: str) -> list[str]:
        """Final state of op `tag` against an RK4 loop on grid products."""
        g = self.gsqg
        d = self.work / tag
        cfg = g.cli.load_config(d / "run.ini")
        snaps = sorted((d / "out").glob("snapshot_*.bin"))
        theta = g.snapshots.read_snapshot(snaps[0]).coeffs
        final = g.snapshots.read_snapshot(snaps[-1]).coeffs
        f = grid_rhs(g, g.build_rectangle_basis(cfg.basis_cutoff()), cfg)
        dt = cfg.dt
        for _ in range(int(round(cfg.T / dt))):
            k1 = f(theta)
            k2 = f(theta + 0.5 * dt * k1)
            k3 = f(theta + 0.5 * dt * k2)
            k4 = f(theta + dt * k3)
            theta = theta + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        err = float(np.abs(theta - final).max())
        scale = max(1.0, float(np.abs(final).max()))
        if not err <= REFERENCE_TOL * scale:
            return [f"final state differs from grid-product RK4 by {err:.3e}"]
        return []

    def probe_state(self, tag: str):
        d = self.work / tag
        final = sorted((d / "out").glob("snapshot_*.bin"))[-1]
        return (self.gsqg.cli.load_config(d / "run.ini"),
                self.gsqg.snapshots.read_snapshot(final).coeffs)


class SweepViscM64(_CliWorkload):
    name = "sweep_visc_m64"
    pool = 64
    trace_ops = 8
    values = ",".join(repr(e) for e in inputs.SWEEP_EPSILONS)

    def op(self, d: Path, tag: str):
        self._main(["sweep", "viscosity", "--config", str(d / "run.ini"),
                    "--values", self.values, "--out", str(d / "out")])
        return d / "out" / "sweep_viscosity.csv"

    def check(self, d: Path, path: Path) -> list[str]:
        rows = _read_csv(path)
        problems = []
        if [r["epsilon"] for r in rows] != list(inputs.SWEEP_EPSILONS):
            problems.append("epsilon column does not match the swept values")
        for i, r in enumerate(rows):
            # pair differences cover consecutive pairs; the last row pads them with nan
            bad = [k for k, v in r.items()
                   if not math.isfinite(v) and not (i == len(rows) - 1 and k.startswith("dneg_"))]
            if bad:
                problems.append(f"row {i}: non-finite {bad}")
            if not r["uni_tt_margin"] <= 1.0 + L2_GROWTH_TOL:
                problems.append(f"row {i}: uni_tt_margin {r['uni_tt_margin']!r} > 1 + 1e-8")
        return problems

    def probe_state(self, tag: str):
        """The final state at the sweep's largest viscosity."""
        cfg = self.gsqg.cli.load_config(self.work / tag / "run.ini")
        cfg = replace(cfg, epsilon=inputs.SWEEP_EPSILONS[0])
        return cfg, self.gsqg.run(cfg).snaps[-1]


class WeakformK24(Workload):
    name = "weakform_k24"
    pool = 256
    trace_ops = 90

    def __init__(self, gsqg, seed, work):
        super().__init__(gsqg, seed, work)
        self.catalog = gsqg.test_function_catalog()

    def discard(self, tag: str):
        pass

    def op(self, item: inputs.WeakInput, tag: str):
        g = self.gsqg
        theta = g.SpectralField(g.build_rectangle_basis(inputs.WEAK_K), item.coeffs)
        phi = self.catalog[item.phi]
        psi = g.apply_lambda_power(theta, -item.alpha)
        total = g.n_total(psi, phi, item.alpha)
        alt = g.n2_alt(psi, phi, item.alpha)
        classical = g.classical_transport(theta, item.alpha, phi)
        return total, alt, classical

    def check(self, item, result) -> list[str]:
        total, alt, classical = result
        problems = []
        err = abs(total.n_total - classical)
        if not err <= IDENTITY_TOL * max(1.0, abs(classical)):
            problems.append(f"|n_total - classical| = {err:.3e}")
        err = abs(alt - total.n2)
        if not err <= N2_ALT_TOL * max(1.0, abs(total.n2)):
            problems.append(f"|n2_alt - n2| = {err:.3e}")
        return problems


class VerifyQuick(Workload):
    name = "verify_quick"
    pool = 1
    trace_ops = 6
    n_checks = 10

    def discard(self, tag: str):
        pass

    def op(self, item, tag: str):
        return self.gsqg.run_suite("quick")

    def counters(self, results) -> dict:
        return {"verify.checks_failed": sum(not r.passed for r in results or ())}

    def check(self, item, results) -> list[str]:
        problems = [f"check {r.name} failed: {r.detail}" for r in results if not r.passed]
        if len(results) != self.n_checks:
            problems.append(f"{len(results)} checks ran, expected {self.n_checks}")
        return problems


WORKLOADS = {w.name: w for w in (SimulateM256, SweepViscM64, WeakformK24, VerifyQuick)}


def grid_rhs(gsqg, basis, cfg):
    """theta -> -N(theta) - eps lambda theta, the right-hand side of
    galerkin.rhs with the nonlinearity by grid products
    (galerkin.nonlinear_term_grid) instead of the tensor."""
    lam = basis.eigenvalues[: cfg.m]
    full = np.zeros(basis.size)

    def f(theta):
        full[: cfg.m] = theta
        nl = gsqg.galerkin.nonlinear_term_grid(gsqg.SpectralField(basis, full), cfg.m, cfg.alpha)
        return -nl - cfg.epsilon * lam * theta

    return f


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
