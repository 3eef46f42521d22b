"""Property verification suite: structural identities and conservation checks.

Each check returns a CheckResult with the observed quantity, its tolerance
and a human-readable detail line.  run_suite("quick") keeps every check at
small scale; run_suite("full") runs the acceptance-scale versions plus the
delta limits of n2_alt's two terms and the padding-convergence and
sweep-trend studies.

The checks are independent and seeded, so run_suite runs them on every CPU
the process may use: the caller and one forked worker per further CPU
(os.sched_getaffinity, at most one process per check) each claim the next
check from a shared job pipe until none is left, and each worker sends its
results back through a pipe of its own.  Forking, not spawning, lets a
worker start from the caller's imports and caches.  `taskset -c 0 gsqg
verify` runs every check in one process, as does a platform without
os.fork or os.sched_getaffinity; the results are the same either way,
except for the elapsed times.  In a warm process on a shared 2-core VM
(one BLAS thread), run_suite takes 79-82 ms at quick and 170-210 ms at
full on both CPUs, against 113-132 and 297-344 ms in one process.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import time
import warnings
from contextlib import suppress
from dataclasses import dataclass, replace

import numpy as np

from .basis import SpectralField, build_rectangle_basis, cutoff_for
from .commutators import (
    comm_lambda_mult,
    comm_neg_lambda_mult,
    monitor_bounds,
    multiplier_catalog,
)
from .experiments import (
    mode_sweep,
    sine_window_test,
    viscosity_sweep,
    weak_continuity_terms,
    weak_residual,
)
from .fractional import (
    apply_lambda_power,
    default_heat_rule,
    lambda_neg_power_heat,
    lambda_pos_power_heat,
)
from .galerkin import (
    GalerkinTensor, GridProducts, SimConfig, assemble_tensor, run, run_ensemble,
)
from .weakform import _values, classical_transport, n2, n2_alt, n_total, test_function_catalog


@dataclass
class CheckResult:
    name: str
    passed: bool
    observed: float
    tolerance: float
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name:<28s} observed={self.observed:<12.4e} "
            f"tol={self.tolerance:<10.1e} [{self.elapsed:6.2f}s] {self.detail}"
        )


def _timed(fn):
    def wrapper(*args, **kwargs) -> CheckResult:
        t0 = time.perf_counter()
        name, passed, observed, tol, detail = fn(*args, **kwargs)
        return CheckResult(name, passed, observed, tol, detail, time.perf_counter() - t0)

    return wrapper


def _random_field(basis, seed=0, m=None):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(basis.size)
    n = basis.size if m is None else m
    coeffs[:n] = rng.standard_normal(n)
    coeffs /= np.linalg.norm(coeffs)
    return SpectralField(basis, coeffs)


def _coalesce(m: int, *triples):
    """Sorted unique flat keys (j m + k) m + l of sparse (j, k, l, vals)
    triples and their summed values (repeats add, as in the contraction).
    bincount sums each key's values in entry order, as np.add.at does on the
    dense array; a pairwise np.add.reduceat over sorted values would not."""
    keys = np.concatenate(
        [(j.astype(np.int64) * m + k) * m + l for j, k, l, _ in triples]
    )
    uniq, inv = np.unique(keys, return_inverse=True)
    vals = np.concatenate([v for *_, v in triples])
    return uniq, np.bincount(inv, weights=vals, minlength=len(uniq))


def _antisymmetry(t: GalerkinTensor):
    """max |gamma_jkl + gamma_jlk|, max |gamma_jjl| and the first (j, k, l) in
    C order of the largest defect, repeated entries summed, without an m^3
    dense copy: t's coalesced entries summed under their pair key
    (j, min(k, l), max(k, l)), the pair's first key in C order.  An entry
    with k == l is its own transpose, so it counts twice."""
    m = t.m
    keys, vals = _coalesce(m, (t.j, t.k, t.l, t.vals))
    j, k, l = np.unravel_index(keys, (m, m, m))
    # a zero at key 0 stands for the dense array's first entry, where a
    # defect-free tensor's first maximum sits
    origin = (np.zeros(1, np.int64),) * 3 + (np.zeros(1),)
    pairs = (j, np.minimum(k, l), np.maximum(k, l), np.where(k == l, 2 * vals, vals))
    anti_keys, anti = _coalesce(m, origin, pairs)
    at = int(np.abs(anti).argmax())
    worst = tuple(int(i) for i in np.unravel_index(anti_keys[at], (m, m, m)))
    return abs(float(anti[at])), float(np.abs(vals[j == k]).max(initial=0.0)), worst


@_timed
def check_tensor_structure(m: int = 100, tensor: GalerkinTensor | None = None):
    """The tensor under test, a saved one or by default the one GridProducts
    builds at m (runs evaluate it from GRID_MIN_M on), and the closed form at
    its m and alpha: both antisymmetric, diagonal-free, and equal."""
    tol = 1e-12
    t = tensor or GridProducts(build_rectangle_basis(cutoff_for(m)), m, 0.5).tensor()
    m = t.m
    closed = assemble_tensor(build_rectangle_basis(cutoff_for(m)), m, t.alpha)
    (anti, diag, worst), (closed_anti, closed_diag, _) = map(_antisymmetry, (t, closed))
    _, diff = _coalesce(m, (t.j, t.k, t.l, t.vals),
                        (closed.j, closed.k, closed.l, -closed.vals))
    agree = float(np.abs(diff).max(initial=0.0))
    observed = max(anti, diag, closed_anti, closed_diag, agree)
    detail = (f"m={m} alpha={t.alpha} anti={anti:.1e} diag={diag:.1e} closed form: "
              f"diff={agree:.1e} anti={closed_anti:.1e} diag={closed_diag:.1e}; "
              f"worst antisymmetry entry (j,k,l)={worst}")
    return "tensor_structure", observed < tol, observed, tol, detail


@_timed
def check_inviscid_conservation(m: int = 64, T: float = 1.0):
    """Relative drift of the L2 norm and the stream-function energy at eps=0."""
    tol = 1e-8
    cfg = SimConfig(alpha=0.5, epsilon=0.0, m=m, dt=1e-3, T=T,
                    initial="random", seed=1, stride=100)
    tr = run(cfg)
    l2 = tr.diagnostics["l2_theta"]
    ham = tr.diagnostics["hdot_psi"]
    observed = max(
        float(np.abs(l2 / l2[0] - 1.0).max()), float(np.abs(ham / ham[0] - 1.0).max())
    )
    detail = f"m={m} T={T} dt=1e-3"
    return "inviscid_conservation", observed < tol, observed, tol, detail


@_timed
def check_viscous_balances(m: int = 64, T: float = 1.0):
    """Energy and Hamiltonian identity residuals, order >= 2 under dt halving."""
    tol = 1e-6
    residuals = []
    for dt in (1e-3, 5e-4):
        cfg = SimConfig(alpha=0.5, epsilon=0.01, m=m, dt=dt, T=T,
                        initial="random", seed=1, stride=100)
        tr = run(cfg)
        residuals.append(max(
            float(np.abs(tr.diagnostics["energy_residual"]).max()),
            float(np.abs(tr.diagnostics["hamiltonian_residual"]).max()),
        ))
    floor = 1e-13  # below this both residuals sit in rounding noise
    order = (
        math.log2(residuals[0] / residuals[1]) if residuals[1] > floor else np.inf
    )
    passed = residuals[0] < tol and order >= 2.0
    detail = f"residuals={residuals[0]:.1e},{residuals[1]:.1e} order={order:.2f}"
    return "viscous_balances", passed, residuals[0], tol, detail


@_timed
def check_heat_oracles():
    """Heat-kernel quadrature vs diagonal fractional powers, monotone in nodes."""
    tol = 1e-6
    basis = build_rectangle_basis(8)
    f = _random_field(basis, seed=2)
    worst = 0.0
    monotone = True
    cases = [(s, "neg") for s in (0.3, 0.5, 1.0, 1.5)] + [
        (s, "pos") for s in (0.3, 0.5, 1.0)
    ]
    for s, sign in cases:
        op = lambda_neg_power_heat if sign == "neg" else lambda_pos_power_heat
        exact = apply_lambda_power(f, -s if sign == "neg" else s)
        errs = []
        for n_nodes in (129, 257, 513):
            rule = replace(default_heat_rule(basis), n_nodes=n_nodes)
            got = op(f, s, rule)
            errs.append(
                float(np.linalg.norm(got.coeffs - exact.coeffs))
                / float(np.linalg.norm(exact.coeffs))
            )
        worst = max(worst, errs[-1])
        monotone = monotone and errs[0] > errs[1] > errs[2]
    passed = worst < tol and monotone
    detail = f"worst rel err={worst:.1e} monotone={monotone}"
    return "heat_oracles", passed, worst, tol, detail


@_timed
def check_representation_identity(level: str = "quick"):
    """Classical transport integral vs commutator weak form at padding 4."""
    alphas = (0.3, 0.5, 0.7) if level == "full" else (0.5,)
    phis = test_function_catalog()
    names = list(phis) if level == "full" else ["sine_bump"]
    pads = (2.0, 4.0, 8.0) if level == "full" else (2.0, 4.0)
    basis = build_rectangle_basis(6)
    theta = _random_field(basis, seed=3, m=32)
    worst_ratio = 0.0
    refinement_ok = True
    for alpha in alphas:
        psi = apply_lambda_power(theta, -alpha)
        for name in names:
            phi = phis[name]
            ct = classical_transport(theta, alpha, phi)
            errs = [
                abs(ct - n_total(psi, phi, alpha, pad=p).n_total) for p in pads
            ]
            scale = max(1.0, abs(ct))
            i4 = pads.index(4.0)
            worst_ratio = max(worst_ratio, errs[i4] / scale)
            # band-limited test functions plateau at roundoff once the
            # padding covers their band; require decrease above that floor
            floor = 1e-7
            refinement_ok = refinement_ok and all(
                a >= b or b < floor for a, b in zip(errs, errs[1:])
            )
    tol = 1e-4
    passed = worst_ratio < tol and refinement_ok
    detail = f"alphas={alphas} phis={names} refining={refinement_ok}"
    return "representation_identity", passed, worst_ratio, tol, detail


@_timed
def check_representation_equivalence():
    """The delta-shifted two-term form reproduces n2 for several deltas."""
    tol = 1e-6
    basis = build_rectangle_basis(6)
    alpha = 0.5
    theta = _random_field(basis, seed=4, m=32)
    psi = apply_lambda_power(theta, -alpha)
    phi = test_function_catalog()["skew_bump"]
    base = n2(psi, phi, alpha)
    scale = max(1.0, abs(base))
    alts = [n2_alt(psi, phi, alpha, d) for d in (0.1, 0.2, 0.25)]
    observed = max(
        max(abs(a - base) for a in alts), max(alts) - min(alts)
    ) / scale
    detail = f"n2={base:.4e} deltas=(0.1,0.2,0.25)"
    return "representation_equivalence", observed < tol, observed, tol, detail


@_timed
def check_delta_limits():
    """n2_alt's two terms vanish linearly at the ends of the delta range, as
    [Lambda^0, a] = 0: plain(delta)/delta and shift(delta)/(alpha - delta)
    settle as delta -> 0 and delta -> alpha.  Their sum is n2 whatever the
    delta power of the factors, so only their limits see it."""
    tol = 0.1  # spreads <= 2.9% over alpha, test functions and seeds
    basis = build_rectangle_basis(6)
    alpha = 0.5  # the shift ladder needs alpha <= 1/2: delta < min(alpha, 1 - alpha)
    psi = apply_lambda_power(_random_field(basis, seed=4, m=32), -alpha)
    phi = test_function_catalog()["skew_bump"]
    ladder = (0.1, 0.05, 0.025, 0.0125)
    plain = [_values(psi, phi, alpha, d, 4.0, ("plain",))[0] / d for d in ladder]
    shift = [_values(psi, phi, alpha, alpha - d, 4.0, ("shift",))[0] / d for d in ladder]
    spreads = [float(np.ptp(v) / np.abs(v).max()) for v in (plain, shift)]
    detail = (f"relative spread over {ladder}: plain/delta={spreads[0]:.1e} "
              f"shift/(alpha-delta)={spreads[1]:.1e}")
    return "delta_limits", max(spreads) < tol, max(spreads), tol, detail


@_timed
def check_adjoint_identity():
    """Lambda^{-s}[Lambda^s,a]f agrees with [a,Lambda^{-s}]Lambda^s f."""
    tol = 1e-8
    basis = build_rectangle_basis(6)
    f = _random_field(basis, seed=5)
    worst = 0.0
    for s in (0.3, 0.7):
        lam_f = apply_lambda_power(f, s)
        for a in multiplier_catalog().values():
            lhs = apply_lambda_power(comm_lambda_mult(a, f, s), -s)
            rhs = comm_neg_lambda_mult(a, lam_f, s)
            # [a, L^{-s}] = -[L^{-s}, a]
            worst = max(worst, float(np.linalg.norm(lhs.coeffs + rhs.coeffs)))
    observed = worst / float(np.linalg.norm(f.coeffs))
    detail = "s in {0.3, 0.7}, all catalog multipliers"
    return "adjoint_identity", observed < tol, observed, tol, detail


@_timed
def check_uniform_l2():
    """Every viscous trajectory stays inside the initial L2 sphere."""
    tol = 1.0 + 1e-8
    tpl = SimConfig(alpha=0.5, m=16, dt=1e-3, T=0.5,
                    initial="random", seed=6, stride=10)
    rep = viscosity_sweep(tpl, [1e-1, 1e-2, 1e-3])
    observed = float(rep.metrics["uni_tt_margin"].max())
    detail = "eps in {1e-1, 1e-2, 1e-3}, m=16"
    return "uniform_l2", observed <= tol, observed, tol, detail


@_timed
def check_weak_residual():
    """Space-time weak-form residual small and order >= 2 under dt halving."""
    tol = 1e-5
    phi = test_function_catalog()["sine_bump"]
    residuals = []
    for dt in (2.5e-4, 1.25e-4):
        cfg = SimConfig(alpha=0.5, m=16, dt=dt, T=0.25, epsilon=0.01,
                        initial="random", seed=7, stride=1)
        tr = run(cfg)
        residuals.append(weak_residual(tr, sine_window_test(phi, cfg.T)))
    floor = 1e-14  # below this both residuals sit in rounding noise
    order = (
        math.log2(residuals[0] / residuals[1]) if residuals[1] > floor else np.inf
    )
    passed = residuals[0] < tol and order >= 2.0
    detail = f"residuals={residuals[0]:.1e},{residuals[1]:.1e} order={order}"
    return "weak_residual", passed, residuals[0], tol, detail


@_timed
def check_weak_continuity():
    """Six-term decomposition sums to twice the nonlinearity difference."""
    tol = 1e-8
    phi = test_function_catalog()["sine_bump"]
    cfg = SimConfig(alpha=0.4, m=20, dt=1e-3, T=0.05,
                    initial="random", seed=8, stride=5)
    trajs = run_ensemble([replace(cfg, epsilon=e) for e in (1e-1, 1e-2, 1e-3)])
    worst = 0.0
    for tr_e, tr_r in zip(trajs, trajs[1:]):
        out = weak_continuity_terms(tr_e, tr_r, phi, delta=0.15)
        scale = max(1.0, sum(abs(out[f"I{j}"]) for j in range(1, 7)))
        worst = max(worst, abs(out["sum"] - out["two_delta_n"]) / scale)
    detail = "eps pairs (1e-1,1e-2), (1e-2,1e-3)"
    return "weak_continuity", worst < tol, worst, tol, detail


@_timed
def check_bound_monitors():
    """Observed commutator-estimate ratios finite and stable across fields."""
    basis = build_rectangle_basis(5)
    a = multiplier_catalog()["bump4"]
    ratios = []
    for seed in range(20):
        f = _random_field(basis, seed=100 + seed)
        rep = monitor_bounds("neg_mult", a, f, s=0.5)
        ratios.append(rep.ratio)
    gain = [
        monitor_bounds("gain", a, _random_field(basis, seed=200 + s), s=0.5).ratio
        for s in range(5)
    ]
    spread = max(ratios) / min(ratios)
    observed = spread
    tol = 1e2
    passed = spread < tol and all(np.isfinite(gain))
    detail = f"neg_mult spread={spread:.2f} gain ratios finite"
    return "bound_monitors", passed, observed, tol, detail


@_timed
def check_sweep_trends():
    """Mode and viscosity sweeps show shrinking pairwise differences."""
    tpl = SimConfig(alpha=0.5, m=16, dt=1e-3, T=0.25, epsilon=0.01,
                    initial="random_rough", seed=9, stride=10)
    mrep = mode_sweep(tpl, [16, 32, 64])
    vrep = viscosity_sweep(tpl, [1e-1, 1e-2, 1e-3])
    mdec = bool(np.all(np.diff(mrep.pair_diffs["dneg_1.0"]) < 0))
    surrogate_ok = bool(np.all(np.isfinite(vrep.metrics["dt_surrogate_hm4"])))
    passed = mdec and surrogate_ok
    observed = float(mrep.pair_diffs["dneg_1.0"][-1])
    detail = f"mode diffs decreasing={mdec} dt surrogate finite={surrogate_ok}"
    return "sweep_trends", passed, observed, np.inf, detail


def run_suite(level: str = "quick", tensor: GalerkinTensor | None = None):
    """Run the named check battery; returns the list of CheckResults, in the
    battery's order.

    The caller and one forked worker per further CPU claim the checks, the
    last first, as the module docstring says; every worker is reaped before
    this returns or raises.  A check that raises makes this raise the same
    exception, that of the first such check in the battery's order,
    whichever process ran it; only the caller's has the check's own
    traceback, and under `taskset -c 0` the caller runs every check.  A
    worker that ends without reporting its checks, killed say, makes this
    raise RuntimeError naming them.  Python >= 3.12 warns at every fork
    from a process with more than one BLAS thread; _fork silences exactly
    that warning, for the reason given there."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    T = 1.0 if level == "full" else 0.25
    checks = {
        "tensor_structure": lambda: check_tensor_structure(
            m=100 if level == "full" else 36, tensor=tensor
        ),
        "inviscid_conservation": lambda: check_inviscid_conservation(m=64, T=T),
        "viscous_balances": lambda: check_viscous_balances(m=64, T=T),
        "heat_oracles": check_heat_oracles,
        "representation_identity": lambda: check_representation_identity(level),
        "representation_equivalence": check_representation_equivalence,
        "adjoint_identity": check_adjoint_identity,
        "uniform_l2": check_uniform_l2,
        "weak_residual": check_weak_residual,
        "weak_continuity": check_weak_continuity,
    }
    if level == "full":
        checks |= {
            "delta_limits": check_delta_limits,
            "bound_monitors": check_bound_monitors,
            "sweep_trends": check_sweep_trends,
        }
    return _run_checks(checks)


def _run_checks(checks: dict) -> list:
    """The results of checks, {name: function returning its CheckResult},
    in order, run as run_suite describes."""
    fns = list(checks.values())
    jobs, feed = os.pipe()
    # one byte per check index, the last check first: quick's longest check,
    # weak_residual, is second to last, and this order beat list order at
    # quick and at full
    os.write(feed, bytes(reversed(range(len(fns)))))
    os.close(feed)
    caller, workers = os.getpid(), {}  # workers: pid -> its report pipe
    try:
        for _ in range(_worker_count(len(fns))):
            r, w = os.pipe()
            report = open(r, "rb")
            try:
                pid = _fork()
                if pid == 0:
                    _work(jobs, fns, w)
                workers[pid] = report
            except OSError:  # out of processes or memory: run with fewer workers
                report.close()
                break
            finally:
                if os.getpid() != caller:  # a worker never leaves this frame
                    os._exit(1)
                os.close(w)
        done = _claim(jobs, fns)
        for fh in workers.values():
            done |= _received(fh.read())  # to end of file: the worker has ended
    finally:
        os.close(jobs)
        for pid, fh in workers.items():
            fh.close()
            # a worker still running is killed (the caller is leaving by an
            # exception); one reaped by a SIGCHLD handler is already gone
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    missing = [name for i, name in enumerate(checks) if i not in done]
    if missing:
        raise RuntimeError(
            f"a verify worker ended without reporting check(s) {', '.join(missing)}"
        )
    for i in range(len(fns)):
        if isinstance(done[i], Exception):
            raise done[i]
    return [done[i] for i in range(len(fns))]


def _worker_count(n_checks: int) -> int:
    """Workers to fork: one per CPU this process may use beyond its own, at
    most one process per check, none where the platform cannot fork or say
    which CPUs the process may use."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 0
    return min(len(os.sched_getaffinity(0)), n_checks) - 1


def _fork() -> int:
    """os.fork() without Python >= 3.12's DeprecationWarning for a process
    with more than one thread, which every numpy process with more than one
    BLAS thread is: OpenBLAS stops its thread pool in a pthread_atfork
    handler, so the child starts with one thread and no lock held."""
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore",
            r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) "
            r"may lead to deadlocks in the child\.",
            DeprecationWarning,
        )
        return os.fork()


def _claim(jobs: int, fns: list) -> dict:
    """{index: CheckResult, or the Exception it raised} of the checks this
    process claims, one index byte at a time, from the job pipe `jobs`
    until it is empty."""
    done = {}
    while job := os.read(jobs, 1):
        i = job[0]
        try:
            done[i] = fns[i]()
        except Exception as exc:  # run_suite raises the first, in check order
            done[i] = exc
    return done


def _work(jobs: int, fns: list, report: int):
    """A forked worker: claim checks, send their outcomes through the pipe
    `report` as one pickle, and leave by os._exit whatever happens,
    KeyboardInterrupt and SystemExit included, so that it never returns
    into the caller's stack.  An exception goes as (class, args,
    attributes): pickle would rebuild it by calling its class with its args,
    which fails for classes such as BlowUpError whose __init__ takes other
    arguments."""
    status = 1
    try:
        data = pickle.dumps({
            i: (type(o), o.args, vars(o)) if isinstance(o, Exception) else o
            for i, o in _claim(jobs, fns).items()
        })
        with open(report, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _received(data: bytes) -> dict:
    """The outcomes a worker sent, each exception rebuilt from (class, args,
    attributes) without calling its class's __init__; none if it sent
    nothing or was killed while sending."""
    def rebuilt(cls, args, attrs):
        exc = cls.__new__(cls, *args)
        exc.args = args
        vars(exc).update(attrs)
        return exc

    with suppress(pickle.UnpicklingError, EOFError):
        return {i: rebuilt(*o) if isinstance(o, tuple) else o
                for i, o in pickle.loads(data).items()}
    return {}


def format_report(results) -> str:
    lines = [r.line() for r in results]
    n_fail = sum(not r.passed for r in results)
    # the checks overlap when run_suite runs them in several processes, so
    # their sum is check time, not the suite's wall time
    total = sum(r.elapsed for r in results)
    lines.append(
        f"{len(results) - n_fail}/{len(results)} checks passed, "
        f"{total:.2f}s of check time"
    )
    return "\n".join(lines)
