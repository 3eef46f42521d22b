"""One benchmark process: set up, then run ops of one workload in a closed loop.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS T_SPAWN OUT_JSON

run.py starts it from the root of a checkout and reads OUT_JSON.  Set-up is
importing gsqg, making the inputs and one discarded cold warm-up op; it is
timed from T_SPAWN, the parent's time.monotonic() just before the spawn.
MODE is
  setup    set up, report set-up time and stop;
  measure  run ops for SECONDS with tracing off, timing the reference
           kernel (reference.py) between ops;
  trace    run ops for SECONDS/2 untraced, then a fixed number of traced ops,
           and report per-layer totals per op plus the tracing overhead.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench_out"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gsqg  # noqa: E402
import gsqg.cli  # noqa: E402,F401
import gsqg.snapshots  # noqa: E402,F401
import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PROBE_EVERY_S = 0.4  # seconds of ops between two timings of the reference kernel


def run_op(wl, item, tag, tracer=None, index=-1):
    """One op: (seconds, problems, result).  Only the gsqg call is timed."""
    arg = wl.prepare(item, tag)
    if tracer is not None:
        tracer.op = index
    t0 = time.perf_counter()
    try:
        result = wl.op(arg, tag)
    except Exception:  # an op that raises is a failed op; the loop goes on
        elapsed = time.perf_counter() - t0
        traceback.print_exc()
        return elapsed, ["op raised"], None
    finally:
        if tracer is not None:
            tracer.op = -1
    elapsed = time.perf_counter() - t0
    try:
        problems = wl.check(arg, result)
    except Exception:
        traceback.print_exc()
        problems = ["check raised"]
    for p in problems:
        print(f"{wl.name} {tag}: {p}", file=sys.stderr)
    return elapsed, problems, result


def closed_loop(wl, seconds: float) -> dict:
    """Ops back to back until `seconds` have passed; op0's output is kept
    for the once-per-run check.

    The reference kernel is timed before the first op, after the last, and
    after any op that ends PROBE_EVERY_S or more past the previous probe.
    Each op's time is divided by the mean of the two probes around it."""
    latencies, ratios, probes, failed = [], [], [reference.probe()], []
    last_probe = time.perf_counter()
    deadline = last_probe + seconds
    i = 0
    while True:
        tag = f"op{i}"
        elapsed, problems, _ = run_op(wl, wl.op_inputs[i % len(wl.op_inputs)], tag)
        latencies.append(elapsed)
        if problems:
            failed.append(i)
        if i > 0:
            wl.discard(tag)
        i += 1
        now = time.perf_counter()
        if now >= deadline or now - last_probe >= PROBE_EVERY_S:
            probes.append(reference.probe())
            ref = (probes[-2] + probes[-1]) / 2
            ratios += [x / ref for x in latencies[len(ratios):]]
            last_probe = time.perf_counter()
        if now >= deadline:
            break
    try:
        problems = wl.run_check("op0")
    except Exception:
        traceback.print_exc()
        problems = ["run check raised"]
    for p in problems:
        print(f"{wl.name} op0 run check: {p}", file=sys.stderr)
    if problems and 0 not in failed:
        failed.append(0)
    wl.discard("op0")
    return {"latencies": latencies, "ratios": ratios, "probes": probes,
            "failed": len(failed)}


def rhs_probes(wl, tag: str) -> dict:
    """Seconds per nonlinearity+viscosity evaluation on a state of op `tag`,
    by the tensor (galerkin.rhs) and by grid products."""
    state = wl.probe_state(tag)
    if state is None:
        return {"galerkin.tensor_rhs_probe_s": 0.0, "galerkin.grid_rhs_probe_s": 0.0}
    cfg, theta = state
    g = gsqg
    basis = g.build_rectangle_basis(cfg.basis_cutoff())
    lam = basis.eigenvalues[: cfg.m]
    tensor = g.assemble_tensor(basis, cfg.m, cfg.alpha)
    by_grid = workloads.grid_rhs(g, basis, cfg)

    def by_tensor(th):
        return g.galerkin.rhs(th, tensor, cfg.epsilon, lam)

    out = {}
    for name, fn in (("tensor", by_tensor), ("grid", by_grid)):
        batches = []
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(40):
                fn(theta)
            batches.append((time.perf_counter() - t0) / 40)
        out[f"galerkin.{name}_rhs_probe_s"] = statistics.median(batches)
    return out


def traced_ops(wl) -> tuple[dict, int]:
    """The first wl.trace_ops op inputs under tracing: (per-op layer metrics,
    failed ops).  The output of the first traced op is kept for the probes."""
    tracer = tracing.Tracer()
    tracer.install()
    latencies, extra, failed = [], {}, 0
    try:
        for i in range(wl.trace_ops):
            tag = f"traced{i}"
            elapsed, problems, result = run_op(
                wl, wl.op_inputs[i % len(wl.op_inputs)], tag, tracer, i)
            latencies.append(elapsed)
            failed += bool(problems)
            for k, v in wl.counters(result).items():
                extra[k] = extra.get(k, 0) + v
            if i > 0:
                wl.discard(tag)
    finally:
        tracer.uninstall()
    n = wl.trace_ops
    calls, self_s, incl_s = tracer.totals()
    metrics = {}
    for name in {t[2] for t in tracing.TARGETS}:
        metrics[f"{name}.calls"] = calls[name] / n
        metrics[f"{name}.self_s"] = self_s[name] / n
        metrics[f"{name}.s"] = incl_s[name] / n
    for key in ("basis.transform_flop_computed", "galerkin.tensor_nnz",
                "galerkin.tensor_bytes_computed", "snapshots.bytes_written"):
        metrics[key] = tracer.counts[key] / n
    metrics["verify.checks_failed"] = 0.0
    for key, val in extra.items():
        metrics[key] = val / n
    rhs_calls = calls["galerkin.rhs"]
    # four right-hand sides per RK4 step advance the state; the rest are
    # diagnostics evaluations
    metrics["galerkin.rhs.useful_frac"] = (
        4 * calls["galerkin.step"] / rhs_calls if rhs_calls else 0.0)
    metrics["trace.ops"] = n
    metrics["trace.traced_ops_per_s"] = n / sum(latencies)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}.csv")
    return metrics, failed


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset") for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "python": platform.python_version(),
        "GSQG_THREADS": os.environ.get("GSQG_THREADS", "unset"),
        "seed": seed,
    }


def main(argv) -> int:
    mode, name, seed, seconds, t_spawn, out_path = argv
    seed, seconds, t_spawn = int(seed), float(seconds), float(t_spawn)
    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[name](gsqg, seed, work)
        _, problems, _ = run_op(wl, wl.warmup_input, "warmup")
        wl.discard("warmup")
        if problems:
            print(f"{name}: warm-up op failed: {problems}", file=sys.stderr)
            return 1
        out = {"setup_s": time.monotonic() - t_spawn}
        if mode == "measure":
            out.update(closed_loop(wl, seconds))
        elif mode == "trace":
            untraced = closed_loop(wl, seconds / 2)
            out["untraced_ops_per_s"] = len(untraced["latencies"]) / sum(untraced["latencies"])
            out["metrics"], traced_failed = traced_ops(wl)
            out["attempted"] = len(untraced["latencies"]) + wl.trace_ops
            out["failed"] = untraced["failed"] + traced_failed
            out["metrics"].update(rhs_probes(wl, "traced0"))
            wl.discard("traced0")
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["env"] = environment(seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
