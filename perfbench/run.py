"""gsqg benchmark: one workload, end to end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gsqg checkout; gsqg is imported from ./src.  Metric
names and units come from BENCHMARK.json.  Each workload is one client in
one process running ops as a closed loop (perfbench/worker.py); GSQG_THREADS
is removed from its environment and BLAS gets one thread.

--trace 0 runs four set-up-only processes and one measuring process and
reports the end-to-end metrics; setup_s is the median of the five set-up
times.  Op times are reported in units of a reference kernel timed between
ops in the same process (reference.py), which takes out the drift of a
shared machine's speed; wall-clock figures are printed beside them.
--trace 1 runs one process that measures untraced for S/2 seconds, then
traces a fixed number of ops and reports the per-layer metrics.
Outputs and spans land in ./.perfbench_out.  The last line printed is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("simulate_m256", "sweep_visc_m64", "weakform_k24", "verify_quick")
SETUP_RUNS = 5
# a worker's own work beyond --seconds: set-up, the output checks, the
# traced ops and the probes
WORKER_SLACK_S = 150


def worker_env() -> dict:
    """GSQG_THREADS unset and one BLAS thread.

    At these matrix sizes a second BLAS thread gains nothing and makes
    timings depend on whatever else runs on the machine."""
    env = dict(os.environ)
    env.pop("GSQG_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(mode: str, args, env: dict) -> dict:
    """Run one worker process to completion and return its result."""
    out = OUT_DIR / f"worker-{mode}-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, args.workload,
         str(args.seed), str(args.seconds), repr(t_spawn), str(out)],
        stdout=subprocess.DEVNULL, env=env, timeout=args.seconds + WORKER_SLACK_S,
    )
    if proc.returncode != 0 or not out.is_file():
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples above,
    the 11th largest sample, but never below the median: with fewer than 21
    samples no percentile above p50 has ten samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 21:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 11) / (n - 1)


def end_to_end(args, env) -> tuple[dict, dict, list[str]]:
    setups = [start_worker("setup", args, env)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    res = start_worker("measure", args, env)
    setups.append(res["setup_s"])
    lat, ratios = res["latencies"], res["ratios"]
    n, failed = len(lat), res["failed"]
    tail_ref, tail_pct = tail(ratios)
    tail_s, _ = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_ref": (n - failed) / sum(ratios),
        "latency_p50_ref": statistics.median(ratios),
        "latency_tail_ref": tail_ref,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_ops_frac": (n - failed) / n,
    }
    probes = res["probes"]
    notes = [
        f"latency_tail is p{tail_pct:.1f} of {n} ops",
        f"failed_ops_frac {failed / n!r} ({failed} of {n} ops)",
        "set-up times (s): " + ", ".join(f"{s:.4f}" for s in setups),
        f"reference kernel: median {statistics.median(probes):.4f} s, "
        f"{min(probes):.4f}-{max(probes):.4f} s over {len(probes)} probes",
        f"wall time: ops_per_s {(n - failed) / sum(lat):.4f}, latency_p50_s "
        f"{statistics.median(lat):.4f}, latency_tail_s {tail_s:.4f}",
    ]
    return metrics, {"attempted": n, "failed": failed, "env": res["env"],
                     "latencies": lat, "ratios": ratios, "probes": probes,
                     "setups": setups}, notes


def per_layer(args, env) -> tuple[dict, dict, list[str]]:
    res = start_worker("trace", args, env)
    metrics = res["metrics"]
    metrics["trace.untraced_ops_per_s"] = res["untraced_ops_per_s"]
    metrics["trace.overhead_ops_per_s"] = (
        res["untraced_ops_per_s"] - metrics["trace.traced_ops_per_s"])
    notes = [f"spans written to {(OUT_DIR / f'spans-{args.workload}.csv').relative_to(ROOT)}"]
    return metrics, {"attempted": res["attempted"], "failed": res["failed"],
                     "env": res["env"]}, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "gsqg" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no gsqg source tree (src/gsqg); "
              "run from the root of a gsqg checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT_DIR.mkdir(exist_ok=True)
    env = worker_env()
    try:
        measured, info, notes = (per_layer if args.trace else end_to_end)(args, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    info["env"].update({"workload": args.workload, "seconds": args.seconds,
                        "trace": args.trace, "git_commit": git_commit()})
    print("env " + json.dumps(info["env"], sort_keys=True))
    for note in notes:
        print(note)
    print("wait time: zero by construction; no layer of gsqg has a queue")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']!r:>24} {m['unit']}")
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": metrics,
    }
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, **info}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
