"""Seeded inputs for the benchmark workloads.

Everything gsqg receives in a benchmark op is made here from the workload
seed: INI config text for the CLI workloads and coefficient vectors for the
weak-form workload.  The same (workload, seed) gives byte-identical inputs;
this module imports no part of gsqg.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

SWEEP_EPSILONS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4)
WEAK_K = 24
WEAK_ALPHAS = (0.3, 0.5, 0.7)
WEAK_PHIS = ("quartic", "sine_bump", "skew_bump")

SIMULATE_M256 = {
    "epsilon": 0.01, "m": 256, "dt": 1e-3, "t_final": 0.2, "stride": 10,
    "initial": "random_rough",
}
SWEEP_M64 = {
    "epsilon": 0.01, "m": 64, "dt": 1e-3, "t_final": 0.25, "stride": 10,
    "initial": "random_rough",
}


@dataclass(frozen=True)
class WeakInput:
    """One weak-form op: theta coefficients on K=24, alpha and test function."""

    alpha: float
    phi: str
    coeffs: np.ndarray


def rng_for(workload: str, seed: int) -> np.random.Generator:
    """Independent stream per (workload, seed); stable across processes."""
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def config_ini(params: dict) -> str:
    """[run] section text that gsqg.cli.load_config reads back exactly."""
    lines = ["[run]"]
    for key, val in params.items():
        lines.append(f"{key} = {val!r}" if isinstance(val, float) else f"{key} = {val}")
    return "\n".join(lines) + "\n"


def run_configs(rng: np.random.Generator, template: dict, n: int) -> list[str]:
    """n configs from a template, with alpha in [0.3, 0.7] and a run seed each."""
    out = []
    for _ in range(n):
        params = {"alpha": float(rng.uniform(0.3, 0.7)), **template,
                  "seed": int(rng.integers(0, 2**31 - 1))}
        out.append(config_ini(params))
    return out


def rectangle_eigenvalues(K: int) -> np.ndarray:
    """j^2 + k^2 over 1 <= j, k <= K in ascending order (the basis order)."""
    j = np.arange(1, K + 1)
    return np.sort((j[:, None] ** 2 + j[None, :] ** 2).ravel()).astype(float)


def weak_inputs(rng: np.random.Generator, n: int) -> list[WeakInput]:
    """Unit-norm theta with coefficients scaled by 1/lambda; alpha and phi
    cycle so every (alpha, phi) pair appears once in each block of nine."""
    lam = rectangle_eigenvalues(WEAK_K)
    out = []
    for i in range(n):
        c = rng.standard_normal(lam.size) / lam
        out.append(WeakInput(
            alpha=WEAK_ALPHAS[i % 3],
            phi=WEAK_PHIS[(i // 3) % 3],
            coeffs=c / np.linalg.norm(c),
        ))
    return out


def make_inputs(workload: str, seed: int, n: int) -> tuple[object, list]:
    """(warm-up input, n op inputs) for a workload.  verify_quick takes none."""
    rng = rng_for(workload, seed)
    if workload == "simulate_m256":
        items = run_configs(rng, SIMULATE_M256, n + 1)
    elif workload == "sweep_visc_m64":
        items = run_configs(rng, SWEEP_M64, n + 1)
    elif workload == "weakform_k24":
        items = weak_inputs(rng, n + 1)
    elif workload == "verify_quick":
        items = [None] * (n + 1)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items[-1], items[:-1]
