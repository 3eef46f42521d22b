"""The seeded input generator: deterministic, seed-sensitive, loadable.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
from gsqg.cli import load_config  # noqa: E402

GENERATED = ("simulate_m256", "sweep_visc_m64", "weakform_k24")


def as_bytes(workload: str, seed: int) -> list[bytes]:
    warmup, items = inputs.make_inputs(workload, seed, 12)
    out = []
    for item in [warmup, *items]:
        if isinstance(item, str):
            out.append(item.encode())
        else:
            out.append(f"{item.alpha!r} {item.phi} ".encode() + item.coeffs.tobytes())
    return out


@pytest.mark.parametrize("workload", GENERATED)
def test_same_seed_gives_identical_inputs(workload):
    assert as_bytes(workload, 7) == as_bytes(workload, 7)


@pytest.mark.parametrize("workload", GENERATED)
def test_different_seeds_give_different_inputs(workload):
    a, b = as_bytes(workload, 7), as_bytes(workload, 8)
    assert all(x != y for x, y in zip(a, b))


@pytest.mark.parametrize("workload", ("simulate_m256", "sweep_visc_m64"))
def test_every_config_loads(workload, tmp_path):
    warmup, items = inputs.make_inputs(workload, 3, 12)
    for i, text in enumerate([warmup, *items]):
        path = tmp_path / f"run{i}.ini"
        path.write_text(text)
        cfg = load_config(path)
        assert 0.3 <= cfg.alpha <= 0.7
        assert cfg.m in (64, 256)
        assert cfg.initial == "random_rough"


def test_weak_inputs_cover_every_alpha_and_test_function():
    _, items = inputs.make_inputs("weakform_k24", 0, 9)
    assert {(w.alpha, w.phi) for w in items} == {
        (a, p) for a in inputs.WEAK_ALPHAS for p in inputs.WEAK_PHIS}
    assert all(w.coeffs.shape == (inputs.WEAK_K**2,) for w in items)
