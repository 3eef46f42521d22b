from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsqg import cli
from gsqg.basis import SpectralField, build_rectangle_basis, restrict
from gsqg.cli import ConfigError, load_config, main, make_manifest
from gsqg.commutators import comm_lambda_mult, comm_neg_lambda_mult, multiplier_catalog
from gsqg.fractional import (
    apply_lambda_power,
    heat_semigroup,
    lambda_neg_power_heat,
    lambda_pos_power_heat,
    project,
)
from gsqg.galerkin import GalerkinTensor, GridProducts, SimConfig, assemble_tensor
from gsqg.snapshots import (
    RunManifest,
    Snapshot,
    read_snapshot,
    write_snapshot,
)

from oracles import read_manifest

CONFIG = """\
[run]
alpha = 0.5
epsilon = 0.01
m = 16
dt = 1e-3
t_final = 0.1
initial = single_mode
stride = 10
seed = 0
"""


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(CONFIG)
    return p


def test_snapshot_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    snap = Snapshot(16, 0.5, 0.01, 0.25, rng.standard_normal(16))
    path = tmp_path / "s.bin"
    write_snapshot(path, snap)
    back = read_snapshot(path)
    assert back.m == 16
    assert back.alpha == 0.5 and back.epsilon == 0.01 and back.t == 0.25
    assert np.array_equal(back.coeffs, snap.coeffs)


def test_snapshot_rejects_corruption(tmp_path):
    snap = Snapshot(4, 0.5, 0.0, 0.0, np.zeros(4))
    path = tmp_path / "s.bin"
    write_snapshot(path, snap)
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(bad)
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="coefficients"):
        read_snapshot(trunc)


def test_manifest_roundtrip():
    cfg = SimConfig(alpha=0.3, epsilon=0.1, m=20, dt=1e-3, T=0.05, stride=7,
                    initial="file:runs/100% done/%(m)s.bin", seed=5)
    m = make_manifest(cfg, "analytic", "out%1")
    back = read_manifest(m.dumps())
    assert back.config == {k: str(v) for k, v in m.config.items()}
    assert list(back.config) == [
        "alpha", "epsilon", "m", "dt", "t_final", "stride", "initial", "seed"]
    for f in fields(RunManifest)[1:]:
        assert getattr(back, f.name) == getattr(m, f.name)
    assert back.output_dir == "out%1"


# floats as configs write them (0.1, 1e-3) and any others; T on the dt grid
_floats = st.sampled_from([0.1, 1e-3, 0.25, 5e-4, 0.01]) | st.floats(
    min_value=1e-9, max_value=1e3, allow_nan=False, allow_infinity=False)
# file: paths holding `%`, `%(m)s` and inner spaces, which must stay literal
_paths = st.lists(
    st.sampled_from(["%", "%(m)s", "%1", " ", "100%", "%%"])
    | st.text(alphabet="abXY019_-./() ", max_size=8),
    min_size=1, max_size=5,
).map(lambda parts: "file:snap" + "".join(parts) + ".bin")


@st.composite
def sim_configs(draw):
    dt = draw(_floats)
    return SimConfig(
        alpha=draw(st.sampled_from([0.1, 0.5]) | st.floats(
            min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)),
        epsilon=draw(st.just(0.0) | _floats),
        m=draw(st.integers(1, 10**6)),
        dt=dt,
        T=draw(st.integers(1, 10**6)) * dt,
        stride=draw(st.integers(1, 10**6)),
        initial=draw(st.sampled_from(
            ["single_mode", "two_mode", "random", "random_rough", "bump"]) | _paths),
        seed=draw(st.integers(0, 2**63)),
    )


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=sim_configs())
def test_manifest_of_any_config_loads_back_equal(tmp_path, cfg):
    # the [run] section is derived from SimConfig's fields, so every field,
    # every float and every literal path comes back as written
    path = tmp_path / "manifest.ini"
    make_manifest(cfg, "grid", tmp_path).dump(path)
    assert load_config(path) == cfg


def test_load_config(config_path):
    cfg = load_config(config_path)
    assert cfg.alpha == 0.5 and cfg.m == 16 and cfg.T == 0.1


def test_load_config_unknown_key(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[run]\nalpha = 0.5\nwobble = 3\n")
    with pytest.raises(ConfigError, match="wobble"):
        load_config(p)


def test_load_config_bad_value_names_key(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[run]\ndt = zero\n")
    with pytest.raises(ConfigError, match="dt"):
        load_config(p)


# a manifest as older versions wrote it, with the retired `pad` key
OLD_MANIFEST = """\
[run]
alpha = 0.5
epsilon = 0.01
m = 16
pad = 4.0
dt = 0.001
t_final = 0.1
stride = 10
initial = single_mode
seed = 0

[manifest]
tool_version = 0.1.0
tensor_mode = analytic
created = 2026-01-01T00:00:00+00:00
output_dir = out
"""


def test_old_manifest_with_pad_loads_and_reruns(config_path, tmp_path):
    old = tmp_path / "old_manifest.ini"
    old.write_text(OLD_MANIFEST)
    assert load_config(old) == load_config(config_path)
    out_old, out_new = tmp_path / "from_old", tmp_path / "from_new"
    assert main(["simulate", "--config", str(old), "--out", str(out_old)]) == 0
    assert main(["simulate", "--config", str(config_path), "--out", str(out_new)]) == 0
    for name in ("snapshot_000010.bin", "diagnostics.csv"):
        assert (out_old / name).read_bytes() == (out_new / name).read_bytes()
    assert "pad" not in read_manifest((out_new / "manifest.ini").read_text()).config


def test_cli_dt_zero_names_key(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[run]\nm = 8\ndt = 0\n")
    code = main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "dt" in capsys.readouterr().err


def _refused(tmp_path, capsys, argv, *words):
    """argv exits 2 with every word in its message and leaves no --out directory."""
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(w in err for w in words), err
    assert not out.exists()
    return err


def test_cli_unstable_config_exits_2_before_integrating(tmp_path, capsys):
    p = tmp_path / "run.ini"
    p.write_text(CONFIG.replace("m = 16", "m = 256").replace("epsilon = 0.01", "epsilon = 10"))
    _refused(tmp_path, capsys, ["simulate", "--config", str(p)],
             "epsilon=10.0, dt=0.001", "stability number")
    _refused(tmp_path, capsys, ["sweep", "viscosity", "--config", str(p), "--values", "10,1"],
             "stability number")


def test_cli_simulate_outputs(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    snaps = sorted(out.glob("snapshot_*.bin"))
    assert len(snaps) == 11
    assert (out / "diagnostics.csv").exists()
    assert (out / "manifest.ini").exists()
    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert header == "t,l2_theta,h1_theta,hdot_psi,energy_residual,hamiltonian_residual"


def test_cli_determinism_and_manifest_rerun(config_path, tmp_path):
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    main(["simulate", "--config", str(config_path), "--out", str(out1)])
    main(["simulate", "--config", str(config_path), "--out", str(out2)])
    # bit-identical outputs for identical config + seed
    assert (out1 / "snapshot_000005.bin").read_bytes() == (
        out2 / "snapshot_000005.bin"
    ).read_bytes()
    assert (out1 / "diagnostics.csv").read_text() == (
        out2 / "diagnostics.csv"
    ).read_text()
    # the manifest is itself a valid config and reproduces the run
    main(["simulate", "--config", str(out1 / "manifest.ini"), "--out", str(out3)])
    assert (out1 / "snapshot_000010.bin").read_bytes() == (
        out3 / "snapshot_000010.bin"
    ).read_bytes()


def test_cli_seed_override_changes_random_runs(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(CONFIG.replace("single_mode", "random"))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["simulate", "--config", str(p), "--out", str(out1), "--seed", "1"])
    main(["simulate", "--config", str(p), "--out", str(out2), "--seed", "2"])
    a = read_snapshot(out1 / "snapshot_000000.bin")
    b = read_snapshot(out2 / "snapshot_000000.bin")
    assert not np.array_equal(a.coeffs, b.coeffs)


def test_cli_sweep_viscosity(config_path, tmp_path):
    out = tmp_path / "sw"
    code = main([
        "sweep", "viscosity", "--config", str(config_path),
        "--values", "1e-1,1e-2,1e-3", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "sweep_viscosity.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "epsilon"
    assert "uni_tt_margin" in header
    col = header.index("uni_tt_margin")
    margins = [float(row.split(",")[col]) for row in lines[1:]]
    assert all(mg <= 1.0 + 1e-8 for mg in margins)


def test_cli_sweep_modes_refuses_spaces_that_are_not_nested(config_path, tmp_path, capsys):
    _refused(tmp_path, capsys, ["sweep", "modes", "--config", str(config_path),
                                "--values", "16,17"], "not nested", "m=16", "m=17")


def test_cli_op_project_cuts_the_space_a_run_at_m_keeps(tmp_path):
    rng = np.random.default_rng(6)
    src, dst = tmp_path / "f.bin", tmp_path / "out.bin"
    write_snapshot(src, Snapshot(64, 0.5, 0.01, 0.25, rng.standard_normal(64)))
    assert main(["op", "project", str(src), "-p", "m=16", "--out", str(dst)]) == 0
    basis = build_rectangle_basis(8)
    want = project(SpectralField(basis, read_snapshot(src).coeffs), 16).coeffs
    got = read_snapshot(dst).coeffs
    assert got.tobytes() == want.tobytes()
    kept = {(md.j, md.k) for md, c in zip(basis.modes, got) if c != 0}
    assert kept == {(j, k) for j in range(1, 5) for k in range(1, 5)}


def test_cli_sweep_empty_values(config_path, tmp_path, capsys):
    code = main([
        "sweep", "modes", "--config", str(config_path),
        "--values", ",", "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "empty" in capsys.readouterr().err


def test_cli_op_lambda_pow(tmp_path, capsys):
    w1 = Snapshot(4, 0.5, 0.0, 0.0, np.array([1.0, 0.0, 0.0, 0.0]))
    src = tmp_path / "w1.bin"
    write_snapshot(src, w1)
    dst = tmp_path / "out.bin"
    assert main(["op", "lambda_pow", str(src), "-p", "s=1", "--out", str(dst)]) == 0
    out = read_snapshot(dst)
    # lowest mode: lambda = 2, Lambda^1 scales by sqrt(2)
    assert out.coeffs[0] == pytest.approx(np.sqrt(2.0))


def test_cli_op_heat(tmp_path):
    w1 = Snapshot(4, 0.5, 0.0, 0.0, np.array([1.0, 0.0, 0.0, 0.0]))
    src = tmp_path / "w1.bin"
    write_snapshot(src, w1)
    dst = tmp_path / "out.bin"
    assert main(["op", "heat", str(src), "-p", "t=1", "--out", str(dst)]) == 0
    assert read_snapshot(dst).coeffs[0] == pytest.approx(np.exp(-2.0))


def test_cli_op_constant_multiplier_commutes(tmp_path):
    rng = np.random.default_rng(1)
    src = tmp_path / "f.bin"
    write_snapshot(src, Snapshot(16, 0.5, 0.0, 0.0, rng.standard_normal(16)))
    dst = tmp_path / "out.bin"
    code = main(["op", "comm_neg_mult", str(src), "-p", "a=one", "-p", "s=0.5",
                 "--out", str(dst)])
    assert code == 0
    assert np.abs(read_snapshot(dst).coeffs).max() < 1e-14


def test_cli_op_unknown_name(tmp_path, capsys):
    src = tmp_path / "f.bin"
    write_snapshot(src, Snapshot(4, 0.5, 0.0, 0.0, np.zeros(4)))
    assert main(["op", "nope", str(src)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: unknown operator 'nope' (available: lambda_pow, heat, lambda_neg_heat, "
        "lambda_pos_heat, project, comm_neg_mult, comm_mult)\n")


@pytest.mark.parametrize("op, params, key, accepted", [
    ("lambda_pow", ["s=1", "a=bump4"], "a", "s"),
    ("project", ["m=4", "s=1"], "s", "m"),
    ("comm_mult", ["s=0.5", "a=one", "t=1"], "t", "s, a"),
])
def test_cli_op_refuses_parameters_the_op_does_not_take(tmp_path, capsys, op, params, key, accepted):
    src = tmp_path / "f.bin"
    write_snapshot(src, Snapshot(4, 0.5, 0.0, 0.0, np.ones(4)))
    dst = tmp_path / "out.bin"
    argv = ["op", op, str(src), "--out", str(dst)]
    for p in params:
        argv += ["-p", p]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: operator {op} takes no parameter {key!r} (accepted: {accepted})\n")
    assert not dst.exists()


def _commutator(op, f, s):
    return restrict(op(multiplier_catalog()["cos_xy"], f, s), f.basis)


# gsqg op NAME -> (its -p arguments, the library call it must equal)
OP_CALLS = {
    "lambda_pow": (["s=0.7"], lambda f: apply_lambda_power(f, 0.7)),
    "heat": (["t=0.3"], lambda f: heat_semigroup(f, 0.3)),
    "lambda_neg_heat": (["s=0.6"], lambda f: lambda_neg_power_heat(f, 0.6)),
    "lambda_pos_heat": (["s=0.6"], lambda f: lambda_pos_power_heat(f, 0.6)),
    "project": (["m=7"], lambda f: project(f, 7)),
    "comm_neg_mult": (["a=cos_xy", "s=0.5"], lambda f: _commutator(comm_neg_lambda_mult, f, 0.5)),
    "comm_mult": (["s=0.5", "a=cos_xy"], lambda f: _commutator(comm_lambda_mult, f, 0.5)),
}


def test_every_op_name_is_tested():
    assert list(OP_CALLS) == list(cli._OPS)


@pytest.mark.parametrize("name", OP_CALLS)
def test_cli_op_equals_its_library_function(tmp_path, name):
    rng = np.random.default_rng(5)
    src, dst = tmp_path / "f.bin", tmp_path / "out.bin"
    snap = Snapshot(16, 0.5, 0.01, 0.25, rng.standard_normal(16))
    write_snapshot(src, snap)
    params, call = OP_CALLS[name]
    argv = ["op", name, str(src), "--out", str(dst)]
    assert main(argv + [a for p in params for a in ("-p", p)]) == 0
    want = call(SpectralField(build_rectangle_basis(4), snap.coeffs)).coeffs[:16]
    got = read_snapshot(dst)
    assert (got.m, got.alpha, got.epsilon, got.t) == (16, 0.5, 0.01, 0.25)
    assert got.coeffs.tobytes() == want.tobytes()
    assert np.abs(want).max() > 0


@pytest.mark.parametrize("argv, words", [
    # project used to truncate m=2.5 to 2 and write its output
    (["op", "project", "IN", "-p", "m=2.5"], ("parameter m", "'2.5'")),
    (["op", "lambda_pow", "IN", "-p", "s=abc"], ("parameter s", "'abc'")),
    (["op", "heat", "IN", "-p", "t="], ("parameter t", "''")),
    (["sweep", "modes", "--config", "CFG", "--values", "16,16.0"], ("--values item '16.0'",)),
    (["sweep", "viscosity", "--config", "CFG", "--values", "0.1,abc"], ("--values item 'abc'",)),
], ids=("project-m", "lambda_pow-s", "heat-t", "sweep-modes", "sweep-viscosity"))
def test_cli_unparsable_value_exits_2_naming_it(config_path, tmp_path, capsys, argv, words):
    src = tmp_path / "f.bin"
    write_snapshot(src, Snapshot(16, 0.5, 0.0, 0.0, np.ones(16)))
    argv = [str(src) if a == "IN" else str(config_path) if a == "CFG" else a for a in argv]
    _refused(tmp_path, capsys, argv, *words)


@pytest.mark.parametrize("op, param", [
    ("heat", "t=nan"), ("heat", "t=-1"),
    ("lambda_neg_heat", "s=nan"), ("lambda_neg_heat", "s=inf"), ("lambda_neg_heat", "s=0"),
])
def test_cli_op_refuses_out_of_range_values_naming_them(tmp_path, capsys, op, param):
    # a nan used to pass the range tests and write a snapshot of nans
    src, dst = tmp_path / "f.bin", tmp_path / "out.bin"
    write_snapshot(src, Snapshot(16, 0.5, 0.0, 0.0, np.ones(16)))
    assert main(["op", op, str(src), "-p", param, "--out", str(dst)]) == 2
    assert f"got {param}" in capsys.readouterr().err
    assert not dst.exists()


def test_cli_op_heat_at_infinite_time_gives_zeros(tmp_path):
    src, dst = tmp_path / "f.bin", tmp_path / "out.bin"
    write_snapshot(src, Snapshot(16, 0.5, 0.0, 0.0, np.ones(16)))
    assert main(["op", "heat", str(src), "-p", "t=inf", "--out", str(dst)]) == 0
    assert np.array_equal(read_snapshot(dst).coeffs, np.zeros(16))


def test_cli_verify_quick(capsys):
    assert main(["verify", "--level", "quick"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_verify_grid_built_tensor(tmp_path, capsys):
    path = tmp_path / "grid.npz"
    GridProducts(build_rectangle_basis(8), 64, 0.5).tensor().save(path)
    assert GalerkinTensor.load(path).mode == "grid"
    assert main(["verify", "--level", "quick", "--tensor", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_verify_corrupted_tensor_fails(tmp_path, capsys):
    t = assemble_tensor(build_rectangle_basis(4), 16, 0.5)
    t.vals = t.vals.copy()
    t.vals[2] += 1e-3
    bad = tmp_path / "bad.npz"
    t.save(bad)
    assert main(["verify", "--level", "quick", "--tensor", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "entry (j,k,l)=" in out


@pytest.mark.parametrize("change", [
    lambda a: a | dict(vals=2 * a["vals"]),
    lambda a: a | dict(alpha=0.3),
    lambda a: a | {n: a[n][:0] for n in ("j", "k", "l", "vals")},
], ids=["doubled-values", "alpha-0.3-header-over-alpha-0.5-values", "no-entries"])
def test_cli_verify_tensor_unlike_the_closed_form_fails(tmp_path, capsys, change):
    # each is antisymmetric with a vanishing diagonal; only the comparison
    # with the closed form at the file's m and alpha refuses it
    t = assemble_tensor(build_rectangle_basis(4), 16, 0.5)
    bad = tmp_path / "bad.npz"
    np.savez(bad, **change(dict(m=t.m, alpha=t.alpha, mode=t.mode,
                                j=t.j, k=t.k, l=t.l, vals=t.vals)))
    assert main(["verify", "--level", "quick", "--tensor", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL  tensor_structure" in out and "closed form: diff=" in out


def test_cli_verify_out_of_range_tensor_index_names_field(tmp_path, capsys):
    t = assemble_tensor(build_rectangle_basis(4), 16, 0.5)
    t.l = t.l.copy()
    t.l[5] = 16
    bad = tmp_path / "bad.npz"
    t.save(bad)
    assert main(["verify", "--level", "quick", "--tensor", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "field 'l'" in err and "index 16" in err


def test_cli_verify_tensor_with_malformed_header_exits_2_naming_the_field(tmp_path, capsys):
    t = assemble_tensor(build_rectangle_basis(4), 16, 0.5)
    bad = tmp_path / "bad.npz"
    np.savez(bad, m=16.7, alpha=np.nan, mode=t.mode, j=t.j, k=t.k, l=t.l, vals=t.vals)
    assert main(["verify", "--level", "quick", "--tensor", str(bad)]) == 2
    captured = capsys.readouterr()
    assert "field 'm' = 16.7" in captured.err and "PASS" not in captured.out


@pytest.mark.parametrize("m, evaluator", [(16, "analytic"), (64, "grid")])
def test_cli_manifest_names_the_evaluator_that_ran(tmp_path, m, evaluator):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.replace("m = 16", f"m = {m}").replace("t_final = 0.1", "t_final = 0.01"))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_manifest((out / "manifest.ini").read_text()).tensor_mode == evaluator


def test_cli_sweep_manifest_names_every_evaluator(config_path, tmp_path):
    assert main(["sweep", "modes", "--config", str(config_path), "--values", "16,64",
                 "--out", str(tmp_path / "sw")]) == 0
    sweep_manifest = read_manifest((tmp_path / "sw" / "manifest.ini").read_text())
    assert sweep_manifest.tensor_mode == "analytic,grid"


def test_cli_out_dir_with_percent_writes_a_manifest_that_reruns(config_path, tmp_path):
    # values are literal: an output path holding `%` is no interpolation syntax
    first, second = tmp_path / "out%1", tmp_path / "re %(m)s"
    assert main(["simulate", "--config", str(config_path), "--out", str(first)]) == 0
    manifest = read_manifest((first / "manifest.ini").read_text())
    assert manifest.output_dir == str(first)
    assert main(["simulate", "--config", str(first / "manifest.ini"), "--out", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir() if p.name != "manifest.ini")
    assert names == sorted(p.name for p in second.iterdir() if p.name != "manifest.ini")
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("name", ("%(m)s.bin", "snap%1.bin"))
def test_initial_file_path_with_percent_is_read_literally(tmp_path, name):
    coeffs = np.random.default_rng(2).standard_normal(16)
    write_snapshot(tmp_path / name, Snapshot(16, 0.5, 0.0, 0.0, coeffs))
    p = tmp_path / "run.ini"
    p.write_text(CONFIG.replace("single_mode", f"file:{tmp_path / name}"))
    assert load_config(p).initial == f"file:{tmp_path / name}"
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
    assert np.array_equal(read_snapshot(out / "snapshot_000000.bin").coeffs, coeffs)


@pytest.mark.parametrize("m", (16, 64))
def test_run_resumed_from_a_mid_run_snapshot_ends_bit_identical(tmp_path, m):
    # m = 16 runs the tensor (mode order plus a trailing 1), m = 64 grid
    # products; the resumed run's first rhs is the one the whole run
    # evaluated at that record and reused as the next step's k1
    whole = tmp_path / "whole"
    p = tmp_path / "run.ini"
    p.write_text(CONFIG.replace("m = 16", f"m = {m}").replace("single_mode", "random"))
    assert main(["simulate", "--config", str(p), "--out", str(whole)]) == 0
    mid = whole / "snapshot_000005.bin"  # step 50 of 100
    assert read_snapshot(mid).t == pytest.approx(0.05)
    p.write_text(CONFIG.replace("m = 16", f"m = {m}").replace("single_mode", f"file:{mid}")
                 .replace("t_final = 0.1", "t_final = 0.05"))
    resumed = tmp_path / "resumed"
    assert main(["simulate", "--config", str(p), "--out", str(resumed)]) == 0
    for i in range(6):
        want = read_snapshot(whole / f"snapshot_{i + 5:06d}.bin").coeffs
        assert read_snapshot(resumed / f"snapshot_{i:06d}.bin").coeffs.tobytes() == want.tobytes()


@pytest.mark.parametrize("t_final", ("0.1004", "0.0996", "1e-4"))
def test_cli_t_final_off_the_dt_grid_exits_2_naming_it(tmp_path, capsys, t_final):
    p = tmp_path / "run.ini"
    p.write_text(CONFIG.replace("t_final = 0.1", f"t_final = {t_final}"))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "t_final" in err and "dt = 0.001" in err
    assert not (tmp_path / "o").exists()


def test_cli_unknown_initial_exits_2_naming_the_key(tmp_path, capsys):
    p = tmp_path / "run.ini"
    p.write_text(CONFIG.replace("single_mode", "nosuch"))
    _refused(tmp_path, capsys, ["simulate", "--config", str(p)], "'initial'", "'nosuch'")
    _refused(tmp_path, capsys, ["sweep", "viscosity", "--config", str(p), "--values", "0.1"],
             "'initial'", "'nosuch'")


@pytest.mark.parametrize("key", ("epsilon", "dt"))
@pytest.mark.parametrize("value", ("nan", "inf"))
def test_cli_non_finite_epsilon_or_dt_exits_2_naming_the_key(tmp_path, capsys, key, value):
    # a nan epsilon used to integrate and exit 3 with a nan stability
    # number, a nan dt to be reported against t_final
    p = tmp_path / "run.ini"
    line = {"epsilon": "epsilon = 0.01", "dt": "dt = 1e-3"}[key]
    p.write_text(CONFIG.replace(line, f"{key} = {value}"))
    err = _refused(tmp_path, capsys, ["simulate", "--config", str(p)],
                   f"{key} must be finite", f"got {value}")
    assert "t_final" not in err
    _refused(tmp_path, capsys, ["sweep", "viscosity", "--config", str(p), "--values", "0.1"],
             f"{key} must be finite")


def test_cli_sweep_refuses_a_nan_viscosity_value(config_path, tmp_path, capsys):
    _refused(tmp_path, capsys,
             ["sweep", "viscosity", "--config", str(config_path), "--values", "0.1,nan"],
             "epsilon must be finite", "got nan")


def test_cli_negative_seed_exits_2_naming_the_key(config_path, tmp_path, capsys):
    # seed = -1 used to fail in the random generator with a message naming no key
    p = tmp_path / "run.ini"
    p.write_text(CONFIG.replace("seed = 0", "seed = -1"))
    _refused(tmp_path, capsys, ["simulate", "--config", str(p)], "seed must be >= 0, got -1")
    _refused(tmp_path, capsys, ["simulate", "--config", str(config_path), "--seed", "-1"],
             "seed must be >= 0, got -1")
    _refused(tmp_path, capsys, ["sweep", "viscosity", "--config", str(config_path),
                                "--values", "0.1", "--seed", "-1"], "seed must be >= 0")


def test_cli_mode_sweep_from_a_smaller_snapshot_exits_2_naming_the_key(tmp_path, capsys):
    # the tail fit needs the datum on the K = 5 square (m = 25); an m = 20
    # snapshot holds V_16 and V_20 for the members but not that square
    snap = tmp_path / "m20.bin"
    coeffs = np.random.default_rng(4).standard_normal(20)
    write_snapshot(snap, Snapshot(20, 0.5, 0.0, 0.0, coeffs))
    p = tmp_path / "run.ini"
    p.write_text(CONFIG.replace("single_mode", f"file:{snap}"))
    _refused(tmp_path, capsys, ["sweep", "modes", "--config", str(p), "--values", "16,20"],
             "key 'initial'", "tail decay on the largest basis", "m = K^2 = 25")


def test_cli_missing_initial_file_leaves_no_directory(tmp_path, capsys):
    p = tmp_path / "run.ini"
    p.write_text(CONFIG.replace("single_mode", f"file:{tmp_path / 'absent.bin'}"))
    _refused(tmp_path, capsys, ["simulate", "--config", str(p)], "absent.bin")


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    p = tmp_path / "run.ini"
    p.write_text(example)
    assert load_config(p) == SimConfig(alpha=0.5, epsilon=0.01, m=16, dt=1e-3, T=0.5)
