"""Command-line entry point: simulate, verify, sweep, and operator access.

Config files are INI text with a single [run] section whose keys are the
SimConfig field names (T is written t_final since INI keys are
case-insensitive) and whose values are literal, with no `%` interpolation.
A manifest written by `simulate` is itself a valid config, so runs can be
reproduced bit-exactly from their manifests.
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .basis import SpectralField, build_rectangle_basis, cutoff_for, restrict
from .commutators import comm_lambda_mult, comm_neg_lambda_mult, multiplier_catalog
from .experiments import mode_sweep, viscosity_sweep
from .fractional import (
    apply_lambda_power,
    heat_semigroup,
    lambda_neg_power_heat,
    lambda_pos_power_heat,
    project,
)
from .galerkin import BlowUpError, GalerkinTensor, SimConfig, evaluator_mode, run
from .snapshots import (
    RunManifest,
    Snapshot,
    read_snapshot,
    run_file_parser,
    write_diagnostics_csv,
    write_snapshot,
    write_table_csv,
)
from .verify import format_report, run_suite

#: INI keys are case-insensitive, so the SimConfig field T is written t_final
_RENAMED = {"T": "t_final"}
#: the [run] keys: INI key -> (SimConfig field, parser), in field order, which
#: is the order manifests write them; the parser is the type of the default
_RUN_KEYS = {_RENAMED.get(f.name, f.name): (f.name, type(f.default)) for f in fields(SimConfig)}
#: a key older versions wrote that changed nothing: still parsed, then dropped
_RETIRED = {"pad": (None, float)}


class ConfigError(ValueError):
    pass


def load_config(path) -> SimConfig:
    cp = run_file_parser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"{path}: config file not found or unreadable")
    if not cp.has_section("run"):
        raise ConfigError(f"{path}: missing [run] section")
    keys = _RUN_KEYS | _RETIRED
    kwargs = {}
    for key, raw in cp["run"].items():
        if key not in keys:
            raise ConfigError(
                f"{path}: unknown key {key!r} in [run] "
                f"(known: {', '.join(sorted(keys))})"
            )
        name, parse = keys[key]
        try:
            value = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: key {key!r}: {exc}") from exc
        if name is not None:
            kwargs[name] = value
    try:
        return SimConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def make_manifest(cfg: SimConfig, tensor_mode: str, out_dir) -> RunManifest:
    """The manifest of a run of `cfg`; its [run] section is a config that
    load_config reads back as `cfg`."""
    return RunManifest(
        config={key: getattr(cfg, name) for key, (name, _) in _RUN_KEYS.items()},
        tool_version=__version__,
        tensor_mode=tensor_mode,
        created=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        output_dir=str(out_dir),
    )


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    traj = run(cfg)
    # only after run(): a refused config leaves no directory behind
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, t in enumerate(traj.times):
        snap = Snapshot(cfg.m, cfg.alpha, cfg.epsilon, float(t), traj.snaps[i])
        write_snapshot(out / f"snapshot_{i:06d}.bin", snap)
    write_diagnostics_csv(out / "diagnostics.csv", traj.times, traj.diagnostics)
    make_manifest(cfg, evaluator_mode(cfg.m), out).dump(out / "manifest.ini")
    print(f"wrote {len(traj.times)} snapshots to {out}")
    return 0


def cmd_verify(args) -> int:
    tensor = GalerkinTensor.load(args.tensor) if args.tensor else None
    results = run_suite(args.level, tensor=tensor)
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    values = [v for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep values list is empty")

    parse = int if args.kind == "modes" else float
    values = [_parsed(parse, v, f"--values item {v!r}") for v in values]
    if args.kind == "modes":
        ms = values
        rep = mode_sweep(cfg, values)
    else:
        ms = [cfg.m]
        rep = viscosity_sweep(cfg, values)
    # only after the sweep: a refused config leaves no directory behind
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    columns = [rep.parameter] + list(rep.metrics) + list(rep.pair_diffs)
    rows = []
    for i, v in enumerate(rep.values):
        row = [float(v)] + [float(rep.metrics[k][i]) for k in rep.metrics]
        for k in rep.pair_diffs:
            d = rep.pair_diffs[k]
            row.append(float(d[i]) if i < len(d) else math.nan)
        rows.append(row)
    write_table_csv(out / f"sweep_{args.kind}.csv", columns, rows)
    evaluators = ",".join(dict.fromkeys(evaluator_mode(m) for m in ms))
    make_manifest(cfg, evaluators, out).dump(out / "manifest.ini")
    for name, val in rep.fits.items():
        print(f"{name}: {val:.4f}")
    print(f"wrote sweep report to {out / f'sweep_{args.kind}.csv'}")
    return 0


#: gsqg op NAME -> (library function, parameter, parser of its value, other
#: accepted keys); the commutators also take the multiplier named by
#: `-p a=NAME` (default one)
_OPS = {
    "lambda_pow": (apply_lambda_power, "s", float, ()),
    "heat": (heat_semigroup, "t", float, ()),
    "lambda_neg_heat": (lambda_neg_power_heat, "s", float, ()),
    "lambda_pos_heat": (lambda_pos_power_heat, "s", float, ()),
    "project": (project, "m", int, ()),
    "comm_neg_mult": (comm_neg_lambda_mult, "s", float, ("a",)),
    "comm_mult": (comm_lambda_mult, "s", float, ("a",)),
}


def _parsed(parse, raw: str, what: str):
    """parse(raw), or a ConfigError naming `what`."""
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def cmd_op(args) -> int:
    snap = read_snapshot(args.input)
    basis = build_rectangle_basis(cutoff_for(snap.m))
    coeffs = np.zeros(basis.size)
    coeffs[: snap.m] = snap.coeffs
    f = SpectralField(basis, coeffs)
    params = {}
    for item in args.param:
        if "=" not in item:
            raise ConfigError(f"malformed parameter {item!r}, expected key=value")
        k, v = item.split("=", 1)
        params[k] = v

    if args.name not in _OPS:
        raise ConfigError(
            f"unknown operator {args.name!r} (available: {', '.join(_OPS)})")
    fn, key, parse, others = _OPS[args.name]
    unknown = [k for k in params if k not in (key, *others)]
    if unknown:
        raise ConfigError(f"operator {args.name} takes no parameter {unknown[0]!r} "
                          f"(accepted: {', '.join((key, *others))})")
    if key not in params:
        raise ConfigError(f"operator requires parameter {key}=<value>")
    value = _parsed(parse, params[key], f"parameter {key}")
    if "a" in others:
        cat = multiplier_catalog()
        a_name = params.get("a", "one")
        if a_name not in cat:
            raise ConfigError(
                f"unknown multiplier {a_name!r} (available: {', '.join(cat)})"
            )
        out_field = restrict(fn(cat[a_name], f, value), basis)
    else:
        out_field = fn(f, value)

    out_snap = Snapshot(
        snap.m, snap.alpha, snap.epsilon, snap.t, out_field.coeffs[: snap.m]
    )
    write_snapshot(args.out, out_snap)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gsqg",
        description="Spectral Galerkin simulator for the generalized "
        "surface quasi-geostrophic equation with singular velocity",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="run one trajectory from a config file")
    ps.add_argument("--config", required=True, help="INI config with a [run] section")
    ps.add_argument("--out", default="out", help="output directory")
    ps.add_argument("--seed", type=int, default=None, help="override the config seed")
    ps.set_defaults(func=cmd_simulate)

    pv = sub.add_parser("verify", help="run the property verification suite")
    pv.add_argument("--level", choices=("quick", "full"), default="quick")
    pv.add_argument("--tensor", default=None, help="check a saved tensor file (npz)")
    pv.set_defaults(func=cmd_verify)

    pw = sub.add_parser("sweep", help="mode or viscosity convergence sweep")
    pw.add_argument("kind", choices=("modes", "viscosity"))
    pw.add_argument("--config", required=True, help="template run config")
    pw.add_argument("--values", required=True, help="comma-separated sweep values")
    pw.add_argument("--out", default="out", help="output directory")
    pw.add_argument("--seed", type=int, default=None, help="override the config seed")
    pw.set_defaults(func=cmd_sweep)

    po = sub.add_parser("op", help="apply one operator to a snapshot file")
    po.add_argument("name", help="operator name, e.g. lambda_pow")
    po.add_argument("input", help="input field in snapshot format")
    po.add_argument("--out", default="out.bin", help="output snapshot path")
    po.add_argument(
        "--param", "-p", action="append", default=[], help="key=value, repeatable"
    )
    po.set_defaults(func=cmd_op)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"blow-up abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
