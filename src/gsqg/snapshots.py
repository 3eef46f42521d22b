"""Binary snapshot format, diagnostics CSV, and run manifests.

Snapshot layout: magic "GSQG", version u16, m u32, alpha f64, eps f64,
t f64, then m little-endian f64 coefficients.  CSV floats are written with
17 significant digits so text round trips are lossless.
"""

from __future__ import annotations

import configparser
import io
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

MAGIC = b"GSQG"
VERSION = 1
_HEADER = struct.Struct("<4sHIddd")

CSV_COLUMNS = (
    "t",
    "l2_theta",
    "h1_theta",
    "hdot_psi",
    "energy_residual",
    "hamiltonian_residual",
)


@dataclass
class Snapshot:
    m: int
    alpha: float
    epsilon: float
    t: float
    coeffs: np.ndarray


def write_snapshot(path, snap: Snapshot):
    data = _HEADER.pack(MAGIC, VERSION, snap.m, snap.alpha, snap.epsilon, snap.t)
    coeffs = np.asarray(snap.coeffs, dtype="<f8")
    if len(coeffs) != snap.m:
        raise ValueError(f"coefficient count {len(coeffs)} does not match m={snap.m}")
    Path(path).write_bytes(data + coeffs.tobytes())


def read_snapshot(path) -> Snapshot:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated snapshot header")
    magic, version, m, alpha, eps, t = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    coeffs = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    if len(coeffs) != m:
        raise ValueError(f"{path}: expected {m} coefficients, found {len(coeffs)}")
    return Snapshot(m, alpha, eps, t, coeffs.copy())


def format_float(x: float) -> str:
    return f"{x:.17g}"


def write_diagnostics_csv(path, times: np.ndarray, diagnostics: dict):
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for i, t in enumerate(times):
            row = [format_float(t)] + [
                format_float(diagnostics[c][i]) for c in CSV_COLUMNS[1:]
            ]
            fh.write(",".join(row) + "\n")


def write_table_csv(path, columns: list[str], rows: list[list[float]]):
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(format_float(v) for v in row) + "\n")


def run_file_parser() -> configparser.ConfigParser:
    """The parser of every run file, configs and manifests alike.  Values are
    literal: with interpolation off, a `%` in a path is kept as written."""
    return configparser.ConfigParser(interpolation=None)


@dataclass
class RunManifest:
    """Resolved configuration plus provenance; serializes to INI text, the
    config as the [run] section and every other field under [manifest]."""

    config: dict
    tool_version: str
    tensor_mode: str
    created: str
    output_dir: str

    def dumps(self) -> str:
        cp = run_file_parser()
        cp["run"] = {k: str(v) for k, v in self.config.items()}
        provenance = (f.name for f in fields(self) if f.name != "config")
        cp["manifest"] = {name: getattr(self, name) for name in provenance}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def dump(self, path):
        Path(path).write_text(self.dumps())
