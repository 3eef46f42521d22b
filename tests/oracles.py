"""Test oracles that no run, sweep, verify level or `gsqg op` reaches: the
perpendicular gradient sampled on a grid, and a reader of run manifests."""

from dataclasses import fields

import numpy as np

from gsqg.basis import GridField, QuadratureGrid, SpectralField, gradient
from gsqg.snapshots import RunManifest, run_file_parser


def perp_gradient(f: SpectralField, grid: QuadratureGrid) -> GridField:
    """Perpendicular gradient (-d/dy, d/dx) sampled on the grid."""
    g = gradient(f, grid)
    return GridField(grid, np.stack([-g.values[1], g.values[0]]))


def read_manifest(text: str) -> RunManifest:
    """The RunManifest whose dumps() is text: the [run] section as the config,
    every other field from [manifest]."""
    cp = run_file_parser()
    cp.read_string(text)
    provenance = {f.name: cp["manifest"][f.name] for f in fields(RunManifest)
                  if f.name != "config"}
    return RunManifest(config=dict(cp["run"]), **provenance)
