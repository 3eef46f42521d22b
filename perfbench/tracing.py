"""Span tracing of gsqg's public functions from outside the package.

A Tracer wraps each listed function and rebinds the wrapper under every name
that any loaded gsqg.* module (the package included) holds for it, so calls
between gsqg modules are seen too; methods are wrapped on their class.  Each
call records a span [name, parent, op, start, end] in memory.  Self time is a
span's duration minus its children's: every call runs on one thread, so
children are nested and disjoint.  Count hooks add work counters
(transform flops, tensor nonzeros, bytes written) at the same boundaries.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict


def _transform_flops(n_transforms):
    # dense separable sine transform of a (K, K) array on an (N, N) grid:
    # two matrix products, 2NK^2 + 2N^2K flops, computed from the shapes
    def hook(counts, args, result):
        if hasattr(args[0], "grid"):  # analyze(GridField, EigenBasis)
            N, K = args[0].grid.N, result.basis.K
        else:  # synthesize / gradient(SpectralField, QuadratureGrid)
            N, K = result.grid.N, args[0].basis.K
        counts["basis.transform_flop_computed"] += n_transforms * (
            2 * N * K * K + 2 * N * N * K)
    return hook


def _tensor_size(counts, args, result):
    counts["galerkin.tensor_nnz"] += result.nnz
    # j, k, l index arrays plus values: four 8-byte entries per nonzero
    counts["galerkin.tensor_bytes_computed"] += 32 * result.nnz


def _file_bytes(counts, args, result):
    counts["snapshots.bytes_written"] += os.path.getsize(args[0])


# (module, attribute or Class.method, span name, count hook)
TARGETS = [
    ("gsqg.basis", "synthesize", "basis.synthesize", _transform_flops(1)),
    ("gsqg.basis", "analyze", "basis.analyze", _transform_flops(1)),
    ("gsqg.basis", "gradient", "basis.gradient", _transform_flops(2)),
    ("gsqg.basis", "embed", "basis.embed", None),
    ("gsqg.basis", "EigenBasis.mode_arrays", "basis.mode_arrays", None),
    ("gsqg.fractional", "apply_lambda_power", "fractional.apply_lambda_power", None),
    ("gsqg.fractional", "lambda_neg_power_heat", "fractional.heat_oracle", None),
    ("gsqg.fractional", "lambda_pos_power_heat", "fractional.heat_oracle", None),
    ("gsqg.commutators", "comm_lambda_grad", "commutators.comm_lambda_grad", None),
    ("gsqg.commutators", "comm_neg_lambda_mult", "commutators.comm_neg_lambda_mult", None),
    ("gsqg.weakform", "n1", "weakform.n1", None),
    ("gsqg.weakform", "n2", "weakform.n2", None),
    ("gsqg.weakform", "n2_alt", "weakform.n2_alt", None),
    ("gsqg.weakform", "classical_transport", "weakform.classical_transport", None),
    ("gsqg.galerkin", "assemble_tensor", "galerkin.assemble_tensor", _tensor_size),
    ("gsqg.galerkin", "rhs", "galerkin.rhs", None),
    ("gsqg.galerkin", "step", "galerkin.step", None),
    ("gsqg.galerkin", "run", "galerkin.run", None),
    ("gsqg.galerkin", "GalerkinTensor.quadratic", "galerkin.quadratic", None),
    ("gsqg.experiments", "viscosity_sweep", "experiments.viscosity_sweep", None),
    ("gsqg.experiments", "weak_residual", "experiments.weak_residual", None),
    ("gsqg.experiments", "weak_continuity_terms", "experiments.weak_continuity_terms", None),
    ("gsqg.snapshots", "write_snapshot", "snapshots.write_snapshot", _file_bytes),
    ("gsqg.snapshots", "write_diagnostics_csv", "snapshots.write_diagnostics_csv", _file_bytes),
    ("gsqg.snapshots", "write_table_csv", "snapshots.write_table_csv", _file_bytes),
    ("gsqg.cli", "main", "cli.main", None),
    ("gsqg.cli", "load_config", "cli.load_config", None),
] + [
    ("gsqg.verify", f"check_{name}", f"verify.check.{name}", None)
    for name in (
        "tensor_structure", "inviscid_conservation", "viscous_balances",
        "heat_oracles", "representation_identity", "representation_equivalence",
        "adjoint_identity", "uniform_l2", "weak_residual", "weak_continuity",
    )
]


class Tracer:
    """In-memory spans and counters for calls into gsqg."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, op, start, end]
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.op, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets=TARGETS):
        """Wrap every target; undone by uninstall()."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gsqg" or n.startswith("gsqg."))]
        for modname, attr, name, hook in targets:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, hook))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, name, hook)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """(calls, self seconds, inclusive seconds) per span name."""
        calls, self_s, incl_s = Counter(), Counter(), Counter()
        child = defaultdict(float)
        for name, parent, _op, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, _parent, _op, t0, t1) in enumerate(self.spans):
            calls[name] += 1
            incl_s[name] += t1 - t0
            self_s[name] += (t1 - t0) - child.get(i, 0.0)
        return calls, self_s, incl_s

    def write(self, path):
        """All spans as CSV: id, parent, op, name, start_s, end_s."""
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            fh.writelines(
                f"{i},{p},{op},{name},{t0:.9f},{t1:.9f}\n"
                for i, (name, p, op, t0, t1) in enumerate(self.spans)
            )
