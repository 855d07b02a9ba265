"""Span tracer and graph statistics for the traced benchmark run.

The tracer wraps public functions at the module attributes the program looks
them up through (``geoattn.model.kernel_tensor``, ``geoattn.autodiff.grad``,
``geoattn.training.Adam.step``, ...), so the program itself is unchanged.
Each call becomes a span ``[name, start_ns, end_ns, parent_index, op_id]``
kept in memory; the caller writes them out once, when the run ends.  The op
id is the optimiser step on training workloads and the molecule on inference.
"""

from __future__ import annotations

import gc
import statistics
import time

from geoattn import autodiff as ad
from geoattn import cli, geometry, model, training

# (owner, attribute, span name); "autodiff.grad" is split into
# grad_coords / grad_params by what it differentiates with respect to
TRACED = [
    (model, "pairwise_distances", "geometry.distances"),
    (geometry, "expand_basis", "geometry.basis"),
    (model, "kernel_tensor", "geometry.kernel"),
    (model, "geo_msa", "attention.msa"),
    (model, "ffn", "model.ffn"),
    (ad, "layer_norm", "autodiff.layer_norm"),
    (model.GeoTModel, "readout", "model.readout"),
    (model.GeoTModel, "forward_parts", "model.forward"),
    (ad, "grad", "autodiff.grad"),
    (cli, "load_checkpoint", "model.load_checkpoint"),
    (cli, "parse_xyz_frames", "data.parse"),
    (cli, "write_xyz_frames", "data.write"),
    (training, "molecule_loss", "training.loss"),
    (training.Adam, "step", "training.adam"),
    (training, "energy_mae", "training.eval"),
]


class Tracer:
    """Records spans while installed; ``op_unit`` is "step" or "molecule"."""

    def __init__(self, op_unit: str):
        self.op_unit = op_unit
        self.spans: list[list] = []
        self.forward_calls = 0
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._coords = None        # coordinate leaf of the latest forward pass
        self._molecule = None      # molecule of the latest forward pass

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in TRACED:
            self._wrap(owner, attr, name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _wrap(self, owner, attr, name):
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            label = name
            if name == "model.forward":
                self._before_forward(args[1])
            elif name == "autodiff.grad":
                label = self._grad_label(args[1] if len(args) > 1 else kwargs["wrt"])
            index = len(self.spans)
            span = [label, 0, 0, self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if name == "model.forward":
                self._coords = result[1]
            elif name == "training.adam":
                self.op += 1
            return result

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def _before_forward(self, molecule) -> None:
        self.forward_calls += 1
        if self.op_unit == "molecule" and molecule is not self._molecule:
            if self._molecule is not None:
                self.op += 1
            self._molecule = molecule

    def _grad_label(self, wrt) -> str:
        first = next(iter(wrt), None)
        if first is not None and first is self._coords:
            return "autodiff.grad_coords"
        return "autodiff.grad_params" if len(wrt) > 1 else "autodiff.grad_other"

    # -- report -------------------------------------------------------------

    def report(self, ops: int) -> dict:
        """Per span name: calls, inclusive and self milliseconds per op."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        rows: dict[str, list] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            row = rows.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        return {name: {"calls": calls,
                       "ms_per_op": incl / 1e6 / ops,
                       "self_ms_per_op": own / 1e6 / ops}
                for name, (calls, incl, own) in sorted(rows.items())}


# ---------------------------------------------------------------------------
# graph statistics, computed after the timed rounds by walking Tensor.parents

def _reachable(root: ad.Tensor) -> list:
    """Every tensor below ``root``, parents before children."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node.parents)
    return order


def graph_stats(root: ad.Tensor, coords: ad.Tensor | None = None) -> dict:
    """Node count (tracked tensors, as a gradient sweep visits them), computed
    MiB of ``.data`` held by every tensor in the graph, and the share of
    tracked nodes that lie on a path from ``coords``."""
    nodes = _reachable(root)
    tracked = [t for t in nodes if t.requires_grad]
    stats = {"nodes": len(tracked),
             "mb": sum(t.data.nbytes for t in nodes) / 2**20}
    if coords is not None:
        on_path: set[int] = set()
        for t in tracked:
            if t is coords or any(id(p) in on_path for p in t.parents):
                on_path.add(id(t))
        stats["coords_share"] = len(on_path) / len(tracked)
    return stats


def graph_summary(workload, state) -> dict:
    """Mean graph statistics of the forward, force and (training) loss graphs
    over a few of the workload's molecules."""
    net = workload.new_model()
    rows: dict[str, list] = {"forward": [], "forces": [], "loss": []}
    for mol in workload.stats_molecules(state):
        gc.collect()
        energy, coords = net.forward_parts(mol)
        rows["forward"].append(graph_stats(energy, coords))
        force, _, _ = net.force_tensor(mol)
        rows["forces"].append(graph_stats(force))
        if workload.stats_loss is not None:
            rows["loss"].append(graph_stats(workload.stats_loss(net, mol, state)))
    return {kind: {k: statistics.fmean(r[k] for r in stats) for k in stats[0]}
            for kind, stats in rows.items() if stats}
