"""The full energy model: atom embedding, kernel-gated encoder blocks,
sum-pool readout, and forces by differentiating the energy w.r.t. the
atomic coordinates.

Energies depend on coordinates only through the interatomic distances of
the i <= j pairs, so they are invariant under rigid rotations and
translations by construction, and the sum-pool readout makes them invariant
under atom permutations.  Every forward runs a group of molecules as one
graph (see :func:`groups`), one molecule as a group of one; a molecule's
results in a larger group are those of its group of one up to rounding.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import zipfile
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .attention import (AttentionParams, AttentionRecord, geo_msa,
                        init_attention_params)
from .errors import ConfigError, DataError
from .geometry import (MAX_ATOMIC_NUMBER, BasisConfig, KernelParams, Molecule,
                       glorot, init_kernel_params, kernel_tensor,
                       pair_geometry, pairwise_distances, param)


@dataclass
class ModelConfig:
    """Architecture settings; the defaults are sized for laptop CPUs."""

    n_layers: int = 4
    d_m: int = 64
    n_heads: int = 4
    d_h: int = 128
    block_kind: str = "sequential"      # or "parallel_mlp"
    kernel_mode: str = "atom_aware"     # or "plain"
    basis: BasisConfig = field(default_factory=BasisConfig)
    use_attn_scale: bool = False
    use_softmax_baseline: bool = False
    scale_per_head: bool = True         # attention scale sqrt(d_m / h), else sqrt(d_m)
    d_rbf: int = 64
    d_emb2: int = 64
    force_sign: str = "paper"           # "paper": F = +dE/dr, "physical": F = -dE/dr
    # output affine applied to the raw readout; set from training-target
    # statistics so the network itself works near unit scale
    out_shift: float = 0.0
    out_scale: float = 1.0
    # per-element reference energies (str(Z) -> energy), the standard
    # composition baseline fit by least squares from the training targets;
    # forces are unaffected since the baseline is constant per molecule
    atom_refs: dict = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.basis, dict):
            self.basis = BasisConfig(**self.basis)
        for name in ("n_layers", "d_m", "n_heads", "d_h", "d_rbf", "d_emb2"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.d_m % self.n_heads != 0:
            raise ConfigError("d_m must be divisible by n_heads")
        if self.block_kind not in ("sequential", "parallel_mlp"):
            raise ConfigError(f"unknown block kind {self.block_kind!r}")
        if self.kernel_mode not in ("plain", "atom_aware"):
            raise ConfigError(f"unknown kernel mode {self.kernel_mode!r}")
        if self.force_sign not in ("paper", "physical"):
            raise ConfigError(f"unknown force sign {self.force_sign!r}")

    @property
    def head_dim(self) -> int:
        return self.d_m // self.n_heads

    @property
    def scale(self) -> float:
        return float(self.head_dim if self.scale_per_head else self.d_m)


@dataclass
class LayerParams:
    attn: AttentionParams
    kernel: KernelParams
    ffn_w1: ad.Tensor
    ffn_b1: ad.Tensor
    ffn_w2: ad.Tensor
    ffn_b2: ad.Tensor
    ln0_gain: ad.Tensor
    ln0_bias: ad.Tensor
    ln1_gain: ad.Tensor | None      # the second layer norm, sequential blocks only
    ln1_bias: ad.Tensor | None


def named_tensors(params, prefix: str) -> dict[str, ad.Tensor]:
    """The tensors of parameter dataclass ``params`` keyed by field path under
    ``prefix``: nested dataclasses recurse, ``None`` fields are skipped."""
    out = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if dataclasses.is_dataclass(value):
            out.update(named_tensors(value, f"{prefix}.{f.name}"))
        elif value is not None:
            out[f"{prefix}.{f.name}"] = value
    return out


# The largest padded pair count of a group of several molecules that run as
# one graph (see groups): B * N_max(N_max+1)/2 for B molecules of at most
# N_max atoms, since attention and the kernel run on B x N_max x N_max slots.
# 16 molecules of up to 8 atoms fit, so a 4-8 atom batch of 4 or a
# validation set of 16 is one group; two molecules of 24 atoms (300 pairs
# each) do not.  Scoring 4-8 atom molecules with the 2-layer, d_m 32 model
# cost 0.48 ms each one by one, 0.21 ms in groups of 144 pairs, and
# 0.12-0.14 ms from 300 pairs up.
PAIR_BUDGET = 576


def groups(molecules) -> list[list[Molecule]]:
    """``molecules`` in order, cut into runs of consecutive molecules whose
    padded pair count, B * N_max(N_max+1)/2, stays within
    :data:`PAIR_BUDGET`; a molecule above it is a group of one.  Refuses an
    empty list."""
    if not molecules:
        raise DataError("no molecules to group")
    out: list[list[Molecule]] = []
    n_max = 0
    for mol in molecules:
        n = max(n_max, mol.n_atoms)
        if out and (len(out[-1]) + 1) * n * (n + 1) // 2 <= PAIR_BUDGET:
            out[-1].append(mol)
        else:
            out.append([mol])
            n = mol.n_atoms
        n_max = n
    return out


class Group(NamedTuple):
    """Molecules that run as one graph: their atom rows stacked in order."""

    molecules: list
    atomic_numbers: np.ndarray      # (sum N,)
    coords: np.ndarray              # (sum N, 3)
    segment: np.ndarray             # (sum N,) the molecule of each row
    pairs: ad.PairIndex             # their pairs, ad.group_pairs of their sizes


def stack(molecules) -> Group:
    """``molecules`` as one :class:`Group`, their rows in order."""
    mols = list(molecules)
    sizes = tuple(m.n_atoms for m in mols)
    return Group(mols, np.concatenate([m.atomic_numbers for m in mols]),
                 np.concatenate([m.coords for m in mols]),
                 np.repeat(np.arange(len(mols)), sizes), ad.group_pairs(sizes))


def ffn(x: ad.Tensor, layer: LayerParams) -> ad.Tensor:
    h = ad.elu(ad.add(ad.einsum("nd,de->ne", x, layer.ffn_w1), layer.ffn_b1))
    return ad.add(ad.einsum("nd,de->ne", h, layer.ffn_w2), layer.ffn_b2)


class GeoTModel:
    """Trainable parameters plus the forward/force evaluation paths."""

    def __init__(self, config: ModelConfig, layers: list[LayerParams],
                 atom_embedding: ad.Tensor, w_pool: ad.Tensor, b_out: ad.Tensor):
        self.config = config
        self.layers = layers
        self.atom_embedding = atom_embedding
        self.w_pool = w_pool
        self.b_out = b_out

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0) -> "GeoTModel":
        return cls._build(config, np.random.default_rng(seed))

    @classmethod
    def _build(cls, config: ModelConfig, rng: np.random.Generator | None) -> "GeoTModel":
        """Parameters drawn from ``rng``, or shape-only placeholders without
        it (see :func:`geometry.param`)."""
        d_m = config.d_m
        std = 1.0 / np.sqrt(d_m)
        embedding = param(rng, (MAX_ATOMIC_NUMBER + 1, d_m),
                          lambda s: rng.normal(0.0, std, size=s))
        seq = config.block_kind == "sequential"
        layers = []
        for _ in range(config.n_layers):
            layers.append(LayerParams(
                attn=init_attention_params(rng, d_m, config.use_attn_scale),
                kernel=init_kernel_params(rng, config.basis, d_m,
                                          mode=config.kernel_mode,
                                          d_rbf=config.d_rbf, d_emb2=config.d_emb2),
                ffn_w1=glorot(rng, d_m, config.d_h),
                ffn_b1=param(rng, config.d_h),
                ffn_w2=glorot(rng, config.d_h, d_m),
                ffn_b2=param(rng, d_m),
                ln0_gain=param(rng, d_m, np.ones),
                ln0_bias=param(rng, d_m),
                ln1_gain=param(rng, d_m, np.ones) if seq else None,
                ln1_bias=param(rng, d_m) if seq else None,
            ))
        return cls(config, layers, embedding, glorot(rng, d_m, 1), param(rng, ()))

    # -- parameters ---------------------------------------------------------

    def params(self) -> dict[str, ad.Tensor]:
        out = {"atom_embedding": self.atom_embedding}
        for i, layer in enumerate(self.layers):
            out.update(named_tensors(layer, f"layer{i}"))
        return {**out, "w_pool": self.w_pool, "b_out": self.b_out}

    # -- forward ------------------------------------------------------------

    def embed(self, molecule: "Molecule | Group") -> ad.Tensor:
        z = molecule.atomic_numbers
        if np.any(z > MAX_ATOMIC_NUMBER) or np.any(z < 1):
            raise DataError("atomic number out of range")
        return ad.take_rows(self.atom_embedding, z)

    def _block(self, x: ad.Tensor, lam, layer: LayerParams, trace, pairs) -> ad.Tensor:
        cfg = self.config
        msa = geo_msa(x, lam, layer.attn, cfg, pairs, trace=trace)
        if cfg.block_kind == "sequential":
            xt = ad.layer_norm(ad.add(msa, x), layer.ln0_gain, layer.ln0_bias)
            return ad.layer_norm(ad.add(ffn(xt, layer), xt), layer.ln1_gain, layer.ln1_bias)
        mixed = ad.add(ad.add(msa, ffn(x, layer)), x)
        return ad.layer_norm(mixed, layer.ln0_gain, layer.ln0_bias)

    def readout(self, x: ad.Tensor, segment: np.ndarray) -> ad.Tensor:
        """Sum-pool the rows of each molecule (``segment``, the molecule of
        each row) and project: one value per molecule."""
        n = int(segment[-1]) + 1
        pooled = ad.put_rows(x, segment, n)                                 # B x d_m
        return ad.add(ad.reshape(ad.einsum("nd,de->ne", pooled, self.w_pool), (n,)), self.b_out)

    def forward_parts(self, molecules: "Molecule | list[Molecule]",
                      trace: "list[AttentionRecord] | None" = None):
        """(B,) energies of a list of molecules, run as one group (see
        :func:`groups`), and the leaf of their stacked coordinates they were
        built from.  One :class:`Molecule` is a list of one."""
        group = stack([molecules] if isinstance(molecules, Molecule) else molecules)
        coords = ad.parameter(group.coords)
        raw = self.readout(self._encode(group, coords, trace), group.segment)
        baseline = [self.config.out_shift + sum(self.config.atom_refs.get(str(z), 0.0)
                                                for z in mol.atomic_numbers)
                    for mol in group.molecules]
        return ad.add(ad.mul(raw, self.config.out_scale), baseline), coords

    def _encode(self, group: Group, coords: ad.Tensor, trace) -> ad.Tensor:
        geo = None      # the softmax baseline uses no geometry
        if not self.config.use_softmax_baseline:
            # distances and basis of the i <= j pairs, shared by every layer
            geo = pair_geometry(group.pairs, pairwise_distances(coords, group.pairs),
                                self.config.basis)
        x = self.embed(group)
        for layer in self.layers:
            lam = None
            if geo is not None:
                lam = kernel_tensor(layer.kernel, self.config.basis, geo,
                                    group.atomic_numbers)
            x = self._block(x, lam, layer, trace, group.pairs)
        return x

    def energy(self, molecule: Molecule) -> float:
        return float(self.energies([molecule])[0])

    def energies(self, molecules: list[Molecule]) -> np.ndarray:
        """The energy of each molecule, from one forward per group (see
        :func:`groups`) that records no graph."""
        with ad.no_graph():
            return np.concatenate([self.forward_parts(g)[0].data for g in groups(molecules)])

    def force_tensor(self, molecules: "Molecule | list[Molecule]", create_graph: bool = True):
        """(force tensor, energy tensor, coords leaf) of :meth:`forward_parts`,
        the forces the rows of one gradient of the summed energies.  With
        ``create_graph`` the forces can be differentiated again.  Without it
        the coordinate sweep frees the energy's graph, which then cannot be
        swept again."""
        e, coords = self.forward_parts(molecules)
        (de_dr,) = ad.grad(ad.tensor_sum(e), [coords], create_graph=create_graph)
        f = de_dr if self.config.force_sign == "paper" else ad.neg(de_dr)
        return f, e, coords

    def energy_and_forces(self, molecule: Molecule) -> tuple[float, np.ndarray]:
        return self.energies_and_forces([molecule])[0]

    def energies_and_forces(self, molecules: list[Molecule]) -> list[tuple[float, np.ndarray]]:
        """Energy and forces of each molecule, from one forward and one
        coordinate gradient per group (see :func:`groups`).  The forward
        records only the graph of the coordinates (the parameters frozen),
        and the gradient records none and frees that graph as it runs."""
        out = []
        with ad.frozen(self.params().values()):
            for group in groups(molecules):
                # arrays only: a tensor kept into the next group's forward keeps its graph
                f, e, _ = (t.data for t in self.force_tensor(group, create_graph=False))
                cut = np.cumsum([m.n_atoms for m in group])[:-1]
                out.extend(zip(e.tolist(), np.split(f.copy(), cut)))
        return out

    def forces(self, molecule: Molecule) -> np.ndarray:
        return self.energy_and_forces(molecule)[1]


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(model: GeoTModel, path) -> None:
    """Single .npz container: config JSON plus every named parameter."""
    write_checkpoint(path, model.config, {name: t.data for name, t in model.params().items()})


def write_checkpoint(path, config: ModelConfig, arrays: dict) -> None:
    """The checkpoint of a model of ``config`` whose parameters hold
    ``arrays``, by name in :meth:`GeoTModel.params` order."""
    cfg_json = json.dumps(dataclasses.asdict(config))
    np.savez(path, __config__=np.frombuffer(cfg_json.encode(), dtype=np.uint8),
             **{f"param:{name}": a for name, a in arrays.items()})


def _check_fields(cls, values, what: str) -> None:
    """A checkpoint's config holds exactly the fields of ``cls``: a missing
    one would silently take its default."""
    if not isinstance(values, dict):
        raise ConfigError(f"checkpoint {what} is not a JSON object")
    names = {f.name for f in dataclasses.fields(cls)}
    extra, missing = sorted(set(values) - names), sorted(names - set(values))
    if extra or missing:
        raise ConfigError(f"checkpoint {what} has unknown fields {extra} "
                          f"and lacks fields {missing}")


def load_checkpoint(path) -> GeoTModel:
    """The model saved at ``path``, a file name or a binary file object."""
    with contextlib.ExitStack() as stack:
        fh = path
        if isinstance(path, (str, os.PathLike)):
            fh = stack.enter_context(open(path, "rb"))
        try:
            blob = np.load(fh)    # pickles are refused, not loaded
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ConfigError(f"{path} is not a geoattn checkpoint: not an .npz archive") from exc
        if not isinstance(blob, np.lib.npyio.NpzFile):
            raise ConfigError(f"{path} is not a geoattn checkpoint: a bare .npy array")
        stack.enter_context(blob)
        if "__config__" not in blob.files:
            raise ConfigError(f"{path} is not a geoattn checkpoint: no __config__")
        try:
            fields = json.loads(bytes(blob["__config__"]).decode())
        except ValueError as exc:       # bad JSON or bad UTF-8
            raise ConfigError(f"{path}: checkpoint __config__ is not JSON ({exc})") from exc
        _check_fields(ModelConfig, fields, "config")
        _check_fields(BasisConfig, fields["basis"], "basis config")
        config = ModelConfig(**fields)
        model = GeoTModel._build(config, None)      # every parameter filled below
        params = model.params()
        names = [key[len("param:"):] for key in blob.files if key.startswith("param:")]
        missing = sorted(set(params) - set(names))
        if missing:
            raise ConfigError(f"checkpoint lacks parameters: {', '.join(missing)}")
        for name in names:
            if name not in params:
                # models without AttnScale once saved an unused w_a = 0: drop it
                if (name.endswith(".attn.w_a") and name[:-3] + "wq" in params
                        and np.array_equal(blob[f"param:{name}"], 0.0)):
                    continue
                raise ConfigError(f"checkpoint parameter {name!r} not in model")
            try:
                value = blob[f"param:{name}"]     # each access reads the zip member
            except (ValueError, zipfile.BadZipFile) as exc:
                raise ConfigError(f"{path}: checkpoint parameter {name!r} is unreadable "
                                  f"({exc})") from exc
            if value.dtype.kind != "f":     # astype would drop an imaginary part silently
                raise ConfigError(f"{path}: checkpoint parameter {name!r} has dtype "
                                  f"{value.dtype}, not a float dtype")
            if params[name].shape != value.shape:
                raise ConfigError(f"shape mismatch for {name!r}: "
                                  f"{params[name].shape} vs {value.shape}")
            params[name].data = value.astype(params[name].data.dtype, copy=False)
    bad = sorted(name for name, t in params.items() if not np.isfinite(t.data).all())
    if bad:
        raise ConfigError(f"checkpoint holds non-finite values in: {', '.join(bad)}")
    return model


def checkpoint_bytes(model: GeoTModel) -> bytes:
    buf = io.BytesIO()
    save_checkpoint(model, buf)
    return buf.getvalue()
