"""The full energy model: atom embedding, kernel-gated encoder blocks,
sum-pool readout, and forces by differentiating the energy w.r.t. the
atomic coordinates.

Energies depend on coordinates only through the interatomic distances of
the i <= j pairs, so they are invariant under rigid rotations and
translations by construction, and the sum-pool readout makes them invariant
under atom permutations.
"""

from __future__ import annotations

import dataclasses
import io
import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attention import (AttentionParams, AttentionRecord, geo_msa,
                        init_attention_params)
from .errors import ConfigError, DataError
from .geometry import (MAX_ATOMIC_NUMBER, BasisConfig, KernelParams, Molecule,
                       glorot, init_kernel_params, kernel_tensor,
                       pair_geometry, pairwise_distances)


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
    ln_gains: list
    ln_biases: list

    def named(self, prefix: str) -> dict[str, ad.Tensor]:
        out = {}
        out.update(self.attn.named(f"{prefix}.attn"))
        out.update(self.kernel.named(f"{prefix}.kernel"))
        out.update({f"{prefix}.ffn_w1": self.ffn_w1, f"{prefix}.ffn_b1": self.ffn_b1,
                    f"{prefix}.ffn_w2": self.ffn_w2, f"{prefix}.ffn_b2": self.ffn_b2})
        for i, (g, b) in enumerate(zip(self.ln_gains, self.ln_biases)):
            out[f"{prefix}.ln{i}_gain"] = g
            out[f"{prefix}.ln{i}_bias"] = b
        return out


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
        rng = np.random.default_rng(seed)
        d_m = config.d_m
        embedding = ad.parameter(rng.normal(0.0, 1.0 / np.sqrt(d_m),
                                            size=(MAX_ATOMIC_NUMBER + 1, d_m)))
        n_ln = 2 if config.block_kind == "sequential" else 1
        layers = []
        for _ in range(config.n_layers):
            layers.append(LayerParams(
                attn=init_attention_params(rng, d_m),
                kernel=init_kernel_params(rng, config.basis, d_m,
                                          mode=config.kernel_mode,
                                          d_rbf=config.d_rbf, d_emb2=config.d_emb2),
                ffn_w1=ad.parameter(glorot(rng, d_m, config.d_h)),
                ffn_b1=ad.parameter(np.zeros(config.d_h)),
                ffn_w2=ad.parameter(glorot(rng, config.d_h, d_m)),
                ffn_b2=ad.parameter(np.zeros(d_m)),
                ln_gains=[ad.parameter(np.ones(d_m)) for _ in range(n_ln)],
                ln_biases=[ad.parameter(np.zeros(d_m)) for _ in range(n_ln)],
            ))
        w_pool = ad.parameter(glorot(rng, d_m, 1))
        b_out = ad.parameter(np.zeros(()))
        return cls(config, layers, embedding, w_pool, b_out)

    # -- parameters ---------------------------------------------------------

    def params(self) -> dict[str, ad.Tensor]:
        out = {"atom_embedding": self.atom_embedding}
        for i, layer in enumerate(self.layers):
            out.update(layer.named(f"layer{i}"))
        out["w_pool"] = self.w_pool
        out["b_out"] = self.b_out
        return out

    # -- forward ------------------------------------------------------------

    def embed(self, molecule: Molecule) -> ad.Tensor:
        z = molecule.atomic_numbers
        if np.any(z > MAX_ATOMIC_NUMBER) or np.any(z < 1):
            raise DataError("atomic number out of range")
        return ad.take_rows(self.atom_embedding, z)

    def _block(self, x: ad.Tensor, lam, layer: LayerParams, index: int,
               trace) -> ad.Tensor:
        cfg = self.config
        msa = geo_msa(x, lam, layer.attn, cfg, layer=index, trace=trace)
        if cfg.block_kind == "sequential":
            xt = ad.layer_norm(ad.add(msa, x), layer.ln_gains[0], layer.ln_biases[0])
            return ad.layer_norm(ad.add(ffn(xt, layer), xt),
                                 layer.ln_gains[1], layer.ln_biases[1])
        mixed = ad.add(ad.add(msa, ffn(x, layer)), x)
        return ad.layer_norm(mixed, layer.ln_gains[0], layer.ln_biases[0])

    def readout(self, x: ad.Tensor) -> ad.Tensor:
        pooled = ad.tensor_sum(x, axis=0, keepdims=True)      # 1 x d_m
        return ad.add(ad.reshape(ad.einsum("nd,de->ne", pooled, self.w_pool), ()), self.b_out)

    def forward_parts(self, molecule: Molecule,
                      trace: "list[AttentionRecord] | None" = None):
        """Energy tensor plus the coordinate leaf it was built from."""
        coords = ad.parameter(molecule.coords)
        raw = self.readout(self._encode(molecule, coords, trace))
        baseline = self.config.out_shift + sum(
            self.config.atom_refs.get(str(z), 0.0)
            for z in molecule.atomic_numbers)
        energy = ad.add(ad.mul(raw, self.config.out_scale), baseline)
        return energy, coords

    def _encode(self, molecule: Molecule, coords: ad.Tensor, trace) -> ad.Tensor:
        geo = None      # the softmax baseline uses no geometry
        if not self.config.use_softmax_baseline:
            # distances and basis of the i <= j pairs, shared by every layer
            pairs = ad.pair_index(molecule.n_atoms)
            geo = pair_geometry(pairs, pairwise_distances(coords, pairs),
                                self.config.basis)
        x = self.embed(molecule)
        for i, layer in enumerate(self.layers):
            lam = None
            if geo is not None:
                lam = kernel_tensor(layer.kernel, self.config.basis, geo,
                                    molecule.atomic_numbers)
            x = self._block(x, lam, layer, i, trace)
        return x

    def energy(self, molecule: Molecule) -> float:
        with ad.no_graph():
            e, _ = self.forward_parts(molecule)
        return e.item()

    def force_tensor(self, molecule: Molecule, create_graph: bool = True):
        """(force tensor, energy tensor, coords leaf); with ``create_graph``
        the forces can be differentiated again."""
        e, coords = self.forward_parts(molecule)
        (de_dr,) = ad.grad(e, [coords], create_graph=create_graph)
        f = de_dr if self.config.force_sign == "paper" else ad.neg(de_dr)
        return f, e, coords

    def energy_and_forces(self, molecule: Molecule) -> tuple[float, np.ndarray]:
        """Energy and forces from one forward pass; no graph for the gradient."""
        f, e, _ = self.force_tensor(molecule, create_graph=False)
        return e.item(), f.data.copy()

    def forces(self, molecule: Molecule) -> np.ndarray:
        return self.energy_and_forces(molecule)[1]


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(model: GeoTModel, path) -> None:
    """Single .npz container: config JSON plus every named parameter."""
    arrays = {f"param:{name}": t.data for name, t in model.params().items()}
    cfg_json = json.dumps(dataclasses.asdict(model.config))
    np.savez(path, __config__=np.frombuffer(cfg_json.encode(), dtype=np.uint8),
             **arrays)


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
    with np.load(path) as blob:
        fields = json.loads(bytes(blob["__config__"]).decode())
        _check_fields(ModelConfig, fields, "config")
        _check_fields(BasisConfig, fields["basis"], "basis config")
        config = ModelConfig(**fields)
        model = GeoTModel.init(config, seed=0)
        params = model.params()
        names = [key[len("param:"):] for key in blob.files if key.startswith("param:")]
        missing = sorted(set(params) - set(names))
        if missing:
            raise ConfigError(f"checkpoint lacks parameters: {', '.join(missing)}")
        for name in names:
            if name not in params:
                raise ConfigError(f"checkpoint parameter {name!r} not in model")
            value = blob[f"param:{name}"]     # each access reads the zip member
            if params[name].shape != value.shape:
                raise ConfigError(f"shape mismatch for {name!r}: "
                                  f"{params[name].shape} vs {value.shape}")
            params[name].data = value.astype(params[name].data.dtype, copy=False)
    bad = sorted(name for name, t in params.items() if not np.all(np.isfinite(t.data)))
    if bad:
        raise ConfigError(f"checkpoint holds non-finite values in: {', '.join(bad)}")
    return model


def checkpoint_bytes(model: GeoTModel) -> bytes:
    buf = io.BytesIO()
    save_checkpoint(model, buf)
    return buf.getvalue()
