"""Multi-head self-attention: the softmax-free geometry-gated map, its
softmax baseline, and the row-mean-preserving AttnScale refinement.

The geometry-gated logits contract the per-channel query/key products with
the pair-kernel channels before summation:

    A_ijh = sum_c Q_ihc * K_jhc * Lambda_ijhc / sqrt(scale)

so the kernel acts as a per-channel gate.  No softmax follows; the map is
applied to V as-is, which keeps the whole head exactly linear in V and in
Lambda.  The softmax baseline builds softmax_j(Q_ih . K_jh / sqrt(scale))
instead; both maps go through the same contraction A_ijh V_jhc.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, UsageError


@dataclass
class AttentionConfig:
    d_m: int = 64
    n_heads: int = 4
    use_softmax_baseline: bool = False
    use_attn_scale: bool = False
    # True: per-head sqrt(d_m / h) scaling; False: sqrt(d_m)
    scale_per_head: bool = True

    def __post_init__(self):
        if self.n_heads < 1:
            raise ConfigError("need at least one head")
        if self.d_m % self.n_heads != 0:
            raise ConfigError(f"d_m={self.d_m} not divisible by n_heads={self.n_heads}")

    @property
    def head_dim(self) -> int:
        return self.d_m // self.n_heads

    @property
    def scale(self) -> float:
        return float(self.head_dim if self.scale_per_head else self.d_m)


@dataclass
class AttentionRecord:
    """Per-layer trace of the (possibly AttnScale'd) unnormalized maps."""

    layer: int
    logits: np.ndarray     # N x N x h, after AttnScale if enabled

    def norm_map(self) -> np.ndarray:
        """Head-averaged per-pair magnitude, the quantity used for analysis."""
        return np.mean(np.abs(self.logits), axis=2)


@dataclass
class AttentionParams:
    wq: ad.Tensor
    wk: ad.Tensor
    wv: ad.Tensor
    w_a: ad.Tensor   # AttnScale amplification, scalar per layer

    def named(self, prefix: str) -> dict[str, ad.Tensor]:
        return {f"{prefix}.wq": self.wq, f"{prefix}.wk": self.wk,
                f"{prefix}.wv": self.wv, f"{prefix}.w_a": self.w_a}


def init_attention_params(rng: np.random.Generator, d_m: int) -> AttentionParams:
    from .geometry import glorot
    return AttentionParams(
        wq=ad.parameter(glorot(rng, d_m, d_m)),
        wk=ad.parameter(glorot(rng, d_m, d_m)),
        wv=ad.parameter(glorot(rng, d_m, d_m)),
        w_a=ad.parameter(np.zeros(())),
    )


def qkv_project(x: ad.Tensor, params: AttentionParams, cfg: AttentionConfig):
    """Project with the full d_m x d_m weights and split into h head chunks.

    Returns (q, k, v), each of shape N x h x head_dim.
    """
    n = x.shape[0]
    if x.shape[1] != cfg.d_m:
        raise ConfigError(f"input width {x.shape[1]} != d_m {cfg.d_m}")
    shape = (n, cfg.n_heads, cfg.head_dim)
    q = ad.reshape(ad.matmul(x, params.wq), shape)
    k = ad.reshape(ad.matmul(x, params.wk), shape)
    v = ad.reshape(ad.matmul(x, params.wv), shape)
    return q, k, v


def geo_attention_logits(q: ad.Tensor, k: ad.Tensor, lam: ad.Tensor,
                         scale: float) -> ad.Tensor:
    """Kernel-gated unnormalized logits for all heads at once.

    q, k: N x h x c; lam: N x N x (h*c).  Returns N x N x h.
    """
    n, h, c = q.shape
    lam4 = ad.reshape(lam, (n, n, h, c))
    return ad.mul(ad.einsum("ihc,jhc,ijhc->ijh", q, k, lam4), 1.0 / np.sqrt(scale))


def attn_scale(a: ad.Tensor, w_a: ad.Tensor) -> ad.Tensor:
    """Split each row into its mean (DC) and residual (HF) parts and amplify
    the residual by 1 + w_a.  Row sums are preserved for every w_a because
    the residual is row-mean-free."""
    n = a.shape[1]
    dc = ad.mul(ad.tensor_sum(a, axis=1, keepdims=True), 1.0 / n)
    hf = ad.sub(a, dc)
    return ad.add(dc, ad.mul(hf, ad.add(w_a, 1.0)))


def geo_msa(x: ad.Tensor, lam: "ad.Tensor | None", params: AttentionParams,
            cfg: AttentionConfig, layer: int = 0,
            trace: "list[AttentionRecord] | None" = None) -> ad.Tensor:
    """Multi-head attention: softmax-free and gated by the pair kernel
    ``lam``, or the softmax baseline (``lam`` unused) when the config asks."""
    n = x.shape[0]
    q, k, v = qkv_project(x, params, cfg)
    if cfg.use_softmax_baseline:
        logits = ad.mul(ad.einsum("ihc,jhc->ijh", q, k), 1.0 / np.sqrt(cfg.scale))
        a = ad.softmax(logits, axis=1)                      # N x N x h
    else:
        a = geo_attention_logits(q, k, lam, cfg.scale)      # N x N x h
        if cfg.use_attn_scale:
            a = attn_scale(a, params.w_a)
    if trace is not None:
        trace.append(AttentionRecord(layer=layer, logits=a.data.copy()))
    return ad.reshape(ad.einsum("ijh,jhc->ihc", a, v), (n, cfg.d_m))


def dump_attention_norms(records: "list[AttentionRecord]") -> dict[int, np.ndarray]:
    """Per-layer head-averaged magnitude maps, keyed by layer index."""
    if not records:
        raise UsageError("no attention trace collected; run a forward pass with tracing")
    return {rec.layer: rec.norm_map() for rec in records}


def format_attention_csv(records: "list[AttentionRecord]") -> str:
    """Dump format: one line per (layer, i, j) with the head-averaged value."""
    maps = dump_attention_norms(records)
    lines = ["layer,head_avg,i,j,value"]
    for layer in sorted(maps):
        m = maps[layer]
        n = m.shape[0]
        for i in range(n):
            for j in range(n):
                lines.append(f"{layer},avg,{i},{j},{m[i, j]:.17g}")
    return "\n".join(lines) + "\n"


def parse_attention_csv(text: str) -> dict[int, np.ndarray]:
    """Inverse of :func:`format_attention_csv`."""
    rows = {}
    lines = text.strip().splitlines()
    if not lines or lines[0] != "layer,head_avg,i,j,value":
        raise UsageError("not an attention dump")
    for line in lines[1:]:
        layer_s, _, i_s, j_s, v_s = line.split(",")
        rows.setdefault(int(layer_s), {})[(int(i_s), int(j_s))] = float(v_s)
    out = {}
    for layer, entries in rows.items():
        n = int(np.sqrt(len(entries)))
        m = np.zeros((n, n))
        for (i, j), v in entries.items():
            m[i, j] = v
        out[layer] = m
    return out
