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

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, UsageError


@dataclass
class AttentionRecord:
    """A layer's (possibly AttnScale'd) maps; a trace holds one per layer, in order."""

    logits: np.ndarray     # N x N x h, after AttnScale if enabled

    def norm_map(self) -> np.ndarray:
        """Head-averaged per-pair magnitude, the quantity used for analysis."""
        return np.mean(np.abs(self.logits), axis=2)


@dataclass
class AttentionParams:
    wq: ad.Tensor
    wk: ad.Tensor
    wv: ad.Tensor
    w_a: ad.Tensor | None = None     # AttnScale amplification, scalar per layer


def init_attention_params(rng: np.random.Generator | None, d_m: int,
                          use_attn_scale: bool = False) -> AttentionParams:
    from .geometry import glorot, param
    return AttentionParams(
        wq=glorot(rng, d_m, d_m),
        wk=glorot(rng, d_m, d_m),
        wv=glorot(rng, d_m, d_m),
        w_a=param(rng, ()) if use_attn_scale else None,
    )


def qkv_project(x: ad.Tensor, params: AttentionParams, cfg: "ModelConfig"):
    """Project with the full d_m x d_m weights and split into h head chunks.

    Returns (q, k, v), each of shape N x h x head_dim.
    """
    n = x.shape[0]
    if x.shape[1] != cfg.d_m:
        raise ConfigError(f"input width {x.shape[1]} != d_m {cfg.d_m}")
    shape = (n, cfg.n_heads, cfg.head_dim)
    q = ad.reshape(ad.einsum("nd,de->ne", x, params.wq), shape)
    k = ad.reshape(ad.einsum("nd,de->ne", x, params.wk), shape)
    v = ad.reshape(ad.einsum("nd,de->ne", x, params.wv), shape)
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
            cfg: "ModelConfig", trace: "list[AttentionRecord] | None" = None) -> ad.Tensor:
    """Multi-head attention: softmax-free and gated by the pair kernel
    ``lam``, or the softmax baseline (``lam`` unused) when the model's
    ``ModelConfig`` asks."""
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
        trace.append(AttentionRecord(a.data.copy()))
    return ad.reshape(ad.einsum("ijh,jhc->ihc", a, v), (n, cfg.d_m))


def format_attention_csv(records: "list[AttentionRecord]") -> str:
    """Dump format: one line per (layer, i, j) with the head-averaged value;
    a record's position in the trace is its layer."""
    if not records:
        raise UsageError("no attention trace collected; run a forward pass with tracing")
    lines = ["layer,head_avg,i,j,value"]
    for layer, rec in enumerate(records):
        m = rec.norm_map()
        n = m.shape[0]
        for i in range(n):
            for j in range(n):
                lines.append(f"{layer},avg,{i},{j},{m[i, j]:.17g}")
    return "\n".join(lines) + "\n"
