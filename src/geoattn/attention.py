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
from .geometry import glorot, param


@dataclass
class AttentionRecord:
    """A layer's (possibly AttnScale'd) maps; a trace holds one per layer, in order."""

    logits: np.ndarray     # N x N x h (a group's B x N_max x N_max x h), after AttnScale if enabled

    def norm_map(self) -> np.ndarray:
        """Head-averaged per-pair magnitude, the quantity used for analysis."""
        return np.mean(np.abs(self.logits), axis=-1)


@dataclass
class AttentionParams:
    wq: ad.Tensor
    wk: ad.Tensor
    wv: ad.Tensor
    w_a: ad.Tensor | None = None     # AttnScale amplification, scalar per layer


def init_attention_params(rng: np.random.Generator | None, d_m: int,
                          use_attn_scale: bool = False) -> AttentionParams:
    return AttentionParams(
        wq=glorot(rng, d_m, d_m),
        wk=glorot(rng, d_m, d_m),
        wv=glorot(rng, d_m, d_m),
        w_a=param(rng, ()) if use_attn_scale else None,
    )


def qkv_project(x: ad.Tensor, params: AttentionParams, cfg: "ModelConfig", lead=None):
    """Project with the full d_m x d_m weights and split into h head chunks.

    Returns (q, k, v), each of shape lead x h x head_dim, where ``lead`` is
    (N,) for the N rows of ``x`` or the (B, N_max) slots of a group's rows.
    """
    if x.shape[1] != cfg.d_m:
        raise ConfigError(f"input width {x.shape[1]} != d_m {cfg.d_m}")
    shape = tuple(lead or x.shape[:1]) + (cfg.n_heads, cfg.head_dim)
    q = ad.reshape(ad.einsum("nd,de->ne", x, params.wq), shape)
    k = ad.reshape(ad.einsum("nd,de->ne", x, params.wk), shape)
    v = ad.reshape(ad.einsum("nd,de->ne", x, params.wv), shape)
    return q, k, v


def geo_attention_logits(q: ad.Tensor, k: ad.Tensor, lam: ad.Tensor,
                         scale: float) -> ad.Tensor:
    """Kernel-gated unnormalized logits for all heads at once.

    q, k: N x h x c; lam: N x N x (h*c).  Returns N x N x h.  A group has a
    leading B axis on each, with N the group's N_max.
    """
    h, c = q.shape[-2:]
    lam4 = ad.reshape(lam, lam.shape[:-1] + (h, c))
    b = "b" if q.ndim == 4 else ""      # a group's molecule axis
    return ad.mul(ad.einsum(f"{b}ihc,{b}jhc,{b}ijhc->{b}ijh", q, k, lam4), 1.0 / np.sqrt(scale))


def _real_slots(pairs: ad.PairIndex) -> np.ndarray:
    """(B, N_max): True in the slots of a group's atoms, False in its padding."""
    real = np.zeros(pairs.index.shape[:-1], dtype=bool)
    real.reshape(-1)[pairs.rows] = True
    return real


def attn_scale(a: ad.Tensor, w_a: ad.Tensor, pairs: "ad.PairIndex | None" = None) -> ad.Tensor:
    """Split each row into its mean (DC) and residual (HF) parts and amplify
    the residual by 1 + w_a.  Row sums are preserved for every w_a because
    the residual is row-mean-free.  In a padded group (``pairs``) the mean
    divides by each molecule's atom count, and the padding stays 0."""
    real = None if pairs is None or not pairs.padded else _real_slots(pairs)
    inv_n = 1.0 / a.shape[-2] if real is None else 1.0 / real.sum(axis=1)[:, None, None, None]
    dc = ad.mul(ad.tensor_sum(a, axis=-2, keepdims=True), inv_n)
    hf = ad.sub(a, dc)
    out = ad.add(dc, ad.mul(hf, ad.add(w_a, 1.0)))
    if real is None:
        return out
    return ad.mul(out, (real[:, :, None] & real[:, None, :])[..., None].astype(float))


def geo_msa(x: ad.Tensor, lam: "ad.Tensor | None", params: AttentionParams,
            cfg: "ModelConfig", trace: "list[AttentionRecord] | None" = None,
            pairs: "ad.PairIndex | None" = None) -> ad.Tensor:
    """Multi-head attention: softmax-free and gated by the pair kernel
    ``lam``, or the softmax baseline (``lam`` unused) when the model's
    ``ModelConfig`` asks.  With a group's ``pairs`` (see
    :func:`autodiff.group_pairs`), ``x`` holds the group's atom rows and the
    maps are B x N_max x N_max x h, padded with zero rows of ``x``."""
    lead = pairs.index.shape[:-1] if pairs is not None else x.shape[:1]
    padded = pairs is not None and pairs.padded
    if padded:
        x = ad.put_rows(x, pairs.rows, int(np.prod(lead)))
    q, k, v = qkv_project(x, params, cfg, lead)
    b = "b" if len(lead) == 2 else ""
    if cfg.use_softmax_baseline:
        logits = ad.mul(ad.einsum(f"{b}ihc,{b}jhc->{b}ijh", q, k), 1.0 / np.sqrt(cfg.scale))
        if padded:      # padded columns get no weight
            logits = ad.add(logits, np.where(_real_slots(pairs), 0.0, -np.inf)[:, None, :, None])
        a = ad.softmax(logits, axis=-2)                     # N x N x h
    else:
        a = geo_attention_logits(q, k, lam, cfg.scale)      # N x N x h
        if cfg.use_attn_scale:
            a = attn_scale(a, params.w_a, pairs)
    if trace is not None:
        trace.append(AttentionRecord(a.data.copy()))
    out = ad.reshape(ad.einsum(f"{b}ijh,{b}jhc->{b}ihc", a, v), (-1, cfg.d_m))
    return ad.take_rows(out, pairs.rows) if padded else out


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
