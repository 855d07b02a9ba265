import numpy as np
import pytest

from geoattn import autodiff as ad
from geoattn.attention import (AttentionParams, AttentionRecord, attn_scale,
                               format_attention_csv, geo_attention_logits,
                               geo_msa, init_attention_params, qkv_project)
from geoattn.errors import ConfigError, UsageError
from geoattn.model import ModelConfig
from conftest import numeric_grad, rel_err


def parse_attention_csv(text: str) -> dict[int, np.ndarray]:
    """Inverse of ``format_attention_csv``: layer -> head-averaged N x N map."""
    lines = text.strip().splitlines()
    assert lines[0] == "layer,head_avg,i,j,value"
    rows = {}
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


def lone(n):
    """The pair layout of one molecule of n atoms: a group of one, whose maps
    are 1 x n x n x h."""
    return ad.group_pairs((n,))


def msa(x, lam, params, cfg):
    """geo_msa on the n rows of ``x`` as a group of one, with the n x n x d_m
    kernel ``lam`` (None for the softmax baseline)."""
    lam = None if lam is None else ad.constant(lam[None])
    return geo_msa(ad.constant(x), lam, params, cfg, lone(len(x)))


def identity_params(d_m):
    return AttentionParams(wq=ad.constant(np.eye(d_m)),
                           wk=ad.constant(np.eye(d_m)),
                           wv=ad.constant(np.eye(d_m)))


class TestConfig:
    def test_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_m=10, n_heads=4)

    def test_scale_modes(self):
        cfg = ModelConfig(d_m=8, n_heads=2)
        assert cfg.scale == 4.0
        cfg = ModelConfig(d_m=8, n_heads=2, scale_per_head=False)
        assert cfg.scale == 8.0


class TestQKVProject:
    def test_identity_single_head(self, rng):
        x = ad.constant(rng.uniform(-1, 1, (3, 4)))
        cfg = ModelConfig(d_m=4, n_heads=1)
        q, k, v = qkv_project(x, identity_params(4), cfg, (1, 3))
        for t in (q, k, v):
            np.testing.assert_array_equal(t.data.reshape(3, 4), x.data)

    def test_head_split_concat_inverse(self, rng):
        x = rng.uniform(-1, 1, (3, 4))
        params = init_attention_params(rng, 4)
        cfg = ModelConfig(d_m=4, n_heads=2)
        q, _, _ = qkv_project(ad.constant(x), params, cfg, (1, 3))
        full = x @ params.wq.data
        np.testing.assert_allclose(q.data.reshape(3, 4), full, atol=1e-14)

    def test_width_mismatch(self, rng):
        with pytest.raises(ConfigError):
            qkv_project(ad.constant(np.ones((3, 6))), identity_params(4),
                        ModelConfig(d_m=4, n_heads=1), (1, 3))

    def test_grad_wq_finite_differences(self, rng):
        x = rng.uniform(-1, 1, (3, 4))
        w = rng.uniform(-1, 1, (4, 4))
        cfg = ModelConfig(d_m=4, n_heads=2)

        def build(wt):
            params = AttentionParams(wq=wt, wk=ad.constant(np.eye(4)),
                                     wv=ad.constant(np.eye(4)))
            q, _, _ = qkv_project(ad.constant(x), params, cfg, (1, 3))
            return ad.tensor_sum(ad.square(q))

        wt = ad.parameter(w)
        (g,) = ad.grad(build(wt), [wt])
        (n,) = numeric_grad(lambda wv: float(((x @ wv) ** 2).sum()), [w])
        assert rel_err(g.data, n) < 1e-5


def baseline_msa(x, params, heads):
    cfg = ModelConfig(d_m=x.shape[1], n_heads=heads, use_softmax_baseline=True)
    return msa(x, None, params, cfg).data


class TestStandardAttention:
    """The softmax baseline of geo_msa with identity projections, one head."""

    def test_single_atom_returns_v(self, rng):
        v = rng.uniform(-1, 1, (1, 4))
        out = baseline_msa(v, identity_params(4), heads=1)
        np.testing.assert_allclose(out, v, atol=1e-15)

    def test_zero_query_gives_column_mean(self, rng):
        x = rng.uniform(-1, 1, (5, 3))
        params = identity_params(3)
        params.wq = ad.constant(np.zeros((3, 3)))
        out = baseline_msa(x, params, heads=1)
        np.testing.assert_allclose(out, np.tile(x.mean(0), (5, 1)), atol=1e-12)

    def test_matches_dense_oracle(self, rng):
        x = rng.uniform(-1, 1, (3, 4))
        params = init_attention_params(rng, 4)
        out = baseline_msa(x, params, heads=1)
        q, k, v = (x @ w.data for w in (params.wq, params.wk, params.wv))
        logits = q @ k.T / 2.0
        e = np.exp(logits - logits.max(1, keepdims=True))
        w = e / e.sum(1, keepdims=True)
        np.testing.assert_allclose(out, w @ v, atol=1e-12)


class TestGeoLogits:
    def test_all_ones_kernel_reduces_to_dot_product(self, rng):
        n, h, c = 4, 2, 3
        q = rng.uniform(-1, 1, (n, h, c))
        k = rng.uniform(-1, 1, (n, h, c))
        lam = np.ones((n, n, h * c))
        a = geo_attention_logits(ad.constant(q[None]), ad.constant(k[None]),
                                 ad.constant(lam[None]), scale=c).data[0]
        for hh in range(h):
            np.testing.assert_allclose(a[:, :, hh],
                                       q[:, hh] @ k[:, hh].T / np.sqrt(c),
                                       atol=1e-12)

    def test_zero_kernel_zero_logits(self, rng):
        n, h, c = 3, 1, 4
        a = geo_attention_logits(ad.constant(rng.uniform(-1, 1, (1, n, h, c))),
                                 ad.constant(rng.uniform(-1, 1, (1, n, h, c))),
                                 ad.constant(np.zeros((1, n, n, h * c))),
                                 scale=c).data
        np.testing.assert_array_equal(a, np.zeros((1, n, n, h)))

    def test_hand_contraction(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(1, 2, 1, 2)
        k = np.ones((1, 2, 1, 2))
        lam = np.tile([1.0, 2.0], (1, 2, 2, 1))
        a = geo_attention_logits(ad.constant(q), ad.constant(k),
                                 ad.constant(lam), scale=2.0).data[0, :, :, 0]
        np.testing.assert_allclose(a, np.array([[1, 1], [2, 2]]) / np.sqrt(2),
                                   atol=1e-14)


class TestAttnScale:
    def test_zero_amplification_is_identity(self, rng):
        a = ad.constant(rng.uniform(-1, 1, (1, 4, 4, 2)))
        out = attn_scale(a, ad.constant(np.zeros(())), lone(4))
        np.testing.assert_allclose(out.data, a.data, atol=1e-14)

    def test_constant_rows_unchanged(self, rng):
        a = np.tile(rng.uniform(-1, 1, (1, 4, 1, 2)), (1, 1, 4, 1))
        out = attn_scale(ad.constant(a), ad.constant(np.array(1.7)), lone(4))
        np.testing.assert_allclose(out.data, a, atol=1e-12)

    def test_hand_case(self):
        a = np.array([[1.0, 3.0], [2.0, 2.0]]).reshape(1, 2, 2, 1)
        out = attn_scale(ad.constant(a), ad.constant(np.array(1.0)), lone(2)).data[0, :, :, 0]
        np.testing.assert_allclose(out, [[0.0, 4.0], [2.0, 2.0]], atol=1e-14)

    def test_row_sums_preserved(self, rng):
        a = rng.uniform(-2, 2, (1, 5, 5, 3))
        for w in rng.uniform(-0.5, 2.0, 6):
            out = attn_scale(ad.constant(a), ad.constant(np.array(w)), lone(5)).data
            np.testing.assert_allclose(out.sum(axis=2), a.sum(axis=2),
                                       atol=1e-10)


class TestGeoMSA:
    def setup_case(self, rng, n=4, d_m=8, heads=2, use_scale=False):
        cfg = ModelConfig(d_m=d_m, n_heads=heads, use_attn_scale=use_scale)
        params = init_attention_params(rng, d_m, use_scale)
        x = rng.uniform(-1, 1, (n, d_m))
        lam = rng.uniform(-1, 1, (n, n, d_m))
        return cfg, params, x, lam

    def test_linear_in_v(self, rng):
        cfg, params, x, lam = self.setup_case(rng)
        base = msa(x, lam, params, cfg).data
        params.wv.data = 2.0 * params.wv.data
        doubled = msa(x, lam, params, cfg).data
        assert rel_err(doubled, 2.0 * base) < 1e-12

    def test_linear_in_kernel(self, rng):
        cfg, params, x, lam = self.setup_case(rng)
        base = msa(x, lam, params, cfg).data
        scaled = msa(x, 3.0 * lam, params, cfg).data
        assert rel_err(scaled, 3.0 * base) < 1e-12

    def test_permutation_equivariance(self, rng):
        cfg, params, x, lam = self.setup_case(rng, use_scale=True)
        params.w_a.data = np.array(0.7)
        perm = rng.permutation(4)
        base = msa(x, lam, params, cfg).data
        permuted = msa(x[perm], lam[perm][:, perm], params, cfg).data
        assert np.max(np.abs(permuted - base[perm])) < 1e-9

    def test_single_head_matches_direct(self, rng):
        cfg, params, x, lam = self.setup_case(rng, heads=1)
        out = msa(x, lam, params, cfg).data
        q = x @ params.wq.data
        k = x @ params.wk.data
        v = x @ params.wv.data
        a = np.einsum("ic,jc,ijc->ij", q, k, lam) / np.sqrt(cfg.d_m)
        np.testing.assert_allclose(out, a @ v, atol=1e-12)

    def test_softmax_bridge_to_standard_attention(self, rng):
        # with an all-ones kernel and softmax re-inserted, the geometry path
        # reproduces the standard softmax attention head for head
        cfg, params, x, _ = self.setup_case(rng, heads=2)
        lam = np.ones((1, 4, 4, 8))
        q, k, v = qkv_project(ad.constant(x), params, cfg, (1, 4))
        logits = geo_attention_logits(q, k, ad.constant(lam), cfg.scale)
        soft = ad.softmax(logits, axis=2)
        cfg.use_softmax_baseline = True
        ref = msa(x, None, params, cfg).data.reshape(4, 2, 4)
        for hh in range(2):
            np.testing.assert_allclose(soft.data[0, :, :, hh] @ v.data[0, :, hh, :],
                                       ref[:, hh, :], atol=1e-12)

    def test_softmax_msa_runs(self, rng):
        cfg = ModelConfig(d_m=8, n_heads=2, use_softmax_baseline=True)
        params = init_attention_params(rng, 8)
        out = msa(rng.uniform(-1, 1, (3, 8)), None, params, cfg)
        assert out.shape == (3, 8)


class TestAttentionDump:
    def test_single_head_is_abs(self, rng):
        logits = rng.uniform(-1, 1, (1, 3, 3, 1))
        rec = AttentionRecord(logits)
        np.testing.assert_array_equal(rec.norm_map(), np.abs(logits[..., 0]))

    def test_opposite_heads_average_magnitudes(self, rng):
        a = rng.uniform(-1, 1, (3, 3))
        rec = AttentionRecord(np.stack([a, -a], axis=2)[None])
        np.testing.assert_allclose(rec.norm_map()[0], np.abs(a), atol=1e-15)

    def test_empty_trace_is_usage_error(self):
        with pytest.raises(UsageError):
            format_attention_csv([])

    def test_csv_roundtrip_bit_exact(self, rng):
        records = [AttentionRecord(rng.uniform(-1, 1, (1, 3, 3, 2))) for _ in range(2)]
        text = format_attention_csv(records)
        parsed = parse_attention_csv(text)
        for layer, rec in enumerate(records):
            np.testing.assert_array_equal(parsed[layer], rec.norm_map()[0])
