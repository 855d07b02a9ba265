import numpy as np
import pytest

from geoattn import autodiff as ad
from conftest import numeric_grad, rel_err


def scalar_grad(build, *arrays):
    """Run ``build`` on parameter leaves, return (value, analytic grads)."""
    leaves = [ad.parameter(a) for a in arrays]
    out = build(*leaves)
    grads = ad.grad(out, leaves)
    return out.item(), [g.data for g in grads]


class TestMatmul:
    def test_identity(self):
        m = np.array([[2.0, -1.0], [0.5, 3.0]])
        out = ad.matmul(ad.constant(np.eye(2)), ad.constant(m))
        np.testing.assert_array_equal(out.data, m)

    def test_hand_case(self):
        a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        b = ad.constant([[1.0], [1.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))

    def test_grad_vs_finite_differences(self, rng):
        a = rng.uniform(-2, 2, (3, 4))
        b = rng.uniform(-2, 2, (4, 2))

        def build(x, y):
            return ad.tensor_sum(ad.matmul(x, y))

        _, (ga, gb) = scalar_grad(build, a, b)
        np.testing.assert_allclose(ga, np.ones((3, 2)) @ b.T, atol=1e-12)
        na, nb = numeric_grad(lambda x, y: float((x @ y).sum()), [a, b])
        assert rel_err(ga, na) < 1e-6
        assert rel_err(gb, nb) < 1e-6


class TestElementwise:
    def test_exp_zero(self):
        assert ad.exp(ad.constant(0.0)).item() == 1.0

    def test_abs(self):
        x = ad.parameter(-3.0)
        out = ad.absolute(x)
        assert out.item() == 3.0
        (g,) = ad.grad(out, [x])
        assert g.item() == -1.0

    def test_abs_subgradient_at_zero(self):
        x = ad.parameter(0.0)
        (g,) = ad.grad(ad.absolute(x), [x])
        assert g.item() == 0.0

    def test_mul_grad_vs_finite_differences(self, rng):
        a = rng.uniform(-2, 2, 5)
        b = rng.uniform(-2, 2, 5)
        _, (ga, gb) = scalar_grad(lambda x, y: ad.tensor_sum(ad.mul(x, y)), a, b)
        na, nb = numeric_grad(lambda x, y: float((x * y).sum()), [a, b])
        assert rel_err(ga, na) < 1e-6
        assert rel_err(gb, nb) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.add(ad.constant(np.ones(3)), ad.constant(np.ones(4)))

    def test_exp_overflow_is_checked(self):
        with pytest.raises(ad.NonFiniteError):
            ad.exp(ad.constant(1e4))

    @pytest.mark.parametrize("op,npop", [
        (ad.exp, np.exp),
        (ad.square, np.square),
        (ad.sin, np.sin),
        (ad.cos, np.cos),
        (ad.sqrt, lambda x: np.sqrt(np.abs(x) + 1.0)),
    ])
    def test_random_grads(self, rng, op, npop):
        x = rng.uniform(-2, 2, 7)
        if op is ad.sqrt:
            x = np.abs(x) + 1.0
        _, (g,) = scalar_grad(lambda t: ad.tensor_sum(op(t)), x)
        (n,) = numeric_grad(lambda a: float(npop(a).sum() if op is not ad.sqrt
                                            else np.sqrt(a).sum()), [x])
        assert rel_err(g, n) < 1e-5


class TestActivations:
    def test_elu_zero(self):
        assert ad.activation("ELU", ad.constant(0.0)).item() == 0.0

    def test_elu_negative_branch(self):
        x = ad.constant(-1.0)
        assert ad.elu(x).item() == pytest.approx(np.expm1(-1.0))

    def test_swish_zero(self):
        assert ad.activation("swish", ad.constant(0.0)).item() == 0.0

    def test_swish_one(self):
        assert ad.swish(ad.constant(1.0)).item() == pytest.approx(
            1.0 / (1.0 + np.exp(-1.0)), abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ad.activation("tanh", ad.constant(0.0))

    @pytest.mark.parametrize("kind", ["ELU", "swish"])
    def test_grads(self, rng, kind):
        x = rng.uniform(-2, 2, 9)
        _, (g,) = scalar_grad(lambda t: ad.tensor_sum(ad.activation(kind, t)), x)

        def forward(a):
            if kind == "ELU":
                return float(np.where(a > 0, a, np.expm1(a)).sum())
            return float((a / (1 + np.exp(-a))).sum())

        (n,) = numeric_grad(forward, [x])
        assert rel_err(g, n) < 1e-5


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        x = ad.constant(np.full((2, 4), 3.0))
        out = ad.layer_norm(x, ad.constant(np.ones(4)), ad.constant(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_unit_variance_row(self):
        x = ad.constant([[1.0, -1.0]])
        out = ad.layer_norm(x, ad.constant(np.ones(2)), ad.constant(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-4)

    def test_grad_vs_finite_differences(self, rng):
        x = rng.uniform(-2, 2, (4, 8))
        gain = rng.uniform(0.5, 1.5, 8)
        bias = rng.uniform(-0.5, 0.5, 8)

        def build(xs, gs, bs):
            return ad.tensor_sum(ad.square(ad.layer_norm(xs, gs, bs)))

        def forward(xs, gs, bs):
            mu = xs.mean(-1, keepdims=True)
            var = ((xs - mu) ** 2).mean(-1, keepdims=True)
            return float((((xs - mu) / np.sqrt(var + 1e-5) * gs + bs) ** 2).sum())

        _, analytic = scalar_grad(build, x, gain, bias)
        numeric = numeric_grad(forward, [x, gain, bias])
        for g, n in zip(analytic, numeric):
            assert rel_err(g, n) < 1e-5


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax_rows(ad.constant(np.full((2, 4), 1.7)))
        np.testing.assert_allclose(out.data, 0.25, atol=1e-15)

    def test_quarter_three_quarters(self):
        out = ad.softmax_rows(ad.constant([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        out = ad.softmax_rows(ad.constant(rng.uniform(-5, 5, (6, 6))))
        np.testing.assert_allclose(out.data.sum(-1), 1.0, atol=1e-12)

    def test_grad_vs_finite_differences(self, rng):
        x = rng.uniform(-2, 2, (3, 4))
        w = rng.uniform(-1, 1, (3, 4))

        def build(t):
            return ad.tensor_sum(ad.mul(ad.softmax_rows(t), w))

        def forward(a):
            e = np.exp(a - a.max(-1, keepdims=True))
            return float((e / e.sum(-1, keepdims=True) * w).sum())

        _, (g,) = scalar_grad(build, x)
        (n,) = numeric_grad(forward, [x])
        assert rel_err(g, n) < 1e-5


class TestBackward:
    def test_square_derivative(self):
        x = ad.parameter(3.0)
        y = ad.square(x)
        (g,) = ad.grad(y, [x])
        assert g.item() == 6.0

    def test_double_backward_through_abs(self):
        # d/dx |c - dE/dx| for E = x^2, c = 0, at x = 1: the inner gradient
        # is 2x, so the outer function is |-2x| = 2|x| with derivative
        # sign(-2x) * (-2) = +2; central differences agree
        x = ad.parameter(1.0)
        e = ad.square(x)
        (de_dx,) = ad.grad(e, [x])
        outer = ad.absolute(ad.sub(0.0, de_dx))
        (g,) = ad.grad(outer, [x])
        fd = (abs(-2 * 1.001) - abs(-2 * 0.999)) / 0.002
        assert g.item() == pytest.approx(fd, abs=1e-9)
        assert g.item() == 2.0

    def test_non_scalar_root_rejected(self):
        x = ad.parameter(np.ones(3))
        with pytest.raises(ad.ShapeError):
            ad.grad(ad.square(x), [x])

    def test_backward_linearity(self, rng):
        vals = rng.uniform(-2, 2, 4)
        x1 = ad.parameter(vals)
        s1 = ad.tensor_sum(ad.square(x1))
        s2 = ad.tensor_sum(ad.exp(x1))
        (g,) = ad.grad(ad.add(s1, s2), [x1])
        combined = g.data.copy()

        x2 = ad.parameter(vals)
        (g_square,) = ad.grad(ad.tensor_sum(ad.square(x2)), [x2])
        (g_exp,) = ad.grad(ad.tensor_sum(ad.exp(x2)), [x2])
        np.testing.assert_allclose(g_square.data + g_exp.data, combined, atol=1e-15)

    def test_forward_determinism(self, rng):
        x = rng.uniform(-2, 2, (5, 5))

        def run():
            t = ad.parameter(x)
            out = ad.tensor_sum(ad.exp(ad.layer_norm(
                t, ad.constant(np.ones(5)), ad.constant(np.zeros(5)))))
            (g,) = ad.grad(out, [t])
            return out.item(), g.data.copy()

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        np.testing.assert_array_equal(g1, g2)


class TestGradContract:
    @staticmethod
    def build(x, w):
        h = ad.layer_norm(ad.matmul(x, w), ad.constant(np.ones(3)), ad.constant(np.zeros(3)))
        return ad.tensor_sum(ad.mul(ad.elu(h), ad.sigmoid(ad.sqrt(ad.exp(h)))))

    def test_no_graph_gives_same_bits_and_no_parents(self, rng):
        x = ad.parameter(rng.uniform(-2, 2, (4, 5)))
        w = ad.parameter(rng.uniform(-2, 2, (5, 3)))
        out = self.build(x, w)
        tracked = ad.grad(out, [x, w], create_graph=True)
        plain = ad.grad(out, [x, w], create_graph=False)
        for a, b in zip(tracked, plain):
            assert a.parents
            np.testing.assert_array_equal(a.data, b.data)
            assert b.parents == () and not b.requires_grad

    def test_vjps_off_the_path_from_wrt_are_not_called(self, rng):
        def refuse(g):
            raise AssertionError("vjp off the path from wrt was called")

        x = ad.parameter(rng.uniform(-2, 2, 4))
        w = ad.parameter(rng.uniform(-2, 2, 4))
        a = ad.exp(w)                # depends on w only
        a.vjps = (refuse,)
        prod = ad.mul(x, a)
        prod.vjps = (prod.vjps[0], refuse)
        (g,) = ad.grad(ad.tensor_sum(prod), [x])
        np.testing.assert_array_equal(g.data, a.data)


class TestStructuralOps:
    def test_concat_slice_roundtrip_grads(self, rng):
        a = rng.uniform(-2, 2, (3, 2))
        b = rng.uniform(-2, 2, (3, 4))

        def build(x, y):
            joined = ad.concat([x, y], axis=1)
            return ad.tensor_sum(ad.square(ad.slice_axis(joined, 1, 1, 5)))

        def forward(x, y):
            joined = np.concatenate([x, y], axis=1)
            return float((joined[:, 1:5] ** 2).sum())

        _, analytic = scalar_grad(build, a, b)
        numeric = numeric_grad(forward, [a, b])
        for g, n in zip(analytic, numeric):
            assert rel_err(g, n) < 1e-6

    def test_take_rows_scatters_gradient(self):
        table = ad.parameter(np.arange(12.0).reshape(4, 3))
        out = ad.tensor_sum(ad.take_rows(table, [1, 1, 3]))
        (g,) = ad.grad(out, [table])
        np.testing.assert_array_equal(
            g.data, [[0, 0, 0], [2, 2, 2], [0, 0, 0], [1, 1, 1]])

    def test_broadcast_and_sum(self, rng):
        a = rng.uniform(-2, 2, (1, 4))
        _, (g,) = scalar_grad(
            lambda t: ad.tensor_sum(ad.mul(ad.broadcast_to(t, (3, 4)), 2.0)), a)
        np.testing.assert_allclose(g, np.full((1, 4), 6.0), atol=1e-12)


class TestPrecisionModes:
    def test_float32_mode(self):
        ad.set_default_dtype(np.float32)
        try:
            t = ad.parameter(np.ones(3))
            assert t.data.dtype == np.float32
            out = ad.tensor_sum(ad.square(t))
            assert out.data.dtype == np.float32
        finally:
            ad.set_default_dtype(np.float64)

    def test_rejects_other_dtypes(self):
        with pytest.raises(ValueError):
            ad.set_default_dtype(np.int32)

    def test_parameter_rejects_nan(self):
        with pytest.raises(ad.NonFiniteError):
            ad.parameter(np.array([1.0, np.nan]))
