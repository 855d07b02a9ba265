import weakref

import numpy as np
import pytest

from geoattn import autodiff as ad
from conftest import held_arrays, numeric_grad, rel_err, tracked_nodes


def sigmoid(a):
    """The composite reference of ``swish``'s a·sigmoid(a): the array sigmoid
    as one node whose vjp, out·(1 − out), is built from primitives."""
    return ad._with_output_vjp(ad._node(ad._sigmoid(a.data), [a], [None]),
                               lambda g, out: ad.mul(g, ad.mul(out, ad.sub(1.0, out))))


def scalar_grad(build, *arrays):
    """Run ``build`` on parameter leaves, return (value, analytic grads)."""
    leaves = [ad.parameter(a) for a in arrays]
    out = build(*leaves)
    grads = ad.grad(out, leaves)
    return out.item(), [g.data for g in grads]


class TestMatmul:
    """Two-operand matrix products through einsum."""

    MM = "ij,jk->ik"

    def test_identity(self):
        m = np.array([[2.0, -1.0], [0.5, 3.0]])
        out = ad.einsum(self.MM, ad.constant(np.eye(2)), ad.constant(m))
        np.testing.assert_array_equal(out.data, m)

    def test_hand_case(self):
        a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        b = ad.constant([[1.0], [1.0]])
        np.testing.assert_array_equal(ad.einsum(self.MM, a, b).data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.einsum(self.MM, ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))

    def test_grad_vs_finite_differences(self, rng):
        a = rng.uniform(-2, 2, (3, 4))
        b = rng.uniform(-2, 2, (4, 2))

        def build(x, y):
            return ad.tensor_sum(ad.einsum(self.MM, x, y))

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

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_shape_mismatch(self, op):
        with pytest.raises(ad.ShapeError, match=rf"^{op}: cannot broadcast \(3,\) with \(4,\)$"):
            getattr(ad, op)(ad.constant(np.ones(3)), ad.constant(np.ones(4)))

    @pytest.mark.parametrize("op", ["add", "mul", "einsum"])
    def test_none_operand_is_refused(self, op):
        x = ad.constant(np.ones(3))
        args = ("i,i->i", x, None) if op == "einsum" else (x, None)
        with pytest.raises(TypeError, match="an operand is None"):
            getattr(ad, op)(*args)

    def test_exp_overflow_is_checked(self):
        with pytest.raises(ad.NonFiniteError):
            ad.exp(ad.constant(1e4))

    def test_exp_flushes_subnormals_to_zero(self):
        tiny = np.finfo(np.float64).tiny
        x = np.linspace(-744.9, -708.5, 64)
        assert np.all((np.exp(x) > 0) & (np.exp(x) < tiny))   # subnormal in numpy
        p = ad.parameter(x)
        out = ad.exp(p)
        np.testing.assert_array_equal(out.data, 0.0)
        (g,) = ad.grad(ad.tensor_sum(out), [p])
        np.testing.assert_array_equal(g.data, 0.0)
        # the smallest normal results are kept as they are
        y = np.array([-708.3, -700.0])
        np.testing.assert_array_equal(ad.exp(ad.constant(y)).data, np.exp(y))

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
        assert ad.elu(ad.constant(0.0)).item() == 0.0

    def test_elu_negative_branch(self):
        x = ad.constant(-1.0)
        assert ad.elu(x).item() == pytest.approx(np.expm1(-1.0))

    def test_elu_matches_relu_plus_expm1_form(self, rng):
        # bit for bit, value and first gradient, against the old composite
        # relu(x) + expm1(min(x, 0)) and its summed vjps
        special = np.array([0.0, -0.0, 1e4, -1e4, np.nan, 1.5, -1.5])
        for x in (special, rng.normal(size=(3240, 128)) * 3):
            g = rng.normal(size=x.shape)
            with np.errstate(invalid="ignore"):
                neg = np.expm1(np.minimum(x, 0.0))
                value = x * (x >= 0) + neg
                grad = g * (x >= 0) + g * ((neg + 1.0) * (x < 0))
            leaf = ad.Tensor(x, requires_grad=True)     # parameter() refuses NaN
            out = ad.elu(leaf)
            (got,) = ad.grad(ad.tensor_sum(ad.mul(out, g)), [leaf])
            np.testing.assert_array_equal(out.data.view(np.uint64), value.view(np.uint64))
            np.testing.assert_array_equal(got.data.view(np.uint64), grad.view(np.uint64))

    def test_elu_large_inputs_do_not_overflow(self):
        x = np.array([1e4, 1e300, -1e4, -np.inf])
        with np.errstate(all="raise"):
            out = ad.elu(ad.constant(x))
        np.testing.assert_array_equal(out.data, [1e4, 1e300, -1.0, -1.0])

    def test_elu_second_derivative_vs_finite_differences(self, rng):
        # away from the kink at 0: d/dx of sum(v * elu'(x)), elu' = exp(min(x, 0))
        # above and below
        x = rng.uniform(0.2, 2.0, 9) * rng.choice([-1.0, 1.0], 9)
        v = rng.uniform(-2, 2, 9)

        def build(xs, vs):
            (g,) = ad.grad(ad.tensor_sum(ad.mul(ad.elu(xs), vs)), [xs])
            return ad.tensor_sum(ad.square(g))

        def forward(xs, vs):
            return float(np.sum((vs * np.exp(np.minimum(xs, 0.0))) ** 2))

        _, analytic = scalar_grad(build, x, v)
        for a, n in zip(analytic, numeric_grad(forward, [x, v])):
            assert rel_err(a, n) < 1e-6

    def test_swish_zero(self):
        assert ad.swish(ad.constant(0.0)).item() == 0.0

    def test_sigmoid_matches_three_exp_form(self, rng):
        # the special values, then a random-sign block the size of an
        # 80-atom pair-kernel activation
        special = np.array([np.inf, -np.inf, 0.0, -0.0, np.nan])
        for x in (np.concatenate([special, rng.normal(size=4096) * 10]),
                  rng.normal(size=(80 * 81 // 2, 64)) * 10):
            with np.errstate(invalid="ignore"):
                old = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                               np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
            np.testing.assert_array_equal(sigmoid(ad.constant(x)).data, old)

    def test_swish_one(self):
        assert ad.swish(ad.constant(1.0)).item() == pytest.approx(
            1.0 / (1.0 + np.exp(-1.0)), abs=1e-12)

    @pytest.mark.parametrize("kind", ["ELU", "swish"])
    def test_grads(self, rng, kind):
        x = rng.uniform(-2, 2, 9)
        op = ad.elu if kind == "ELU" else ad.swish
        _, (g,) = scalar_grad(lambda t: ad.tensor_sum(op(t)), x)

        def forward(a):
            if kind == "ELU":
                return float(np.where(a > 0, a, np.expm1(a)).sum())
            return float((a / (1 + np.exp(-a))).sum())

        (n,) = numeric_grad(forward, [x])
        assert rel_err(g, n) < 1e-5


def row_mean(a):
    """The mean over the last axis, kept, as a sum times 1/n."""
    return ad.mul(ad.tensor_sum(a, axis=-1, keepdims=True), 1.0 / a.shape[-1])


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

    @staticmethod
    def composite(x, gain, bias, eps=1e-5):
        """Layer norm built from primitives, as the engine once did."""
        xc = ad.sub(x, row_mean(x))
        var = row_mean(ad.square(xc))
        inv = ad.div(1.0, ad.sqrt(ad.add(var, eps)))
        return ad.add(ad.mul(ad.mul(xc, inv), gain), bias)

    @pytest.mark.parametrize("rows", ["random", "constant", "1e6"])
    def test_value_is_bitwise_composite(self, rng, rows):
        x = {"random": rng.normal(size=(40, 64)),
             "constant": np.full((3, 64), -2.7),
             "1e6": 1e6 * rng.normal(size=(40, 64)) + 3e6}[rows]
        gain, bias = rng.uniform(0.5, 1.5, 64), rng.uniform(-0.5, 0.5, 64)
        args = [ad.parameter(a) for a in (x, gain, bias)]
        out = ad.layer_norm(*args)
        ref = self.composite(*args)
        np.testing.assert_array_equal(out.data, ref.data)
        # one node, whose gain and bias gradients are those of the composite
        assert out.parents == tuple(args)
        g = ad.constant(rng.normal(size=x.shape))
        fused = ad.grad(ad.tensor_sum(ad.mul(out, g)), args[1:], create_graph=False)
        plain = ad.grad(ad.tensor_sum(ad.mul(ref, g)), args[1:], create_graph=False)
        for a, b in zip(fused, plain):
            np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("x, eps", [([[1.0, np.inf]], 1e-5), ([[np.nan, 0.0]], 1e-5),
                                        ([[1e200, -1e200]], 1e-5), ([[2.0, 2.0]], 0.0)],
                             ids=["inf", "nan", "overflow", "zero_deviation"])
    def test_non_finite_is_named(self, x, eps):
        with np.errstate(all="ignore"), pytest.raises(ad.NonFiniteError, match="layer_norm"):
            ad.layer_norm(ad.constant(x), np.ones(2), np.zeros(2), eps=eps)

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError, match="layer_norm"):
            ad.layer_norm(ad.constant(np.ones((2, 3))), np.ones(4), np.zeros(3))

    @staticmethod
    def setup(rng):
        return rng.uniform(-2, 2, (3, 5)), rng.uniform(0.5, 1.5, 5), rng.uniform(-0.5, 0.5, 5)

    def test_double_backward_vs_finite_differences(self, rng):
        # d/d(x, gain) of |d/dx sum(sin(LN))|^2 + |d/dgain sum(sin(LN))|^2
        x, gain, bias = self.setup(rng)

        def outer(xs, gs):
            xt, gt = ad.parameter(xs), ad.parameter(gs)
            f = ad.tensor_sum(ad.sin(ad.layer_norm(xt, gt, bias)))
            gx, gg = ad.grad(f, [xt, gt], create_graph=True)
            return ad.add(ad.tensor_sum(ad.square(gx)), ad.tensor_sum(ad.square(gg))), [xt, gt]

        loss, leaves = outer(x, gain)
        grads = ad.grad(loss, leaves)
        numeric = numeric_grad(lambda xs, gs: outer(xs, gs)[0].item(), [x, gain])
        for g, n in zip(grads, numeric):
            assert rel_err(g.data, n) < 1e-6

    @pytest.mark.parametrize("shape", [(4, 8), (2, 3, 8)])
    def test_no_graph_double_backward_is_bitwise_recorded(self, rng, shape):
        # a gradient norm inside the loss, as with forces: the parameter
        # sweep runs the x-vjp of layer norm's own vjp, on arrays without
        # create_graph and on graph nodes with it
        x = ad.parameter(rng.uniform(-2, 2, shape))
        w = ad.parameter(rng.uniform(0.5, 1.5, shape[-1]))
        gain, bias = (ad.parameter(rng.uniform(0.5, 1.5, shape[-1])),
                      ad.parameter(rng.uniform(-0.5, 0.5, shape[-1])))
        f = ad.tensor_sum(ad.sin(ad.layer_norm(ad.mul(x, w), gain, bias)))
        (gx,) = ad.grad(f, [x], create_graph=True)
        loss = ad.add(f, ad.tensor_sum(ad.square(gx)))
        leaves = [x, w, gain, bias]
        tracked = ad.grad(loss, leaves, create_graph=True)
        plain = ad.grad(loss, leaves, create_graph=False)     # frees the graph
        for a, b in zip(plain, tracked):
            assert not a.requires_grad
            np.testing.assert_array_equal(a.data, b.data)

    def test_third_order_is_refused(self, rng):
        # g2 = d/dx sum(cos(d/dx sum(sin(LN)))) is a second derivative; its
        # gradient would differentiate the x-vjp of layer norm's backward node
        x, gain, bias = self.setup(rng)
        xt, gt = ad.parameter(x), ad.parameter(gain)
        f = ad.tensor_sum(ad.sin(ad.layer_norm(xt, gt, bias)))
        (g1,) = ad.grad(f, [xt], create_graph=True)
        (g2,) = ad.grad(ad.tensor_sum(ad.cos(g1)), [xt], create_graph=True)
        with pytest.raises(NotImplementedError, match="a third derivative through layer_norm"):
            ad.grad(ad.tensor_sum(ad.square(g2)), [xt, gt])


def assert_same_bits(a, b):
    np.testing.assert_array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def value_and_grad(op, x, g):
    """op(x) and the gradient of sum(op(x)·g) w.r.t. x, without a graph."""
    leaf = ad.Tensor(x, requires_grad=True)     # parameter() refuses NaN
    out = op(leaf)
    (got,) = ad.grad(ad.tensor_sum(ad.mul(out, g)), [leaf], create_graph=False)
    return out.data, got.data


class TestSwish:
    @staticmethod
    def composite(a):
        return ad.mul(a, sigmoid(a))

    @pytest.mark.parametrize("kind", ["special", "block"])
    def test_value_and_gradient_are_bitwise_composite(self, rng, kind):
        x = {"special": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e4, -1e4, 1.5, -1.5]),
             "block": rng.normal(size=(3240, 64)) * 10}[kind]
        g = rng.normal(size=x.shape)
        with np.errstate(invalid="ignore"):
            fused = value_and_grad(ad.swish, x, g)
            plain = value_and_grad(self.composite, x, g)
        for a, b in zip(fused, plain):
            assert_same_bits(a, b)

    def test_one_node_with_a_one_node_gradient(self, rng):
        x = ad.parameter(rng.normal(size=(5, 3)))
        out = ad.swish(x)
        assert out.parents == (x,)
        (gx,) = ad.grad(ad.tensor_sum(ad.mul(out, rng.normal(size=(5, 3)))), [x])
        assert gx.parents[1] is x and len(tracked_nodes(gx)) == 2

    def test_double_backward_vs_finite_differences(self, rng):
        # d/d(x, w) of |d/dx f|^2 + |d/dw f|^2 with f = sum(sin(swish(x)·w))
        x, w = rng.uniform(-3, 3, (3, 4)), rng.uniform(0.5, 1.5, 4)

        def outer(xs, ws):
            xt, wt = ad.parameter(xs), ad.parameter(ws)
            f = ad.tensor_sum(ad.sin(ad.mul(ad.swish(xt), wt)))
            gx, gw = ad.grad(f, [xt, wt], create_graph=True)
            return ad.add(ad.tensor_sum(ad.square(gx)), ad.tensor_sum(ad.square(gw))), [xt, wt]

        loss, leaves = outer(x, w)
        grads = ad.grad(loss, leaves)
        numeric = numeric_grad(lambda xs, ws: outer(xs, ws)[0].item(), [x, w])
        for g, n in zip(grads, numeric):
            assert rel_err(g.data, n) < 1e-6

    def test_third_order_is_refused(self, rng):
        # g2 = d/dx sum(cos(d/dx sum(sin(swish(x)·w)))) is a second
        # derivative; its gradient would differentiate swish's a-vjp
        x, w = rng.uniform(-3, 3, (3, 4)), rng.uniform(0.5, 1.5, 4)
        xt, wt = ad.parameter(x), ad.parameter(w)
        f = ad.tensor_sum(ad.sin(ad.mul(ad.swish(xt), wt)))
        (g1,) = ad.grad(f, [xt], create_graph=True)
        (g2,) = ad.grad(ad.tensor_sum(ad.cos(g1)), [xt], create_graph=True)
        with pytest.raises(NotImplementedError, match="a third derivative through swish"):
            ad.grad(ad.tensor_sum(ad.square(g2)), [xt, wt])

    def test_no_graph_double_backward_is_bitwise_recorded(self, rng):
        # a gradient norm inside the loss, as with forces: the parameter
        # sweep runs both vjps of swish's own vjp node
        x = ad.parameter(rng.uniform(-3, 3, (6, 5)))
        w = ad.parameter(rng.uniform(0.5, 1.5, 5))
        v = ad.parameter(rng.uniform(-1, 1, 5))
        f = ad.tensor_sum(ad.sin(ad.mul(ad.swish(ad.mul(x, w)), v)))
        (gx,) = ad.grad(f, [x], create_graph=True)
        loss = ad.add(f, ad.tensor_sum(ad.square(gx)))
        tracked = ad.grad(loss, [x, w, v], create_graph=True)
        plain = ad.grad(loss, [x, w, v], create_graph=False)  # frees the graph
        for a, b in zip(plain, tracked):
            assert not a.requires_grad
            np.testing.assert_array_equal(a.data, b.data)


class TestGaussian:
    # the default basis: 64 centers 0.1 apart, width 10
    centers, gamma = 0.1 * np.arange(1, 65), 10.0

    @classmethod
    def composite(cls, r):
        rx = ad.reshape(r, r.shape + (1,))
        return ad.exp(ad.mul(ad.square(ad.sub(rx, cls.centers)), -cls.gamma))

    def fused(self, r):
        return ad.gaussian(r, self.centers, self.gamma)

    @pytest.mark.parametrize("kind", ["special", "block", "vector", "scalar"])
    def test_value_and_gradient_are_bitwise_composite(self, rng, kind):
        # the block reaches the subnormal range that exp flushes to 0
        r = {"special": np.array([0.0, -0.0, np.inf, -np.inf, 1e4, -1e4, 0.35, 3.2, 9.0]),
             "block": rng.normal(size=3240) * 4,
             "vector": np.array([0.0, 0.73, 2.5, 11.0]),
             "scalar": np.array(0.42)}[kind]
        g = rng.normal(size=r.shape + (64,))
        with np.errstate(invalid="ignore"):     # the gradient at r = ±inf is NaN
            fused = value_and_grad(self.fused, r, g)
            plain = value_and_grad(self.composite, r, g)
        for a, b in zip(fused, plain):
            assert a.shape == b.shape
            assert_same_bits(a, b)

    def test_nan_is_refused_like_the_composite(self):
        r = ad.constant([0.5, np.nan])
        for op in (self.fused, self.composite):
            with np.errstate(invalid="ignore"), pytest.raises(ad.NonFiniteError):
                op(r)

    def test_one_node_with_a_one_node_gradient(self, rng):
        r = ad.parameter(rng.uniform(0.5, 3.0, 7))
        out = self.fused(r)
        assert out.parents == (r,)
        (gr,) = ad.grad(ad.tensor_sum(ad.mul(out, rng.normal(size=(7, 64)))), [r])
        assert gr.parents[1] is r and len(tracked_nodes(gr)) == 2

    # few, wide Gaussians keep the finite differences well conditioned
    small = dict(centers=np.array([0.2, 0.5, 0.8, 1.1]), gamma=4.0)

    def test_double_backward_vs_finite_differences(self, rng):
        # d/d(r, w) of |d/dr f|^2 + |d/dw f|^2 with f = sum(sin(gaussian(r)·w))
        r, w = rng.uniform(0.1, 1.2, 5), rng.uniform(0.5, 1.5, 4)

        def outer(rs, ws):
            rt, wt = ad.parameter(rs), ad.parameter(ws)
            f = ad.tensor_sum(ad.sin(ad.mul(ad.gaussian(rt, **self.small), wt)))
            gr, gw = ad.grad(f, [rt, wt], create_graph=True)
            return ad.add(ad.tensor_sum(ad.square(gr)), ad.tensor_sum(ad.square(gw))), [rt, wt]

        loss, leaves = outer(r, w)
        grads = ad.grad(loss, leaves)
        numeric = numeric_grad(lambda rs, ws: outer(rs, ws)[0].item(), [r, w])
        for g, n in zip(grads, numeric):
            assert rel_err(g.data, n) < 1e-6

    def test_third_order_is_refused(self, rng):
        # g2 = d/dr sum(cos(d/dr sum(sin(gaussian(r)·w)))) is a second
        # derivative; its gradient would differentiate the vjps of the
        # basis's backward node
        r, w = rng.uniform(0.1, 1.2, 5), rng.uniform(0.5, 1.5, 4)
        rt, wt = ad.parameter(r), ad.parameter(w)
        f = ad.tensor_sum(ad.sin(ad.mul(ad.gaussian(rt, **self.small), wt)))
        (g1,) = ad.grad(f, [rt], create_graph=True)
        (g2,) = ad.grad(ad.tensor_sum(ad.cos(g1)), [rt], create_graph=True)
        with pytest.raises(NotImplementedError, match="a third derivative through gaussian"):
            ad.grad(ad.tensor_sum(ad.square(g2)), [rt, wt])

    def test_no_graph_double_backward_is_bitwise_recorded(self, rng):
        # forces in the loss: the parameter sweep runs both vjps of the
        # basis's own vjp node, into the distances and into its gradient
        x = ad.parameter(rng.uniform(0.2, 2.0, 9))
        w = ad.parameter(rng.uniform(0.5, 1.5, 9))
        v = ad.parameter(rng.uniform(-1, 1, 64))
        f = ad.tensor_sum(ad.sin(ad.mul(self.fused(ad.mul(x, w)), v)))
        (gx,) = ad.grad(f, [x], create_graph=True)
        loss = ad.add(f, ad.tensor_sum(ad.square(gx)))
        tracked = ad.grad(loss, [x, w, v], create_graph=True)
        plain = ad.grad(loss, [x, w, v], create_graph=False)  # frees the graph
        for a, b in zip(plain, tracked):
            assert not a.requires_grad
            np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("create_graph", [False, True])
@pytest.mark.parametrize("kind", ["layer_norm", "swish", "gaussian"])
def test_fused_second_order_matches_composite(rng, kind, create_graph):
    # a gradient norm inside the loss, as with forces: the parameter sweep
    # runs every vjp of the fused op's own vjp node, on arrays without
    # create_graph and on graph nodes with it; the primitive composite is
    # the reference, and its sums run in another order
    ops = {"layer_norm": (ad.layer_norm, TestLayerNorm.composite),
           "swish": (ad.swish, TestSwish.composite),
           "gaussian": (lambda r: ad.gaussian(r, TestGaussian.centers, TestGaussian.gamma),
                        TestGaussian.composite)}[kind]
    x0 = rng.uniform(0.2, 2.0, {"layer_norm": (4, 8), "swish": (6, 5), "gaussian": (9,)}[kind])
    rest = [rng.uniform(0.5, 1.5, x0.shape[-1])]            # w
    if kind == "layer_norm":
        rest += [rng.uniform(0.5, 1.5, 8), rng.uniform(-0.5, 0.5, 8)]     # gain, bias

    def parameter_grads(op):
        leaves = [ad.parameter(a) for a in [x0] + rest]
        x, w, *affine = leaves
        f = ad.tensor_sum(ad.sin(op(ad.mul(x, w), *affine)))
        (gx,) = ad.grad(f, [x], create_graph=True)
        loss = ad.add(f, ad.tensor_sum(ad.square(gx)))
        return [g.data for g in ad.grad(loss, leaves, create_graph=create_graph)]

    for a, b in zip(parameter_grads(ops[0]), parameter_grads(ops[1])):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("kind, k", [("layer_norm", 1), ("swish", 1), ("gaussian", 0),
                                     ("gaussian", 1)],
                         ids=["layer_norm_x", "swish_a", "gaussian_g", "gaussian_r"])
def test_each_second_order_vjp_refuses_a_third_derivative(rng, kind, k):
    # the vjps of a fused op's backward node run in numpy: untracked without
    # a graph, and while recording a node that refuses to be differentiated
    op = {"layer_norm": lambda x: ad.layer_norm(x, np.ones(8), np.zeros(8)),
          "swish": ad.swish,
          "gaussian": lambda r: ad.gaussian(r, TestGaussian.centers, TestGaussian.gamma)}[kind]
    x = ad.parameter(rng.uniform(0.2, 2.0, (4, 8)))
    (back,) = ad.grad(ad.tensor_sum(ad.sin(op(x))), [x], create_graph=True)
    h = ad.parameter(rng.normal(size=back.shape))
    with ad.no_graph():
        assert not back.vjps[k](h).requires_grad
    second = back.vjps[k](h)
    with pytest.raises(NotImplementedError, match=f"a third derivative through {kind}$"):
        ad.grad(ad.tensor_sum(second), [h])


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(ad.constant(np.full((2, 4), 1.7)))
        np.testing.assert_allclose(out.data, 0.25, atol=1e-15)

    def test_quarter_three_quarters(self):
        out = ad.softmax(ad.constant([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        out = ad.softmax(ad.constant(rng.uniform(-5, 5, (6, 6))))
        np.testing.assert_allclose(out.data.sum(-1), 1.0, atol=1e-12)

    def test_grad_vs_finite_differences(self, rng):
        x = rng.uniform(-2, 2, (3, 4))
        w = rng.uniform(-1, 1, (3, 4))

        def build(t):
            return ad.tensor_sum(ad.mul(ad.softmax(t), w))

        def forward(a):
            e = np.exp(a - a.max(-1, keepdims=True))
            return float((e / e.sum(-1, keepdims=True) * w).sum())

        _, (g,) = scalar_grad(build, x)
        (n,) = numeric_grad(forward, [x])
        assert rel_err(g, n) < 1e-5

    def test_middle_axis_of_3d_input(self, rng):
        x = rng.uniform(-2, 2, (3, 4, 2))
        w = rng.uniform(-1, 1, (3, 4, 2))

        def forward(a):
            e = np.exp(a - a.max(1, keepdims=True))
            return e / e.sum(1, keepdims=True)

        np.testing.assert_allclose(ad.softmax(ad.constant(x), axis=1).data,
                                   forward(x), atol=1e-15)
        _, (g,) = scalar_grad(lambda t: ad.tensor_sum(ad.mul(ad.softmax(t, axis=1), w)), x)
        (n,) = numeric_grad(lambda a: float((forward(a) * w).sum()), [x])
        assert rel_err(g, n) < 1e-5


class TestEinsum:
    """einsum values, vjps and double backward against numpy and finite
    differences, for the attention gate and the A.V contraction."""

    GATE = "ihc,jhc,ijhc->ijh"
    AV = "ijh,jhc->ihc"

    # two-operand specs, each run as one np.matmul
    TWO = [AV,
           "ij,jk->ik",         # no batch index
           "bij,bjk->bik",      # a batch index
           "ne,nd->de",         # the second operand's free index leads the output
           "ijk,jkl->il",       # two summed indices
           "ki,jk->ij",         # every layout step: both operands and the output transposed
           "i,j->ij"]           # outer product

    def operands(self, rng, spec):
        # distinct extents, so that a mixed-up axis shows
        shapes = dict(zip("bcdehijkln", range(2, 12)))
        terms = spec.split("->")[0].split(",")
        return [rng.uniform(-1, 1, tuple(shapes[x] for x in t)) for t in terms]

    @pytest.mark.parametrize("n", [1, 6, 80, 3240])
    def test_dense_layer_is_bitwise_matmul(self, rng, n):
        x, w = rng.uniform(-1, 1, (n, 32)), rng.uniform(-1, 1, (32, 64))
        g = rng.uniform(-1, 1, (n, 64))
        xt, wt = ad.parameter(x), ad.parameter(w)
        out = ad.einsum("nd,de->ne", xt, wt)
        gx, gw = ad.grad(ad.tensor_sum(ad.mul(out, g)), [xt, wt], create_graph=False)
        np.testing.assert_array_equal(out.data, x @ w)
        np.testing.assert_array_equal(gx.data, g @ w.T)
        np.testing.assert_array_equal(gw.data, x.T @ g)
        # laid out as matmul's results, so later reductions sum in the same order
        assert all(t.data.flags.c_contiguous for t in (out, gx, gw))

    @pytest.mark.parametrize("spec", [GATE, *TWO])
    def test_value_matches_numpy(self, rng, spec):
        arrays = self.operands(rng, spec)
        out = ad.einsum(spec, *map(ad.constant, arrays))
        np.testing.assert_allclose(out.data, np.einsum(spec, *arrays), atol=1e-14)

    @pytest.mark.parametrize("spec", [GATE, *TWO])
    def test_vjp_of_each_operand_vs_finite_differences(self, rng, spec):
        arrays = self.operands(rng, spec)
        w = rng.uniform(-1, 1, np.einsum(spec, *arrays).shape)
        _, grads = scalar_grad(
            lambda *ts: ad.tensor_sum(ad.mul(ad.einsum(spec, *ts), w)), *arrays)
        numeric = numeric_grad(lambda *xs: float((np.einsum(spec, *xs) * w).sum()), arrays)
        for g, n in zip(grads, numeric):
            assert rel_err(g, n) < 1e-6

    @pytest.mark.parametrize("spec", [GATE, AV])
    def test_double_backward_vs_finite_differences(self, rng, spec):
        # d/d(operand 1) of |d/d(operand 0) sum(sin(einsum))|^2
        arrays = self.operands(rng, spec)

        def outer(*xs):
            leaves = [ad.parameter(x) for x in xs]
            f = ad.tensor_sum(ad.sin(ad.einsum(spec, *leaves)))
            (g0,) = ad.grad(f, [leaves[0]], create_graph=True)
            return ad.tensor_sum(ad.square(g0)), leaves

        loss, leaves = outer(*arrays)
        grads = ad.grad(loss, leaves[1:])

        def loss_at(x1):
            return outer(arrays[0], x1, *arrays[2:])[0].item()

        (n,) = numeric_grad(loss_at, [arrays[1]])
        assert rel_err(grads[0].data, n) < 1e-6

    @pytest.mark.parametrize("spec", [GATE, AV])
    def test_no_graph_value_is_untracked_and_bitwise_recorded(self, rng, spec, monkeypatch):
        leaves = [ad.parameter(a) for a in self.operands(rng, spec)]
        recorded = ad.einsum(spec, *leaves)
        built = []
        monkeypatch.setattr(ad, "_einsum_vjp", lambda *args: built.append(args))
        with ad.no_graph():
            plain = ad.einsum(spec, *leaves)
        assert not plain.requires_grad and plain.parents == ()
        assert built == []      # no vjp made only to be dropped
        assert_same_bits(plain.data, recorded.data)

    @pytest.mark.parametrize("spec,shapes", [
        ("ii,ij->ij", [(2, 2), (2, 3)]),      # repeated index in an operand
        ("ij,jk->i", [(2, 3), (3, 4)]),       # k only in the second operand
        ("ij,jk->ik", [(2, 3)]),              # two terms, one operand
        ("ij,jk->ik", [(2, 1), (3, 4)]),      # j is 1 and 3: no broadcasting
    ])
    def test_malformed_specs_rejected(self, spec, shapes):
        for _ in range(2):      # the checks are cached; a failure is not
            with pytest.raises(ad.ShapeError):
                ad.einsum(spec, *(np.ones(s) for s in shapes))


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


def pair_sum_twice(x, pairs):
    v = ad.take_rows(x, pairs.i)
    return ad.add(ad.add_pair_sum(v, x, pairs), v)


class TestGradContract:
    @staticmethod
    def build(x, w):
        h = ad.layer_norm(ad.einsum("ij,jk->ik", x, w),
                          ad.constant(np.ones(3)), ad.constant(np.zeros(3)))
        return ad.tensor_sum(ad.mul(ad.elu(h), sigmoid(ad.sqrt(ad.exp(h)))))

    def test_no_graph_gives_same_bits_and_no_parents(self, rng):
        x = ad.parameter(rng.uniform(-2, 2, (4, 5)))
        w = ad.parameter(rng.uniform(-2, 2, (5, 3)))
        # the sweep sums several contributions into one node: two into the
        # layer norm output inside build, and three into x
        out = ad.add(self.build(x, w), ad.tensor_sum(ad.mul(x, ad.exp(x))))
        tracked = ad.grad(out, [x, w], create_graph=True)
        plain = ad.grad(out, [x, w], create_graph=False)
        for a, b in zip(tracked, plain):
            assert a.parents
            assert_same_bits(a.data, b.data)
            assert b.parents == () and not b.requires_grad

    @pytest.mark.parametrize("create_graph", [False, True])
    def test_a_graph_swept_without_create_graph_refuses_a_second_sweep(self, rng, create_graph):
        x = ad.parameter(rng.uniform(-2, 2, (4, 5)))
        w = ad.parameter(rng.uniform(-2, 2, (5, 3)))
        out = self.build(x, w)
        ad.grad(out, [x, w], create_graph=False)
        with pytest.raises(ValueError, match="already swept with create_graph=False"):
            ad.grad(out, [x], create_graph=create_graph)

    def test_a_create_graph_sweep_keeps_the_graph_and_a_plain_one_frees_it(self, rng):
        x = ad.parameter(rng.uniform(-2, 2, (4, 5)))
        w = ad.parameter(rng.uniform(-2, 2, (5, 3)))
        out = self.build(x, w)
        tracked = ad.grad(out, [x, w], create_graph=True)
        again = ad.grad(out, [x, w], create_graph=True)
        plain = ad.grad(out, [x, w], create_graph=False)
        for a, b, c in zip(tracked, again, plain):
            assert_same_bits(a.data, b.data)
            assert_same_bits(a.data, c.data)
        # what is left is the leaves' arrays
        assert sum(a.nbytes for a in held_arrays(out)) == x.data.nbytes + w.data.nbytes

    def test_a_later_sweep_through_a_freed_node_raises_and_one_beside_it_does_not(self, rng):
        x = ad.parameter(rng.uniform(-2, 2, 4))
        w = ad.parameter(rng.uniform(-2, 2, 4))
        u = ad.exp(w)               # off the path from x
        prod = ad.mul(x, u)
        ad.grad(ad.tensor_sum(prod), [x], create_graph=False)
        (gw,) = ad.grad(ad.tensor_sum(u), [w], create_graph=False)
        np.testing.assert_array_equal(gw.data, u.data)
        with pytest.raises(ValueError, match="already swept with create_graph=False"):
            ad.grad(ad.tensor_sum(ad.square(prod)), [w])

    def test_no_graph_block_records_nothing(self, rng):
        x = ad.parameter(rng.uniform(-2, 2, (4, 5)))
        w = ad.parameter(rng.uniform(-2, 2, (5, 3)))
        with ad.no_graph():
            out = self.build(x, w)
        assert out.parents == () and not out.requires_grad
        np.testing.assert_array_equal(out.data, self.build(x, w).data)
        assert self.build(x, w).parents

    def test_no_graph_restores_recording_after_exception(self, rng):
        x = ad.parameter(rng.uniform(-2, 2, 3))
        with pytest.raises(RuntimeError):
            with ad.no_graph():
                raise RuntimeError("inside")
        assert ad._RECORDING
        assert ad.exp(x).parents

    def test_vjps_off_the_path_from_wrt_are_not_called(self, rng):
        def refuse(g):
            raise AssertionError("vjp off the path from wrt was called")

        x = ad.parameter(rng.uniform(-2, 2, 4))
        w = ad.parameter(rng.uniform(-2, 2, 4))
        a = ad.exp(w)                # depends on w only
        a.node.vjps = (refuse,)     # the node's, which a sweep runs
        prod = ad.mul(x, a)
        prod.node.vjps = (prod.vjps[0], refuse)
        (g,) = ad.grad(ad.tensor_sum(prod), [x])
        np.testing.assert_array_equal(g.data, a.data)

    def test_a_value_read_for_its_shape_only_is_freed_with_its_tensor(self, rng):
        # the model's kernel rows: an MLP layer whose output only a pair
        # gather reads.  The graph keeps the layer's node, not its array.
        g = ad.parameter(rng.uniform(-2, 2, (10, 3)))
        w = ad.parameter(rng.uniform(-2, 2, (3, 5)))
        b = ad.parameter(rng.uniform(-2, 2, 5))

        def record():
            rows = ad.add(ad.einsum("nd,de->ne", g, w), b)
            return rows, ad.tensor_sum(ad.square(ad.expand_pairs(rows, ad.group_pairs((4,)))))

        # a sweep without create_graph frees its graph: each before-sweep
        # gets a graph of its own, and the create_graph sweep goes first below
        before = {cg: ad.grad(record()[1], [g, w, b], create_graph=cg) for cg in (False, True)}
        rows, out = record()
        ref = weakref.ref(rows.data)
        del rows
        assert ref() is None
        after = {cg: ad.grad(out, [g, w, b], create_graph=cg) for cg in (True, False)}
        for cg in before:
            for x, y in zip(before[cg], after[cg]):
                np.testing.assert_array_equal(x.data, y.data)

    def test_a_swish_output_read_by_a_constant_weight_is_freed_with_its_tensor(self, rng):
        # a feed-forward layer of a force evaluation: no vjp into the
        # untracked weight, so nothing keeps the activation it multiplies
        x = ad.parameter(rng.uniform(-2, 2, (6, 4)))
        w = ad.constant(rng.uniform(-2, 2, (4, 3)))

        def record():
            h = ad.swish(x)
            y = ad.einsum("nd,de->ne", h, w)
            return h, y, ad.tensor_sum(ad.square(y))

        # as above: a graph per no-graph sweep, the create_graph sweep first
        before = {cg: ad.grad(record()[2], [x], create_graph=cg) for cg in (False, True)}
        h, y, out = record()
        ref = weakref.ref(h.data)
        assert y.vjps[1] is None
        del h
        assert ref() is None
        after = {cg: ad.grad(out, [x], create_graph=cg) for cg in (True, False)}
        for cg in before:
            np.testing.assert_array_equal(before[cg][0].data, after[cg][0].data)

    def test_frozen_leaves_record_as_constants(self, rng):
        x = ad.parameter(rng.uniform(-2, 2, (4, 5)))
        w = ad.parameter(rng.uniform(-2, 2, (5, 3)))
        with ad.frozen([w]):
            out = self.build(x, w)
        assert w.requires_grad
        np.testing.assert_array_equal(out.data, self.build(x, w).data)
        for cg in (True, False):        # the sweep without create_graph frees out
            (g_frozen,) = ad.grad(out, [x], create_graph=cg)
            (g,) = ad.grad(self.build(x, w), [x], create_graph=cg)
            np.testing.assert_array_equal(g_frozen.data, g.data)
        with ad.frozen([x, w]):
            assert not self.build(x, w).requires_grad

    def test_frozen_restores_requires_grad_after_an_error(self, rng):
        w = ad.parameter(rng.uniform(1, 2, 3))
        c = ad.constant(np.ones(3))
        with pytest.raises(ad.NonFiniteError):
            with ad.frozen([w, c]):
                assert not w.requires_grad
                ad.exp(ad.mul(w, 1e4))
        assert w.requires_grad and not c.requires_grad
        assert ad.exp(w).parents

    def test_gradient_into_a_leaf_frozen_while_recording_is_refused(self, rng):
        x = ad.parameter(rng.uniform(-2, 2, (4, 5)))
        w = ad.parameter(rng.uniform(-2, 2, (5, 3)))
        with ad.frozen([w]):
            out = ad.tensor_sum(ad.einsum("ij,jk->ik", x, w))
        with pytest.raises(ValueError, match=r"leaf of shape \(5, 3\): it was frozen"):
            ad.grad(out, [x, w])

    @pytest.mark.parametrize("op", ["exp", "mul", "einsum"])
    def test_gradient_into_a_frozen_leaf_inside_the_scope_is_refused(self, rng, op):
        # without the check all three answered 0, which the gradient into w
        # is in none of them
        x = ad.parameter(rng.uniform(-2, 2, 4))
        w = ad.parameter(rng.uniform(-2, 2, 4))
        build = {"exp": lambda: ad.tensor_sum(ad.mul(ad.exp(w), x)),
                 "mul": lambda: ad.tensor_sum(ad.mul(w, x)),
                 "einsum": lambda: ad.einsum("i,i->", w, x)}[op]
        with ad.frozen([w]):
            out = build()
            (gx,) = ad.grad(out, [x])
            with pytest.raises(ValueError, match=r"shape \(4,\) in wrt is untracked"):
                ad.grad(out, [x, w])
        np.testing.assert_array_equal(gx.data, ad.grad(build(), [x])[0].data)

    def test_gradient_with_respect_to_a_constant_is_refused(self):
        x = ad.parameter([1.0, 2.0])
        with pytest.raises(ValueError, match="untracked"):
            ad.grad(ad.tensor_sum(ad.square(x)), [x, ad.constant([1.0, 2.0])])

    # graphs where one incoming gradient reaches two parents, or a parent
    # through a view (reshape, transpose) or a pass-through (add_pair_sum's
    # first operand, added once more here)
    ALIASING = {
        "add_self": lambda x: ad.add(x, x),
        "add_reshape": lambda x: ad.add(x, ad.reshape(ad.reshape(x, (2, 8)), (4, 4))),
        "mul_transpose": lambda x: ad.mul(x, ad.einsum("ij->ji", x)),
        "add_pair_sum": lambda x: pair_sum_twice(x, ad.group_pairs((4,))),
    }

    @pytest.mark.parametrize("case", sorted(ALIASING))
    def test_aliased_gradients_are_not_shared_or_mutated(self, rng, case):
        f = self.ALIASING[case]

        def loss(x):
            # u and the gradient of the sum each reach two consumers, so an
            # in-place accumulation into a shared gradient shows
            u = ad.sin(x)
            return ad.tensor_sum(ad.square(ad.add(f(u), f(ad.exp(u)))))

        x = ad.parameter(rng.uniform(-2, 2, (4, 4)))
        out = loss(x)
        # the arrays the sweeps read, held here: the sweep without
        # create_graph drops the graph's hold on them
        forward = held_arrays(out)
        copies = [a.copy() for a in forward]
        (tracked,) = ad.grad(out, [x], create_graph=True)
        (plain,) = ad.grad(out, [x], create_graph=False)
        for a, data in zip(forward, copies):
            np.testing.assert_array_equal(a, data)
        np.testing.assert_array_equal(plain.data, tracked.data)
        (numeric,) = numeric_grad(lambda a: loss(ad.constant(a)).item(), [x.data])
        assert rel_err(plain.data, numeric) < 1e-7

        first = plain.data.copy()
        (again,) = ad.grad(loss(x), [x], create_graph=False)
        np.testing.assert_array_equal(plain.data, first)
        np.testing.assert_array_equal(again.data, first)


class TestPairOps:
    """expand_pairs / fold_pairs / add_pair_sum on the i <= j pair layout."""

    def test_layout(self):
        pairs = ad.group_pairs((3,))
        assert len(pairs.i) == 6 and np.all(pairs.i <= pairs.j)
        np.testing.assert_array_equal(pairs.i[-3:], [0, 1, 2])
        np.testing.assert_array_equal(pairs.j[-3:], [0, 1, 2])
        np.testing.assert_array_equal(pairs.index[0], pairs.index[0].T)
        np.testing.assert_array_equal(pairs.index[0][pairs.i, pairs.j], np.arange(6))

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_one_molecule_is_laid_out_as_a_group_of_one(self, n):
        pairs = ad.group_pairs((n,))
        assert pairs.index.shape == (1, n, n) and not pairs.padded
        np.testing.assert_array_equal(pairs.rows, np.arange(n))
        # the off-diagonal pairs in row-major order, then the diagonal
        off_i, off_j = np.triu_indices(n, 1)
        np.testing.assert_array_equal(pairs.i, np.concatenate([off_i, np.arange(n)]))
        np.testing.assert_array_equal(pairs.j, np.concatenate([off_j, np.arange(n)]))
        np.testing.assert_array_equal(pairs.upper, pairs.i * n + pairs.j)
        np.testing.assert_array_equal(pairs.lower, off_j * n + off_i)

    def test_cached_per_atom_count(self):
        assert ad.group_pairs((7,)) is ad.group_pairs((7,))
        assert ad.group_pairs((7,)) is not ad.group_pairs((8,))

    @pytest.mark.parametrize("field", ad.PairIndex._fields)
    def test_cached_arrays_are_read_only(self, field):
        arr = getattr(ad.group_pairs((4,)), field)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1

    def test_group_cache_keeps_what_repeats_and_stays_small(self, rng):
        ad.group_pairs.cache_clear()
        rounds = [tuple(rng.integers(4, 9, 4).tolist()) for _ in range(26)]
        # and the molecules that run alone, as those of train-mid do
        rounds += [(n,) for n in range(24, 41)]
        for sizes in rounds:
            ad.group_pairs(sizes)
        hits = ad.group_pairs.cache_info().hits
        for sizes in rounds:
            ad.group_pairs(sizes)
        assert ad.group_pairs.cache_info().hits == hits + 26 + 17
        # many distinct 16-molecule groups, as batches of 32 give
        for _ in range(300):
            ad.group_pairs(tuple(rng.integers(4, 9, 16).tolist()))
        info = ad.group_pairs.cache_info()
        assert info.currsize <= info.maxsize
        biggest = sum(a.nbytes for a in ad.group_pairs((8,) * 16))
        assert info.maxsize * biggest <= 2e6      # 1024 entries held 18.9 MB

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_expand_and_fold_are_adjoint(self, rng, n):
        pairs = ad.group_pairs((n,))
        u = rng.normal(size=(len(pairs.i), 3))
        g = rng.normal(size=(1, n, n, 3))
        lhs = np.sum(ad.expand_pairs(u, pairs).data * g)
        rhs = np.sum(u * ad.fold_pairs(g, pairs).data)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_expand_mirrors_and_fold_sums_both_orders(self, rng):
        pairs = ad.group_pairs((4,))
        u = rng.normal(size=(10, 2))
        lam = ad.expand_pairs(u, pairs).data[0]
        np.testing.assert_array_equal(lam, lam.transpose(1, 0, 2))
        g = rng.normal(size=(1, 4, 4, 2))
        folded = ad.fold_pairs(g, pairs).data
        for k, (i, j) in enumerate(zip(pairs.i, pairs.j)):
            want = g[0, i, i] if i == j else g[0, i, j] + g[0, j, i]
            np.testing.assert_array_equal(folded[k], want)

    def test_add_pair_sum_gradients(self, rng):
        pairs = ad.group_pairs((4,))
        x = rng.normal(size=(10, 3))
        p = rng.normal(size=(4, 3))
        w = rng.normal(size=(10, 3))
        _, grads = scalar_grad(
            lambda s, t: ad.tensor_sum(ad.square(ad.mul(ad.add_pair_sum(s, t, pairs), w))), x, p)
        numeric = numeric_grad(
            lambda s, a: float(((w * (s + a[pairs.i] + a[pairs.j])) ** 2).sum()), [x, p])
        for g, n in zip(grads, numeric):
            assert rel_err(g, n) < 1e-6

    def test_double_backward_through_expand_and_fold(self, rng):
        # d/dp of |grad_x f|^2 where f mixes x and p through the pair layout
        pairs = ad.group_pairs((3,))
        x0 = rng.normal(size=(6, 2))
        p0 = rng.normal(size=(1, 3, 3, 2))

        def outer(pv):
            x = ad.parameter(x0)
            p = ad.parameter(pv)
            f = ad.tensor_sum(ad.sin(ad.mul(ad.expand_pairs(ad.square(x), pairs), p)))
            (gx,) = ad.grad(f, [x], create_graph=True)
            return ad.tensor_sum(ad.square(ad.fold_pairs(ad.expand_pairs(gx, pairs), pairs))), p

        loss, p = outer(p0)
        (g,) = ad.grad(loss, [p])
        (n,) = numeric_grad(lambda pv: outer(pv)[0].item(), [p0])
        assert rel_err(g.data, n) < 1e-6


class TestStructuralOps:
    def test_concat_slice_roundtrip_grads(self, rng):
        a = rng.uniform(-2, 2, (3, 2))
        b = rng.uniform(-2, 2, (3, 4))

        # [x | y] along axis 1, built as x @ [I 0] + y @ [0 I]
        left, right = np.eye(2, 6), np.eye(4, 6, 2)

        def build(x, y):
            joined = ad.add(ad.einsum("ij,jk->ik", x, left),
                            ad.einsum("ij,jk->ik", y, right))
            return ad.tensor_sum(ad.square(ad.slice_axis(joined, 1, 1, 5)))

        def forward(x, y):
            joined = np.concatenate([x, y], axis=1)
            return float((joined[:, 1:5] ** 2).sum())

        _, analytic = scalar_grad(build, a, b)
        numeric = numeric_grad(forward, [a, b])
        for g, n in zip(analytic, numeric):
            assert rel_err(g, n) < 1e-6

    def test_slice_of_a_whole_axis_is_the_operand(self, rng):
        x = ad.parameter(rng.normal(size=(3, 2)))
        assert ad.slice_axis(x, 0, 0, 3) is x
        assert ad.slice_axis(x, 1, 0, 1).shape == (3, 1)

    def test_item_reads_any_one_element_tensor(self):
        for data in (np.array(2.5), np.array([2.5]), np.array([[2.5]])):
            value = ad.constant(data).item()
            assert isinstance(value, float) and value == 2.5
        with pytest.raises(ValueError):
            ad.constant([1.0, 2.0]).item()

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
    def test_parameter_rejects_nan(self):
        with pytest.raises(ad.NonFiniteError):
            ad.parameter(np.array([1.0, np.nan]))
