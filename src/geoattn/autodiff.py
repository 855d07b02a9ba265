"""Dense-tensor reverse-mode automatic differentiation.

The engine is deliberately small: a :class:`Tensor` wraps a numpy array and
remembers, for every operation, its parent tensors together with one
vector-Jacobian-product (vjp) closure per parent.  :func:`grad` is the one
way to differentiate: it sweeps the graph in reverse and runs a vjp only
where the parent lies on a path from the requested tensors.  Every vjp is
itself written in terms of these same primitives, so with
``create_graph=True`` the sweep *builds new graph nodes*.  Gradients are then
ordinary tensors and can be differentiated again, which is what lets a force
term (the gradient of the predicted energy w.r.t. coordinates) sit inside a
training loss whose parameter gradient we then need.  With
``create_graph=False`` the same vjps run on plain arrays and record nothing.

No closure holds its own output node, so a graph is freed by reference
counting as soon as its output is dropped.

Default precision is float64; float32 can be opted into via
:func:`set_default_dtype`.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64

# False while grad(create_graph=False) sweeps: _node then builds no graph
_RECORDING = True


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(FloatingPointError):
    """A NaN or Inf showed up where the engine requires finite values."""


def set_default_dtype(dtype) -> None:
    global DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}")
    DEFAULT_DTYPE = dtype.type


class Tensor:
    """A node of the differentiation graph.

    Leaves are created with :func:`parameter` (tracked) or :func:`constant`
    (untracked); everything else comes out of the ops below.  Gradients are
    not stored on tensors; :func:`grad` returns them.
    """

    __slots__ = ("data", "parents", "vjps", "requires_grad", "__weakref__")

    def __init__(self, data: np.ndarray, parents=(), vjps=(), requires_grad=False):
        self.data = data
        self.parents = parents
        self.vjps = vjps
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = "param" if (self.requires_grad and not self.parents) else "node"
        return f"Tensor({tag}, shape={self.shape})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_array(x) -> np.ndarray:
    if isinstance(x, np.ndarray) and x.dtype == DEFAULT_DTYPE:
        return x
    return np.asarray(x, dtype=DEFAULT_DTYPE)


def constant(x) -> Tensor:
    return Tensor(_as_array(x))


def parameter(x) -> Tensor:
    """A differentiable leaf.  Rejects non-finite initial values."""
    arr = _as_array(x).copy()
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("parameter initialized with non-finite values")
    return Tensor(arr, requires_grad=True)


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _node(data: np.ndarray, parents: Sequence[Tensor], vjps: Sequence[Callable]) -> Tensor:
    """Build an op node, pruning the graph when no parent is tracked or
    nothing is being recorded."""
    if _RECORDING and any(p.requires_grad for p in parents):
        return Tensor(data, tuple(parents), tuple(vjps), requires_grad=True)
    return Tensor(data)


def _with_output_vjp(out: Tensor, vjp: Callable) -> Tensor:
    """Give a one-parent node the vjp ``vjp(g, out)``.  The closure holds
    ``out`` weakly, so the node is not a reference cycle; a gradient sweep
    only runs it while ``out`` is alive."""
    if out.requires_grad:
        ref = weakref.ref(out)
        out.vjps = (lambda g: vjp(g, ref()),)
    return out


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values produced by {what}")


# ---------------------------------------------------------------------------
# shape plumbing

def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    shape = tuple(shape)
    old = a.shape
    return _node(a.data.reshape(shape), [a], [lambda g: reshape(g, old)])


def transpose(a, axes) -> Tensor:
    a = _coerce(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _node(a.data.transpose(axes), [a], [lambda g: transpose(g, inv)])


def broadcast_to(a, shape) -> Tensor:
    a = _coerce(a)
    shape = tuple(shape)
    old = a.shape
    data = np.broadcast_to(a.data, shape).copy()
    return _node(data, [a], [lambda g: _sum_to(g, old)])


def _sum_to(g: Tensor, shape: tuple) -> Tensor:
    """Reduce ``g`` back to ``shape`` by summing broadcast axes."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    axes = list(range(extra))
    for i, n in enumerate(shape):
        if n == 1 and g.shape[extra + i] != 1:
            axes.append(extra + i)
    out = tensor_sum(g, axis=tuple(axes), keepdims=False) if axes else g
    return reshape(out, shape) if out.shape != shape else out


def tensor_sum(a, axis=None, keepdims=False) -> Tensor:
    a = _coerce(a)
    if axis is None:
        axis = tuple(range(a.ndim))
    elif isinstance(axis, int):
        axis = (axis % a.ndim,)
    else:
        axis = tuple(ax % a.ndim for ax in axis)
    in_shape = a.shape
    kept = tuple(1 if i in axis else n for i, n in enumerate(in_shape))
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def back(g):
        return broadcast_to(reshape(g, kept), in_shape)

    return _node(data, [a], [back])


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = _coerce(a)
    if axis is None:
        n = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = int(np.prod([a.shape[i] for i in axes]))
    return tensor_sum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    parts = [_coerce(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])
    vjps = []
    for i in range(len(parts)):
        start, stop = int(offsets[i]), int(offsets[i + 1])
        vjps.append(lambda g, s=start, e=stop: slice_axis(g, axis, s, e))
    return _node(data, parts, vjps)


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = _coerce(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    total = a.shape[axis]

    def back(g):
        return _pad_axis(g, axis, start, total - stop)

    return _node(a.data[tuple(idx)].copy(), [a], [back])


def _pad_axis(a, axis: int, before: int, after: int) -> Tensor:
    a = _coerce(a)
    pads = [(0, 0)] * a.ndim
    pads[axis] = (before, after)
    stop = before + a.shape[axis]
    return _node(
        np.pad(a.data, pads),
        [a],
        [lambda g: slice_axis(g, axis, before, stop)],
    )


def take_rows(a, idx) -> Tensor:
    """Row gather ``a[idx]``; backward scatter-adds into the source rows."""
    a = _coerce(a)
    idx = np.asarray(idx, dtype=np.intp)
    n = a.shape[0]
    return _node(a.data[idx], [a], [lambda g: put_rows(g, idx, n)])


def put_rows(g, idx, n_rows: int) -> Tensor:
    g = _coerce(g)
    idx = np.asarray(idx, dtype=np.intp)
    data = np.zeros((n_rows,) + g.shape[1:], dtype=g.data.dtype)
    np.add.at(data, idx, g.data)
    return _node(data, [g], [lambda gg: take_rows(gg, idx)])


# ---------------------------------------------------------------------------
# arithmetic

def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise ShapeError(f"{op}: cannot broadcast {a.shape} with {b.shape}") from exc


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _binary_shapes(a, b, "add")
    sa, sb = a.shape, b.shape
    return _node(a.data + b.data, [a, b],
                 [lambda g: _sum_to(g, sa), lambda g: _sum_to(g, sb)])


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _binary_shapes(a, b, "sub")
    sa, sb = a.shape, b.shape
    return _node(a.data - b.data, [a, b],
                 [lambda g: _sum_to(g, sa), lambda g: _sum_to(neg(g), sb)])


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _binary_shapes(a, b, "mul")
    sa, sb = a.shape, b.shape
    return _node(a.data * b.data, [a, b],
                 [lambda g: _sum_to(mul(g, b), sa), lambda g: _sum_to(mul(g, a), sb)])


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _binary_shapes(a, b, "div")
    data = a.data / b.data
    _check_finite(data, "div")
    sa, sb = a.shape, b.shape
    return _node(data, [a, b],
                 [lambda g: _sum_to(div(g, b), sa),
                  lambda g: _sum_to(neg(div(mul(g, a), square(b))), sb)])


def neg(a) -> Tensor:
    a = _coerce(a)
    return _node(-a.data, [a], [lambda g: neg(g)])


def exp(a) -> Tensor:
    a = _coerce(a)
    with np.errstate(over="ignore"):
        data = np.exp(a.data)
    _check_finite(data, "exp")
    return _with_output_vjp(_node(data, [a], [None]), lambda g, out: mul(g, out))


def log(a) -> Tensor:
    a = _coerce(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)
    _check_finite(data, "log")
    return _node(data, [a], [lambda g: div(g, a)])


def sqrt(a) -> Tensor:
    a = _coerce(a)
    with np.errstate(invalid="ignore"):
        data = np.sqrt(a.data)
    _check_finite(data, "sqrt")
    return _with_output_vjp(_node(data, [a], [None]),
                            lambda g, out: div(mul(g, 0.5), out))


def square(a) -> Tensor:
    a = _coerce(a)
    return _node(a.data * a.data, [a], [lambda g: mul(g, mul(a, 2.0))])


def absolute(a) -> Tensor:
    # subgradient 0 at exactly zero, so MAE losses stay defined everywhere
    a = _coerce(a)
    sign = np.sign(a.data)
    return _node(np.abs(a.data), [a], [lambda g: mul(g, sign)])


def sin(a) -> Tensor:
    a = _coerce(a)
    return _node(np.sin(a.data), [a], [lambda g: mul(g, cos(a))])


def cos(a) -> Tensor:
    a = _coerce(a)
    return _node(np.cos(a.data), [a], [lambda g: neg(mul(g, sin(a)))])


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    # stable in both tails
    data = np.where(a.data >= 0,
                    1.0 / (1.0 + np.exp(-np.abs(a.data))),
                    np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))
    return _with_output_vjp(_node(data, [a], [None]),
                            lambda g, out: mul(g, mul(out, sub(1.0, out))))


def relu(a) -> Tensor:
    a = _coerce(a)
    mask = (a.data >= 0).astype(a.data.dtype)
    return _node(a.data * mask, [a], [lambda g: mul(g, mask)])


def _expm1_neg(a) -> Tensor:
    """expm1(min(x, 0)); the negative branch of ELU, overflow-free."""
    a = _coerce(a)
    clipped = np.minimum(a.data, 0.0)
    mask = (a.data < 0).astype(a.data.dtype)
    return _with_output_vjp(_node(np.expm1(clipped), [a], [None]),
                            lambda g, out: mul(g, mul(add(out, 1.0), mask)))


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul expects tensors with ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: batch dims differ, {a.shape} @ {b.shape}")

    def swap(t):
        axes = list(range(t.ndim))
        axes[-1], axes[-2] = axes[-2], axes[-1]
        return transpose(t, axes)

    return _node(a.data @ b.data, [a, b],
                 [lambda g: matmul(g, swap(b)), lambda g: matmul(swap(a), g)])


# ---------------------------------------------------------------------------
# composite layers

def elu(a) -> Tensor:
    """ELU with alpha = 1."""
    return add(relu(a), _expm1_neg(a))


def swish(a) -> Tensor:
    a = _coerce(a)
    return mul(a, sigmoid(a))


def activation(kind: str, a) -> Tensor:
    if kind == "ELU":
        return elu(a)
    if kind == "swish":
        return swish(a)
    raise ValueError(f"unknown activation kind {kind!r}")


def softmax_rows(a) -> Tensor:
    """Row softmax with detached row-max stabilization."""
    a = _coerce(a)
    shift = np.max(a.data, axis=-1, keepdims=True)
    e = exp(sub(a, shift))
    return div(e, tensor_sum(e, axis=-1, keepdims=True))


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Zero mean / unit variance over the last axis, then affine."""
    x = _coerce(x)
    d = x.shape[-1]
    mu = mean(x, axis=-1, keepdims=True)
    xc = sub(x, mu)
    var = mean(square(xc), axis=-1, keepdims=True)
    inv = div(1.0, sqrt(add(var, eps)))
    return add(mul(mul(xc, inv), gain), bias)


# ---------------------------------------------------------------------------
# gradients

def _topo_order(root: Tensor) -> list[Tensor]:
    """Tracked nodes below ``root``, every parent before its children."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order


def grad(output: Tensor, wrt: Iterable[Tensor], create_graph: bool = True) -> list[Tensor]:
    """Gradient tensors of a scalar ``output`` w.r.t. each tensor in ``wrt``.

    Only vjps into nodes on a path from ``wrt`` run.  With ``create_graph``
    the results live on the graph and can be differentiated again; without
    it the sweep records no nodes and the results are untracked.  Tensors in
    ``wrt`` that the output does not depend on get a zero gradient of
    matching shape.
    """
    global _RECORDING
    wrt = list(wrt)
    if output.size != 1:
        raise ShapeError("gradient root must be a scalar")
    keep = {id(t) for t in wrt}
    gmap: dict[int, Tensor] = {}
    if output.requires_grad:
        order = _topo_order(output)
        live = {id(t) for t in wrt if t.requires_grad}
        for node in order:
            if any(id(p) in live for p in node.parents):
                live.add(id(node))
        gmap[id(output)] = constant(np.ones(output.shape))
        recording, _RECORDING = _RECORDING, create_graph
        try:
            for node in reversed(order):
                g = gmap.get(id(node)) if id(node) in keep else gmap.pop(id(node), None)
                if g is None:
                    continue
                for p, vjp in zip(node.parents, node.vjps):
                    if id(p) not in live:
                        continue
                    contrib = vjp(g)
                    prev = gmap.get(id(p))
                    gmap[id(p)] = contrib if prev is None else add(prev, contrib)
        finally:
            _RECORDING = recording
    out = []
    for t in wrt:
        g = gmap.get(id(t))
        out.append(g if g is not None else constant(np.zeros(t.shape)))
    return out
