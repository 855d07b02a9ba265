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

Every tensor is float64 (:data:`DEFAULT_DTYPE`).
"""

from __future__ import annotations

import contextlib
import functools
import math
import weakref
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64
_TINY = np.finfo(DEFAULT_DTYPE).tiny    # smallest normal float64

# False inside no_graph(): _node then builds no graph
_RECORDING = True


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(FloatingPointError):
    """A NaN or Inf showed up where the engine requires finite values."""


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


@contextlib.contextmanager
def no_graph():
    """Compute without recording: every tensor made inside is untracked."""
    global _RECORDING
    recording, _RECORDING = _RECORDING, False
    try:
        yield
    finally:
        _RECORDING = recording


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
        n = math.prod(a.shape[i] for i in axes)
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = _coerce(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    total = a.shape[axis]

    def back(g):
        return pad_axis(g, axis, start, total - stop)

    return _node(a.data[tuple(idx)].copy(), [a], [back])


def pad_axis(a, axis: int, before: int, after: int) -> Tensor:
    """Zeros before and after ``a`` along ``axis``; the adjoint of
    :func:`slice_axis`, so its vjp is a slice."""
    a = _coerce(a)
    stop = before + a.shape[axis]
    shape = list(a.shape)
    shape[axis] = stop + after
    data = np.zeros(shape, dtype=a.data.dtype)      # np.pad takes 6x longer
    data[(slice(None),) * axis + (slice(before, stop),)] = a.data
    return _node(data, [a], [lambda g: slice_axis(g, axis, before, stop)])


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


class PairIndex(NamedTuple):
    """The M = N(N+1)/2 pairs i <= j of N atoms: the off-diagonal pairs
    (i < j) first, then the N diagonal pairs in atom order."""

    i: np.ndarray        # (M,) first atom of each pair
    j: np.ndarray        # (M,) second atom
    index: np.ndarray    # (N, N) pair of (a, b), the same as of (b, a)
    upper: np.ndarray    # (M,) flat N x N position i*N + j
    lower: np.ndarray    # (M - N,) flat position j*N + i of the off-diagonal pairs


def pair_index(n: int) -> PairIndex:
    off_i, off_j = np.triu_indices(n, 1)
    atoms = np.arange(n)
    i, j = np.concatenate([off_i, atoms]), np.concatenate([off_j, atoms])
    index = np.empty((n, n), dtype=np.intp)
    index[i, j] = index[j, i] = np.arange(len(i))
    return PairIndex(i, j, index, i * n + j, off_j * n + off_i)


def expand_pairs(u, pairs: PairIndex) -> Tensor:
    """Symmetric N x N x ... layout of per-pair rows: out[a, b] = u[pair(a, b)].
    Backward folds."""
    u = _coerce(u)
    return _node(u.data[pairs.index], [u], [lambda g: fold_pairs(g, pairs)])


def fold_pairs(g, pairs: PairIndex) -> Tensor:
    """Adjoint of :func:`expand_pairs`: row k = g[i, j] + g[j, i] for the
    pair k = (i, j), and g[i, i] on the diagonal.  Backward expands."""
    g = _coerce(g)
    n = g.shape[0]
    flat = g.data.reshape((n * n,) + g.shape[2:])
    data = flat[pairs.upper]
    data[:len(pairs.lower)] += flat[pairs.lower]
    return _node(data, [g], [lambda gg: expand_pairs(gg, pairs)])


def add_pair_sum(x, p, pairs: PairIndex) -> Tensor:
    """Per-pair rows x + p[i] + p[j], from per-pair ``x`` and per-atom ``p``."""
    x, p = _coerce(x), _coerce(p)
    m, n = len(pairs.i), p.shape[0]

    def back_p(g):
        # atom a collects every pair it is in, its diagonal pair twice
        return add(tensor_sum(expand_pairs(g, pairs), axis=1), slice_axis(g, 0, m - n, m))

    data = p.data[pairs.i]
    data += p.data[pairs.j]     # before x, so swapping i and j changes no bit
    data += x.data
    return _node(data, [x, p], [lambda g: g, back_p])


# ---------------------------------------------------------------------------
# arithmetic

def _broadcast(op: str, fn, a: Tensor, b: Tensor) -> np.ndarray:
    """``fn(a, b)`` on the data; numpy's own broadcast checks the shapes."""
    try:
        return fn(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{op}: cannot broadcast {a.shape} with {b.shape}") from exc


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    sa, sb = a.shape, b.shape
    return _node(_broadcast("add", np.add, a, b), [a, b],
                 [lambda g: _sum_to(g, sa), lambda g: _sum_to(g, sb)])


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    sa, sb = a.shape, b.shape
    return _node(_broadcast("sub", np.subtract, a, b), [a, b],
                 [lambda g: _sum_to(g, sa), lambda g: _sum_to(neg(g), sb)])


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    sa, sb = a.shape, b.shape
    return _node(_broadcast("mul", np.multiply, a, b), [a, b],
                 [lambda g: _sum_to(mul(g, b), sa), lambda g: _sum_to(mul(g, a), sb)])


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = _broadcast("div", np.divide, a, b)
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
        data = np.exp(a.data, out=np.empty_like(a.data))
    _check_finite(data, "exp")
    # subnormal results slow every later op that reads them; flushed to 0,
    # they move by less than 2.3e-308 and get an exactly zero gradient
    data[data < _TINY] = 0.0
    return _with_output_vjp(_node(data, [a], [None]), lambda g, out: mul(g, out))


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
    # stable in both tails: 1 / (1 + e) for x >= 0 and e / (1 + e) below, with
    # e = exp(-|x|); since 0 <= e <= 1 the numerator is max(e, x >= 0), which
    # needs no masked store (slow on random signs)
    e = np.abs(a.data, out=np.empty_like(a.data))
    np.exp(np.negative(e, out=e), out=e)
    den = 1.0 + e
    np.maximum(e, a.data >= 0, out=e)
    data = np.divide(e, den, out=e)
    return _with_output_vjp(_node(data, [a], [None]),
                            lambda g, out: mul(g, mul(out, sub(1.0, out))))


def elu(a) -> Tensor:
    """ELU with alpha = 1: x above 0, expm1(x) below, overflow-free."""
    a = _coerce(a)
    data = np.maximum(a.data, 0.0) + np.expm1(np.minimum(a.data, 0.0))
    below = (a.data < 0).astype(DEFAULT_DTYPE)
    return _with_output_vjp(_node(data, [a], [None]),
                            lambda g, out: mul(g, add(mul(out, below), 1.0)))


@functools.lru_cache(maxsize=4096)    # a few dozen entries per molecule size
def _einsum_plan(spec: str, shapes: tuple):
    """Check ``spec`` against the operand shapes and compile it, once per
    (spec, shapes): the spec of each operand's vjp, and the function that
    contracts the arrays.  Two operands run as one ``np.matmul``, others as
    one fused ``np.einsum`` loop, so that no pairwise intermediate (such as
    the N x N x h x c product of the attention gate) is stored."""
    lhs, arrow, out = spec.partition("->")
    if not arrow:
        raise ShapeError(f"einsum {spec!r}: the output needs an explicit '->'")
    terms = tuple(lhs.split(","))
    if len(terms) != len(shapes):
        raise ShapeError(f"einsum {spec!r}: {len(terms)} terms for {len(shapes)} operands")
    # the vjp of each operand is then an einsum of the gradient and the others
    for term in terms + (out,):
        if len(set(term)) != len(term):
            raise ShapeError(f"einsum {spec!r}: repeated index in {term!r}")
    for idx in set(lhs.replace(",", "") + out):
        if sum(idx in term for term in terms + (out,)) < 2:
            raise ShapeError(f"einsum {spec!r}: index {idx!r} appears in one term only")
    # equal extents per index: numpy would broadcast a 1 against n, and the
    # vjp would then return the wrong shape
    extents: dict[str, int] = {}
    for term, shape in zip(terms, shapes):
        if len(term) != len(shape):
            raise ShapeError(f"einsum {spec!r}: {term!r} given a {len(shape)}-d operand")
        for idx, n in zip(term, shape):
            if extents.setdefault(idx, n) != n:
                raise ShapeError(f"einsum {spec!r}: index {idx!r} has extents "
                                 f"{extents[idx]} and {n}")
    vjp_specs = tuple(",".join((out,) + terms[:k] + terms[k + 1:]) + "->" + terms[k]
                      for k in range(len(terms)))
    if len(terms) != 2:
        return vjp_specs, functools.partial(np.einsum, spec)
    # the operand whose free index leads the output goes left: "nd,de->ne"
    # and its vjps are then x @ w, g @ w.T and x.T @ g, in their layout
    free = [i for i in out if (i in terms[0]) != (i in terms[1])]
    swap = bool(free) and free[0] in terms[1]
    left, right = terms[::-1] if swap else terms
    batch = [i for i in out if i not in free]
    free_l = [i for i in free if i in left]
    free_r = [i for i in free if i in right]
    summed = [i for i in left if i not in out]
    product = batch + free_l + free_r
    unfolded, axes_out = [extents[i] for i in product], [product.index(i) for i in out]

    def fold(term, *groups):    # the axis order, and one axis per group
        return ([term.index(i) for group in groups for i in group],
                [math.prod(extents[i] for i in group) for group in groups])

    (axes_l, fold_l), (axes_r, fold_r) = (fold(left, batch, free_l, summed),
                                          fold(right, batch, summed, free_r))

    def contract(a, b):
        a, b = (b, a) if swap else (a, b)
        c = np.matmul(a.transpose(axes_l).reshape(fold_l),
                      b.transpose(axes_r).reshape(fold_r))
        return c.reshape(unfolded).transpose(axes_out)

    return vjp_specs, contract


def einsum(spec: str, *operands) -> Tensor:
    """Differentiable ``np.einsum`` with an explicit output, e.g.
    ``einsum("ihc,jhc->ijh", q, k)``; the engine's only contraction.  The
    vjp of each operand is the einsum of the incoming gradient with the
    other operands, so it differentiates again like any other op."""
    operands = [_coerce(t) for t in operands]
    vjp_specs, contract = _einsum_plan(spec, tuple(t.shape for t in operands))

    def vjp(k):
        return lambda g: einsum(vjp_specs[k], g, *operands[:k], *operands[k + 1:])

    return _node(contract(*(t.data for t in operands)), operands,
                 [vjp(k) for k in range(len(operands))])


# ---------------------------------------------------------------------------
# composite layers

def swish(a) -> Tensor:
    a = _coerce(a)
    return mul(a, sigmoid(a))


def softmax(a, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, stabilized by the detached maximum along it."""
    a = _coerce(a)
    shift = np.max(a.data, axis=axis, keepdims=True)
    e = exp(sub(a, shift))
    return div(e, tensor_sum(e, axis=axis, keepdims=True))


def _ln_stats(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The normalized rows n and the inverse deviation s = 1/σ of each row,
    in the op order of ``mean``, ``sub``, ``square``, ``add``, ``sqrt`` and
    ``div``, so they carry the bits of those primitives."""
    inv_d = 1.0 / x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) * inv_d
    std = np.sqrt((xc * xc).sum(axis=-1, keepdims=True) * inv_d + eps)
    _check_finite(std, "layer_norm")
    s = 1.0 / std
    _check_finite(s, "layer_norm")
    return xc * s, s


def _row_mean(a: Tensor) -> Tensor:
    return mean(a, axis=-1, keepdims=True)


def _ln_stats_tensors(x: Tensor, eps: float, stats) -> tuple[Tensor, Tensor]:
    """n and s of :func:`_ln_stats`: graph nodes of ``x`` while recording,
    else constants of the ``stats`` arrays."""
    if not (_RECORDING and x.requires_grad):
        return constant(stats[0]), constant(stats[1])
    xc = sub(x, _row_mean(x))
    s = div(1.0, sqrt(add(_row_mean(square(xc)), eps)))
    return mul(xc, s), s


def _ln_back(g, x: Tensor, gain, eps: float, stats) -> Tensor:
    """The vjp of :func:`layer_norm` into ``x``, as one node:
    s·(u − mean u − n·mean(u·n)) with u = g·gain, means over the last axis.
    ``stats`` are the arrays (n, s) of ``x``."""
    g, gain = _coerce(g), _coerce(gain)
    n, s = stats
    inv_d = 1.0 / n.shape[-1]
    u = g.data * gain.data
    data = u - u.sum(axis=-1, keepdims=True) * inv_d
    data -= n * ((u * n).sum(axis=-1, keepdims=True) * inv_d)
    data *= s

    # out = J·(g·gain) with J = ∂n/∂x, which is symmetric in each row, so
    # the vjps into g and gain apply J to h: J·h = _ln_back(h, x, 1)
    def back_g(h):
        return _sum_to(mul(_ln_back(h, x, 1.0, eps, stats), gain), g.shape)

    def back_gain(h):
        return _sum_to(mul(g, _ln_back(h, x, 1.0, eps, stats)), gain.shape)

    def back_x(h):
        n, s = _ln_stats_tensors(x, eps, stats)
        u = mul(g, gain)
        un = _row_mean(mul(u, n))
        w = sub(sub(u, _row_mean(u)), mul(n, un))
        hn = _row_mean(mul(h, n))
        jh = sub(sub(h, _row_mean(h)), mul(n, hn))
        inner = add(add(mul(n, _row_mean(mul(h, w))), mul(w, hn)), mul(un, jh))
        return neg(mul(square(s), inner))

    return _node(data, [g, x, gain], [back_g, back_x, back_gain])


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Zero mean / unit variance over the last axis, then affine, as one
    node.  The values are those of the composite (x − μ)·(1/σ)·gain + bias
    built from primitives, bit for bit."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    stats = _ln_stats(x.data, eps)
    try:
        data = stats[0] * gain.data + bias.data
    except ValueError as exc:
        raise ShapeError(f"layer_norm: gain {gain.shape} and bias {bias.shape} "
                         f"do not broadcast with {x.shape}") from exc
    sg, sb = gain.shape, bias.shape
    return _node(data, [x, gain, bias],
                 [lambda g: _ln_back(g, x, gain, eps, stats),
                  lambda g: _sum_to(mul(g, _ln_stats_tensors(x, eps, stats)[0]), sg),
                  lambda g: _sum_to(g, sb)])


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
        with contextlib.nullcontext() if create_graph else no_graph():
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
    out = []
    for t in wrt:
        g = gmap.get(id(t))
        out.append(g if g is not None else constant(np.zeros(t.shape)))
    return out
