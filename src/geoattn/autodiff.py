"""Dense-tensor reverse-mode automatic differentiation.

The engine is deliberately small: an op returns a :class:`Tensor`, its
value, whose :class:`Node` remembers the parents' nodes together with one
vector-Jacobian-product (vjp) closure per parent.  A node holds no value,
and each vjp keeps only the tensors it reads, so an intermediate read for
its shape alone is freed with its tensor.  :func:`grad` is the one
way to differentiate: it sweeps the graph in reverse and runs a vjp only
where the parent lies on a path from the requested tensors.  Every vjp is
itself written in terms of these same primitives, so with
``create_graph=True`` the sweep *builds new graph nodes*.  Gradients are then
ordinary tensors and can be differentiated once more, which is what lets a
force term (the gradient of the predicted energy w.r.t. coordinates) sit
inside a training loss whose parameter gradient we then need.  The fused ops
(layer norm, swish, the Gaussian basis) stop there: the vjps of their
backward nodes run in numpy, and a third derivative through them is a
``NotImplementedError``.  With ``create_graph=False`` the same vjps run on
plain arrays and record nothing.
Under :func:`frozen`, leaves whose gradient is not wanted (the parameters
of a force evaluation) record as constants, so the graph keeps less.

No closure holds its own op's node, so a graph is freed by reference
counting as soon as its output is dropped.  A sweep without
``create_graph`` frees what it ran sooner: each node whose vjps it ran gets
vjps that raise a ``ValueError``, which releases the arrays the old ones
held, so sweeping that graph again raises instead of answering wrong.

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


class Node:
    """An op's place in the differentiation graph: its parents' nodes and one
    vjp closure per parent, but no value; the op's output :class:`Tensor`
    holds that, for as long as someone holds the tensor."""

    __slots__ = ("parents", "vjps", "__weakref__")
    requires_grad = True
    data = np.empty(0)      # graph walks read .data of nodes and leaves alike

    def __init__(self, parents: tuple, vjps: tuple):
        self.parents, self.vjps = parents, vjps


class Tensor:
    """A value: a numpy array and, for a tracked op output, the op's
    :class:`Node`.  Leaves, made by :func:`parameter` (tracked) or
    :func:`constant` (untracked), are their own nodes.  Gradients are not
    stored on tensors; :func:`grad` returns them."""

    __slots__ = ("data", "_node", "requires_grad", "__weakref__")

    def __init__(self, data: np.ndarray, requires_grad=False, node: Node | None = None):
        self.data = data
        self._node = node
        self.requires_grad = requires_grad

    # the node a gradient sweep walks: the op's, or a leaf itself
    node = property(lambda self: self._node or self)
    parents = property(lambda self: self._node.parents if self._node else ())
    vjps = property(lambda self: self._node.vjps if self._node else ())

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
        """The value of a one-element tensor, of any shape, as a float."""
        return self.data.item()

    def __repr__(self):
        tag = "node" if self._node is not None else "param" if self.requires_grad else "const"
        return f"Tensor({tag}, shape={self.shape})"


def _as_array(x) -> np.ndarray:
    if isinstance(x, np.ndarray) and x.dtype == DEFAULT_DTYPE:
        return x
    if x is None:       # np.asarray would make a NaN scalar of it
        raise TypeError("an operand is None, not an array or a tensor")
    return np.asarray(x, dtype=DEFAULT_DTYPE)


def constant(x) -> Tensor:
    return Tensor(_as_array(x))


def parameter(x) -> Tensor:
    """A differentiable leaf.  Rejects non-finite initial values."""
    arr = _as_array(x).copy()
    if not np.isfinite(arr).all():
        raise NonFiniteError("parameter initialized with non-finite values")
    return Tensor(arr, requires_grad=True)


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _node(data: np.ndarray, parents: Sequence[Tensor], vjps: Sequence[Callable]) -> Tensor:
    """An op's output, with a node of the parents' nodes; none when no
    parent is tracked or nothing is being recorded."""
    if _RECORDING:
        for p in parents:       # a plain loop: any() costs a generator per node
            if p.requires_grad:
                return Tensor(data, True, Node(tuple([q._node or q for q in parents]),
                                               tuple(vjps)))
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


@contextlib.contextmanager
def frozen(tensors: Iterable[Tensor]):
    """Record with the leaves ``tensors`` as constants, so that the graph
    holds only what the other tracked leaves need; their ``requires_grad``
    comes back on exit.  A graph recorded here is differentiated only with
    respect to the other leaves.  Inside the scope :func:`grad` refuses a
    frozen leaf.  After it, the gradient into one depends on the op that
    read it: refused (``einsum``), true (``mul`` with a tracked operand), or
    a silent zero where no operand was tracked (``exp(w)``)."""
    thawed = [t for t in tensors if t.requires_grad]
    for t in thawed:
        t.requires_grad = False
    try:
        yield
    finally:
        for t in thawed:
            t.requires_grad = True


def _with_output_vjp(out: Tensor, vjp: Callable) -> Tensor:
    """Give a one-parent op the vjp ``vjp(g, out)``.  The closure keeps the
    output array, and the op's node only weakly, so the node is no reference
    cycle; a sweep holds the node while it runs the vjp, which rebuilds ``out``."""
    node = out._node
    if node is not None:
        data, ref = out.data, weakref.ref(node)
        node.vjps = (lambda g: vjp(g, Tensor(data, True, ref())),)
    return out


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
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


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    """``a[start:stop]`` along ``axis``; the whole axis is ``a`` itself."""
    a = _coerce(a)
    total = a.shape[axis]
    if start == 0 and stop == total:
        return a
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)

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
    """The M pairs i <= j of the atoms of a group of molecules whose atom
    rows are stacked in order, one molecule being a group of one: every
    off-diagonal pair (i < j) first, then every diagonal pair in row order.
    The layout is B x N_max x N_max, where the slots past a molecule's atoms
    hold M, the zero row :func:`expand_pairs` appends."""

    i: np.ndarray        # (M,) first atom row of each pair
    j: np.ndarray        # (M,) second atom row
    index: np.ndarray    # (B, N_max, N_max): pair of (a, b), the same as of (b, a)
    upper: np.ndarray    # (M,) flat position of (i, j) in that layout
    lower: np.ndarray    # (M - N,) flat position of (j, i) of the off-diagonal pairs
    rows: np.ndarray     # (N,) flat position of each atom in the layout's B x N_max slots

    @property
    def padded(self) -> bool:
        """Whether the layout has slots past some molecule's atoms."""
        return len(self.rows) < self.index.size // self.index.shape[-1]


def upper_pairs(sizes) -> tuple[np.ndarray, np.ndarray]:
    """The rows (i, j > i) of the off-diagonal pairs of stacked molecules of
    ``sizes`` atoms, molecule by molecule, each in ``np.triu_indices`` order."""
    atoms = np.arange(sum(sizes))
    after = np.repeat(np.cumsum(sizes), sizes) - 1 - atoms     # partners after each row
    i = np.repeat(atoms, after)
    return i, i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(after) - after, after)


# Room for the groups that repeat: a validation set's, the gradcheck's
# copies', the 26 of a train-morse-small benchmark round and the sizes of
# molecules that run alone.  Training groups of many molecules hardly ever
# repeat, and one of 16 holds about 19 kB.
@functools.lru_cache(maxsize=64)
def group_pairs(sizes: tuple) -> PairIndex:
    """The pairs of a group of molecules of ``sizes`` atoms, each molecule's
    pairs shifted by its first row.  Built once per size tuple; the arrays
    are shared by every caller, so they are read-only."""
    n_max = max(sizes)
    first = np.cumsum((0,) + sizes[:-1])
    segment = np.repeat(np.arange(len(sizes)), sizes)       # molecule of each row
    atoms = np.arange(len(segment))
    local = atoms - first[segment]
    off_i, off_j = upper_pairs(sizes)
    i, j = np.concatenate([off_i, atoms]), np.concatenate([off_j, atoms])
    m, mol, li, lj = len(i), segment[i], local[i], local[j]
    index = np.full((len(sizes), n_max, n_max), m, dtype=np.intp)
    index[mol, li, lj] = index[mol, lj, li] = np.arange(m)
    upper = (mol * n_max + li) * n_max + lj
    lower = ((mol * n_max + lj) * n_max + li)[:m - len(atoms)]
    pairs = PairIndex(i, j, index, upper, lower, segment * n_max + local)
    for arr in pairs:
        arr.flags.writeable = False
    return pairs


def expand_pairs(u, pairs: PairIndex) -> Tensor:
    """The pair layout of per-pair rows: out[a, b] = u[pair(a, b)], and 0 in
    padded slots.  Backward folds."""
    u = _coerce(u)
    data = u.data
    if pairs.padded:
        data = np.concatenate([data, np.zeros((1,) + data.shape[1:])])
    return _node(data[pairs.index], [u], [lambda g: fold_pairs(g, pairs)])


def fold_pairs(g, pairs: PairIndex) -> Tensor:
    """Adjoint of :func:`expand_pairs`: row k = g[i, j] + g[j, i] for the
    pair k = (i, j), and g[i, i] on the diagonal.  Backward expands."""
    g = _coerce(g)
    flat = g.data.reshape((-1,) + g.shape[pairs.index.ndim:])
    data = flat[pairs.upper]
    data[:len(pairs.lower)] += flat[pairs.lower]
    return _node(data, [g], [lambda gg: expand_pairs(gg, pairs)])


def add_pair_sum(x, p, pairs: PairIndex) -> Tensor:
    """Per-pair rows x + p[i] + p[j], from per-pair ``x`` and per-atom ``p``."""
    x, p = _coerce(x), _coerce(p)
    m, n = len(pairs.i), p.shape[0]

    def back_p(g):
        # atom a collects every pair it is in, its diagonal pair twice
        per_atom = reshape(tensor_sum(expand_pairs(g, pairs), axis=-2), (-1,) + g.shape[1:])
        if pairs.padded:        # B x N_max slots back to atom rows
            per_atom = take_rows(per_atom, pairs.rows)
        return add(per_atom, slice_axis(g, 0, m - n, m))

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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # stable in both tails: 1 / (1 + e) for x >= 0 and e / (1 + e) below, with
    # e = exp(-|x|); since 0 <= e <= 1 the numerator is max(e, x >= 0), which
    # needs no masked store (slow on random signs)
    e = np.abs(x, out=np.empty_like(x))
    np.exp(np.negative(e, out=e), out=e)
    den = 1.0 + e
    np.maximum(e, x >= 0, out=e)
    return np.divide(e, den, out=e)


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
    batch_group = [batch] if batch else []      # no size-1 batch axis

    # each layout step is None where it would do nothing
    def fold(term, groups):     # the axis order, then one axis per group
        axes = [term.index(i) for group in groups for i in group]
        shape = tuple(math.prod(extents[i] for i in group) for group in groups)
        ordered = tuple(extents[term[k]] for k in axes)
        return (None if axes == sorted(axes) else axes), (None if shape == ordered else shape)

    axes_l, fold_l = fold(left, batch_group + [free_l, summed])
    axes_r, fold_r = fold(right, batch_group + [summed, free_r])
    # the product comes out as ``out`` folded the same way; undo that fold
    axes_o, fold_o = fold(out, batch_group + [free_l, free_r])
    unfold = None if fold_o is None else [extents[i] for i in product]
    axes_out = None if axes_o is None else [product.index(i) for i in out]

    def contract(a, b):
        if swap:
            a, b = b, a
        if axes_l is not None:
            a = a.transpose(axes_l)
        if fold_l is not None:
            a = a.reshape(fold_l)
        if axes_r is not None:
            b = b.transpose(axes_r)
        if fold_r is not None:
            b = b.reshape(fold_r)
        c = np.matmul(a, b)
        if unfold is not None:
            c = c.reshape(unfold)
        return c if axes_out is None else c.transpose(axes_out)

    return vjp_specs, contract


def _einsum_vjp(spec: str, others: list) -> Callable:
    """The vjp of an einsum operand; ``others`` sit in its closure cells,
    where a walk of the graph's held arrays finds them."""
    return lambda g: einsum(spec, g, *others)


def einsum(spec: str, *operands) -> Tensor:
    """Differentiable ``np.einsum`` with an explicit output, e.g.
    ``einsum("ihc,jhc->ijh", q, k)``; the engine's only contraction.  The
    vjp of each tracked operand is the einsum of the incoming gradient with
    the other operands, so it differentiates again like any other op; an
    untracked operand gets none, so no closure keeps the others for it, and
    under :func:`no_graph` no operand gets one."""
    operands = [t if isinstance(t, Tensor) else constant(t) for t in operands]
    arrays = [t.data for t in operands]
    vjp_specs, contract = _einsum_plan(spec, tuple([a.shape for a in arrays]))
    data = contract(*arrays)
    if not _RECORDING:
        return Tensor(data)
    vjps = []
    for k, t in enumerate(operands):
        vjps.append(_einsum_vjp(vjp_specs[k], operands[:k] + operands[k + 1:])
                    if t.requires_grad else None)
    return _node(data, operands, vjps)


# ---------------------------------------------------------------------------
# composite layers

def _row_mean(a: np.ndarray) -> np.ndarray:
    """The mean over the last axis, kept, with the bits of the composite
    mul(tensor_sum(a, -1, keepdims=True), 1/n)."""
    return a.sum(axis=-1, keepdims=True) * (1.0 / a.shape[-1])


def _second_order(data: np.ndarray, op: str, inputs: Sequence[Tensor]) -> Tensor:
    """The value of a vjp of a fused op's backward node, computed in numpy,
    as a node of ``inputs`` whose vjps refuse: the engine differentiates a
    fused op twice, which a force term in a loss needs, and no further."""
    def refuse(g):
        raise NotImplementedError(f"a third derivative through {op}")

    return _node(data, inputs, [refuse] * len(inputs))


# The vjps below compute with operators, not ufunc calls: only then does numpy
# reuse a temporary's buffer.

def _swish_back(g, a: Tensor, s: np.ndarray) -> Tensor:
    """The vjp of :func:`swish` into ``a``, as one node:
    g·s + (g·a)·(s·(1 − s)), the summed vjps of the composite a·sigmoid(a)
    in their op order.  ``s`` is the array sigmoid(a)."""
    g = _coerce(g)
    data = g.data * s
    data += (g.data * a.data) * (s * (1.0 - s))

    def back_a(h):
        # h·g·p·(2 + a·(1 − 2s)) with p = s·(1 − s)
        p = s * (1.0 - s)
        return _second_order((h.data * g.data) * (p * (a.data * (1.0 - s * 2.0) + 2.0)),
                             "swish", [h, g, a])

    # the map g -> out is diagonal, so its vjp is the node itself
    return _node(data, [g, a], [lambda h: _swish_back(h, a, s), back_a])


def swish(a) -> Tensor:
    """a·sigmoid(a) as one node, with the bits of that composite."""
    a = _coerce(a)
    s = _sigmoid(a.data)
    return _node(a.data * s, [a], [lambda g: _swish_back(g, a, s)])


def _gaussian_back(g, r: Tensor, out: Tensor, centers: np.ndarray, gamma: float) -> Tensor:
    """The vjp of :func:`gaussian` into ``r``, as one node: the sum over the
    last axis of g·out·(−γ)·(2(r − c)), the vjps of the composite
    exp(mul(square(sub(r, c)), −γ)) in their op order.  ``out`` is the
    gaussian node of ``r``."""
    g = _coerce(g)
    t = g.data * out.data
    t *= -gamma
    d = r.data[..., None] - centers
    d *= 2.0
    t *= d

    def back_g(h):
        # h·out·(−2γ(r − c)), h on a new last axis
        dc = (r.data[..., None] - centers) * (-2.0 * gamma)
        return _second_order((h.data[..., None] * out.data) * dc, "gaussian", [h, r, out])

    def back_r(h):
        # h·(−2γ)·Σ g·out·(1 − 2γ(r − c)²)
        d = r.data[..., None] - centers
        inner = ((g.data * out.data) * (1.0 - (d * d) * (2.0 * gamma))).sum(axis=-1)
        return _second_order((h.data * inner) * (-2.0 * gamma), "gaussian", [h, g, r, out])

    return _node(t.sum(axis=-1), [g, r], [back_g, back_r])


def gaussian(r, centers, gamma: float) -> Tensor:
    """exp(−γ·(r − c)²) for each of the ``centers`` c, on a new last axis,
    as one node.  The values are those of the composite
    exp(mul(square(sub(r, c)), −γ)) bit for bit, subnormals flushed to 0 as
    :func:`exp` does."""
    r = _coerce(r)
    centers, gamma = _as_array(centers), float(gamma)
    data = r.data[..., None] - centers
    data *= data
    data *= -gamma
    np.exp(data, out=data)
    _check_finite(data, "gaussian")
    data[data < _TINY] = 0.0
    return _with_output_vjp(_node(data, [r], [None]),
                            lambda g, out: _gaussian_back(g, r, out, centers, gamma))


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
    xc = x - _row_mean(x)
    std = np.sqrt(_row_mean(xc * xc) + eps)
    _check_finite(std, "layer_norm")
    s = 1.0 / std
    _check_finite(s, "layer_norm")
    return xc * s, s


def _ln_back(g, x: Tensor, gain, eps: float, stats) -> Tensor:
    """The vjp of :func:`layer_norm` into ``x``, as one node:
    s·(u − mean u − n·mean(u·n)) with u = g·gain, means over the last axis.
    ``stats`` are the arrays (n, s) of ``x``."""
    g, gain = _coerce(g), _coerce(gain)
    n, s = stats
    u = g.data * gain.data
    data = u - _row_mean(u)
    data -= n * _row_mean(u * n)
    data *= s

    def back_x(h):
        hd = h.data
        u = g.data * gain.data      # again: a closure holding u would grow the graph
        un = _row_mean(u * n)
        w = (u - _row_mean(u)) - n * un
        hn = _row_mean(hd * n)
        jh = (hd - _row_mean(hd)) - n * hn
        inner = (n * _row_mean(hd * w) + w * hn) + un * jh
        return _second_order(-((s * s) * inner), "layer_norm", [h, g, gain, x])

    # out = J·(g·gain) with J = ∂n/∂x, which is symmetric in each row, so
    # the vjps into g and gain apply J to h: J·h = _ln_back(h, x, 1)
    return _node(data, [g, x, gain], [
        lambda h: _sum_to(mul(_ln_back(h, x, 1.0, eps, stats), gain), g.shape),
        back_x,
        lambda h: _sum_to(mul(g, _ln_back(h, x, 1.0, eps, stats)), gain.shape)])


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

    def back_gain(g):
        # n as a node of x, whose vjp is J·h, since J = ∂n/∂x is symmetric
        n = _node(stats[0], [x], [lambda h: _ln_back(h, x, 1.0, eps, stats)])
        return _sum_to(mul(g, n), sg)

    return _node(data, [x, gain, bias],
                 [lambda g: _ln_back(g, x, gain, eps, stats), back_gain,
                  lambda g: _sum_to(g, sb)])


# ---------------------------------------------------------------------------
# gradients

def _live_order(root: Node | Tensor, live: set) -> list:
    """The nodes below ``root`` on a path from a node in ``live``, every
    parent before its children, from one post-order walk.  ``live`` holds
    the nodes of the tracked tensors the paths start from; the walk adds the
    nodes it returns."""
    order: list = []
    seen: set = set()
    stack: list = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            for p in node.parents:
                if p in live:
                    live.add(node)
                    order.append(node)
                    break
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            for p in node.parents:
                if p.requires_grad:
                    stack.append((p, False))
    return order


def _swept(g):
    """The vjp of every node that a sweep without ``create_graph`` ran."""
    raise ValueError("grad: this graph was already swept with create_graph=False, "
                     "which frees it")


def grad(output: Tensor, wrt: Iterable[Tensor], create_graph: bool = True) -> list[Tensor]:
    """Gradient tensors of a scalar ``output`` w.r.t. each tensor in ``wrt``.

    Only vjps into nodes on a path from ``wrt`` run.  With ``create_graph``
    the results live on the graph and can be differentiated once more, and
    the graph can be swept again.  Without it the sweep records no nodes,
    the results are untracked, and each node whose vjps ran is freed: its
    vjps, and the arrays they held, give way to one that raises a
    ``ValueError``, so sweeping that part of the graph again raises.  Nodes
    off the swept path keep their vjps.  Tensors in
    ``wrt`` that the output does not depend on get a zero gradient of
    matching shape.  A tensor in ``wrt`` must be tracked: a constant, or a
    leaf frozen by an active :func:`frozen`, is a ``ValueError``.
    """
    wrt = list(wrt)
    if output.size != 1:
        raise ShapeError("gradient root must be a scalar")
    for t in wrt:
        if not t.requires_grad:
            raise ValueError(f"grad: a tensor of shape {t.shape} in wrt is untracked: "
                             f"a constant, or a leaf of an active frozen()")
    keep = {t.node for t in wrt}
    gmap: dict = {}
    if output.requires_grad:
        root = output.node
        live = set(keep)
        order = _live_order(root, live)
        gmap[root] = constant(np.ones(output.shape))
        with contextlib.nullcontext() if create_graph else no_graph():
            for node in reversed(order):
                g = gmap.get(node) if node in keep else gmap.pop(node, None)
                if g is None:
                    continue
                for p, vjp in zip(node.parents, node.vjps):
                    if p in live:
                        if vjp is None:
                            raise ValueError(f"grad: no vjp into a leaf of shape {p.shape}: "
                                             f"it was frozen when the graph was recorded")
                        contrib = vjp(g)
                        prev = gmap.get(p)
                        if prev is None:
                            gmap[p] = contrib
                        elif create_graph:
                            gmap[p] = add(prev, contrib)
                        else:       # add's np.add, without its node
                            gmap[p] = Tensor(prev.data + contrib.data)
                if not create_graph:
                    node.vjps = (_swept,) * len(node.parents)
    out = []
    for t in wrt:
        g = gmap.get(t.node)
        out.append(g if g is not None else constant(np.zeros(t.shape)))
    return out
