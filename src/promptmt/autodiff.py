"""Dense-tensor compute core with reverse-mode automatic differentiation.

Tensors wrap numpy arrays and record, per operation, their parent tensors
and a backward rule. ``backward(loss)`` topologically sorts the recorded
graph and runs the rules from the loss down. Gradients flow through
interior nodes (generated mapping parameters are ordinary graph nodes, so
gradients reach their producers), but only leaves keep theirs: an
interior node's ``.grad`` is dropped once its rule has run. To read the
gradient at an intermediate value, backpropagate into a leaf copy of it.

A backward rule keeps only what it reads. Where it needs just the shape
of an intermediate array, it captures the shape, not the array, so the
graph pins no forward array that nothing will read again.

Ownership rule: a rule never writes into a gradient ``g`` it did not
allocate, since one ``g`` may be handed to several parents (``add`` hands
the same array to both). ``accumulate_grad`` keeps the first gradient a
tensor receives as it is, not copied, when it is an ndarray of the
tensor's dtype, and sums a later one into a new array. The optimizer only
reads ``.grad``. So a ``.grad`` may be the very array another tensor holds,
or a view into a larger gradient: treat it as read-only (clip with
``p.grad = p.grad * c``, never ``p.grad *= c``).

Contiguous-transpose rule: the backward of ``x @ w`` with a 2-D ``w`` and
a batched gradient multiplies by a C-contiguous copy of ``w``'s transpose,
not the strided view, which BLAS runs about 2x slower. The copy changes
float32 summation order, so those gradients can differ from the strided
product in the last bits; the forward pass, and so decoding, never
reaches this code.

No-grad cost rule: an op that records no graph (under ``no_grad``, or
with no input requiring grad) costs its numpy calls, its checks and one
``make_node``, which wraps the result array as it is in a ``Tensor`` with
no parents and no backward rule. The checks every incremental decoder
step runs through the kernels pass the model's shapes on about one
comparison: agreeing inner dimensions against a 2-D right operand in a
matmul check, keys and values of one shape over the queries' leading
dimensions in ``attention``, and a bias as wide as the weight in
``_affine``, which then skips the aligned-shape check. Any other shapes
go through the full check, which names a mismatch in the same words
whichever way it was reached. The aligned-shape check is one loop over
the right-aligned dimensions, run 11 times in a beam-5 ``translate``
request over the frozen benchmark checkpoint and 25 times in a training
step of the benchmark's toy config, against the 87 and 116 nodes counted
below. Every op still goes through ``make_node``, so counting its calls
counts the nodes of a pass, recorded or not.

Forward kernels: the forward of ``linear``, ``heads``, ``attention``,
``layer_norm`` and ``embedding_lookup`` is an array function (``_affine``,
``_heads``, ``_attention``, ``_layer_norm``, ``_lookup``), as the softmax
and log-softmax are. Each kernel holds its op's checks and raises the
op's exceptions; the op calls it and records the node, so a training
forward runs the same code. Incremental decoding calls the kernels on
plain arrays and records no graph (``MultimodalTranslator.decode`` with a
``DecoderState``).

Core arithmetic is float32: a ``Tensor`` is float32 unless built with
an explicit ``dtype``. float64 exists for finite-difference gradient
checking; see ``grad_check``.

Broadcasting is restricted to missing leading (batch) dimensions: shapes
are aligned from the right and every aligned dimension must match
exactly. Anything else requires an explicit reshape.

Three fused primitives each record one node where the model would
otherwise record a chain of small ones:

    linear(x, w, b)            x @ w + b
    heads(x, w, b, n_heads)    linear, then the split into heads:
                               lead + (n, d) -> lead + (heads, n, d / heads)
    attention(qh, kh, vh, bias, keep)
                               softmax(qh @ kh^T / sqrt(head_dim) + bias),
                               times the dropout mask ``keep``, @ vh, heads
                               merged back: lead + (n, d)

Exact-match rule: a fused op's forward runs the numpy calls of the
composed chain (``matmul``, ``add``, ``reshape``, ``transpose``,
``scale``, ``softmax``, ``mul``) in the same order, and its backward runs
the expressions their backward rules run. Its parents are the chain's
inputs in the order the chain reaches them, so ``backward`` visits every
other node in the same order and sums shared gradients in the same
order. Outputs and every gradient are therefore bit-identical to the
chain's. The chain's checks
(``ShapeError`` on a matmul or aligned-dimension mismatch, ``NumericError``
on a NaN softmax input) are kept. With the fused ops a training step of
the benchmark's toy config records 116 graph nodes instead of 282. A
beam-5 ``translate`` request over the frozen benchmark checkpoint's 96
unmasked sources records 87 nodes on average: ``prepare_source``'s, and
one (the logits) per incremental decoder step.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (DegenerateBatchError, GraphError, NumericError,
                     ShapeError, VocabularyError)

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (inference fast path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled() -> bool:
    """Whether operations record the graph (False inside ``no_grad``)."""
    return _GRAD_ENABLED


class Tensor:
    """A dense float array plus its position in the autodiff graph.

    ``_parents`` and ``_backward`` are given only by the operation that
    produced the tensor, when it records; leaves have neither.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_backward_ran")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._backward_ran = False

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
        return float(self.data.reshape(()))

    def accumulate_grad(self, g: np.ndarray):
        """Add ``g`` to ``.grad``. The first gradient is kept as it is when
        it is an ndarray of the tensor's dtype (anything else is cast, as
        ``np.array(g, dtype)``); a later one is summed into a new array
        with the casting of ``+=``, so no array a rule handed over, and
        perhaps handed to another parent too, is ever written into.
        ``.grad`` may therefore share memory with other tensors' gradients
        and must be treated as read-only."""
        if self.grad is None:
            self.grad = (g if type(g) is np.ndarray
                         and g.dtype == self.data.dtype
                         else np.array(g, dtype=self.data.dtype))
        else:
            self.grad = np.add(self.grad, g, out=np.empty_like(self.grad))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def make_node(data: np.ndarray, parents: Sequence[Tensor],
              backward: Optional[Callable[[np.ndarray], None]]) -> Tensor:
    """Record one operation: output data, its parents, its backward rule.

    The result keeps its dtype: an ndarray is wrapped as it is, and a
    numpy scalar (a reduction to 0-d hands one over) becomes a 0-d array.
    Parents and the backward rule are attached only when grad is enabled
    and some parent requires grad, so inference-time graphs carry no
    backprop machinery.
    """
    out = Tensor(data, dtype=data.dtype)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _check_aligned(sa, sb, opname):
    # Right-aligned dims must match exactly; only missing leading dims broadcast.
    for da, db in zip(reversed(sa), reversed(sb)):
        if da != db:
            raise ShapeError(f"{opname}: shapes {tuple(sa)} and {tuple(sb)} "
                             "differ in an aligned dimension")


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient over the leading axes added by broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_aligned(a.shape, b.shape, "add")
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return make_node(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_aligned(a.shape, b.shape, "mul")
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return make_node(out_data, (a, b), backward)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    out_data = x.data * x.data.dtype.type(s)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * x.data.dtype.type(s))

    return make_node(out_data, (x,), backward)


def transpose(x: Tensor, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Permute axes; default swaps the last two dimensions."""
    if x.ndim < 2 and axes is None:
        raise ShapeError(f"transpose: need at least 2 dims, got shape {x.shape}")
    if axes is None:
        axes = list(range(x.ndim - 2)) + [x.ndim - 1, x.ndim - 2]
    axes = tuple(axes)
    out_data = x.data.transpose(axes)

    def backward(g):
        x.accumulate_grad(np.transpose(g, np.argsort(axes)))

    return make_node(out_data, (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = x.shape
    out_data = x.data.reshape(shape)

    def backward(g):
        x.accumulate_grad(g.reshape(old))

    return make_node(out_data, (x,), backward)


def concat(xs: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not xs:
        raise ShapeError("concat: empty input list")
    out_data = np.concatenate([x.data for x in xs], axis=axis)
    offsets = [0]
    for x in xs:
        offsets.append(offsets[-1] + x.shape[axis])

    def backward(g):
        for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            if x.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                x.accumulate_grad(g[tuple(idx)])

    return make_node(out_data, tuple(xs), backward)


def sum_(x: Tensor) -> Tensor:
    out_data = x.data.sum()

    def backward(g):
        x.accumulate_grad(np.full_like(x.data, 1.0) * g)

    return make_node(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0)

    def backward(g):
        x.accumulate_grad(g * (x.data > 0))

    return make_node(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _check_matmul(sa, sb):
    # a 2-D right operand has no batch dims to align, so agreeing inner
    # dims pass it at once
    if len(sb) == 2 and len(sa) >= 2 and sa[-1] == sb[0]:
        return
    if len(sa) < 2 or len(sb) < 2:
        raise ShapeError(f"matmul: operands must be >=2-D, got {tuple(sa)} @ "
                         f"{tuple(sb)}")
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree, {tuple(sa)} @ "
                         f"{tuple(sb)}")
    _check_aligned(sa[:-2], sb[:-2], "matmul (batch dims)")


def _grad_left(g: np.ndarray, b: np.ndarray, shape) -> np.ndarray:
    """The gradient of ``a`` (of ``shape``) in ``a @ b``, given g.

    A 2-D ``b`` under a batched ``g`` is transposed into a contiguous
    copy first: the batched product against the strided view runs about
    2x slower. A 2-D ``g`` keeps the view, which is faster there.
    """
    bt = np.swapaxes(b, -1, -2)
    if b.ndim == 2 and g.ndim > 2:
        bt = np.ascontiguousarray(bt)
    return _unbroadcast(np.matmul(g, bt), shape)


def _grad_right(a: np.ndarray, g: np.ndarray, shape) -> np.ndarray:
    """The gradient of ``b`` (of ``shape``) in ``a @ b``, given g."""
    return _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), shape)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_matmul(a.shape, b.shape)
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_grad_left(g, b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_grad_right(a.data, g, b.shape))

    return make_node(out_data, (a, b), backward)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Forward of ``add(matmul(x, w), b)`` on arrays: the product's shape
    (all its backward reads) and the sum."""
    ws, bs = w.shape, b.shape
    _check_matmul(x.shape, ws)
    product = np.matmul(x, w)
    if bs != ws[-1:]:   # else a bias as wide as the product
        _check_aligned(product.shape, bs, "add")
    return product.shape, product + b


def _affine_backward(g: np.ndarray, x: Tensor, w: Tensor, b: Tensor,
                     product_shape):
    """Backward of ``add(matmul(x, w), b)``: the add's rule, then the
    matmul's."""
    gp = _unbroadcast(g, product_shape)
    if b.requires_grad:
        b.accumulate_grad(_unbroadcast(g, b.shape))
    if x.requires_grad:
        x.accumulate_grad(_grad_left(gp, w.data, x.shape))
    if w.requires_grad:
        w.accumulate_grad(_grad_right(x.data, gp, w.shape))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node, where w and b may themselves be outputs of
    other ops.

    All three arguments are ordinary graph nodes, so gradients reach the
    producers of generated parameters exactly like those of leaf weights.
    """
    product_shape, out_data = _affine(x.data, w.data, b.data)

    def backward(g):
        _affine_backward(g, x, w, b, product_shape)

    return make_node(out_data, (x, w, b), backward)


# _SWAP_HEAD_AXES[n_lead]: the permutation exchanging the head and position
# axes after n_lead leading axes (its own inverse), for every rank numpy has
_SWAP_HEAD_AXES = tuple(tuple(range(n)) + (n + 1, n, n + 2)
                        for n in range(64 - 2))


def _heads(x: np.ndarray, w: np.ndarray, b: np.ndarray, n_heads: int):
    """Forward of ``heads`` on arrays: the product's shape and the
    lead + (n_heads, n, d / n_heads) view of the projection."""
    product_shape, y = _affine(x, w, b)
    y_shape = y.shape
    d = y_shape[-1]
    if d % n_heads != 0:
        raise ShapeError(f"heads: width {d} is not divisible by {n_heads} "
                         "heads")
    return product_shape, y.reshape(y_shape[:-1] + (n_heads, d // n_heads)
                                    ).transpose(_SWAP_HEAD_AXES[y.ndim - 2])


def heads(x: Tensor, w: Tensor, b: Tensor, n_heads: int) -> Tensor:
    """``linear(x, w, b)`` split into ``n_heads`` heads as one node:
    lead + (n, d_in) -> lead + (n_heads, n, d / n_heads), a view of the
    lead + (n, d) projection."""
    product_shape, out_data = _heads(x.data, w.data, b.data, n_heads)
    swap = _SWAP_HEAD_AXES[out_data.ndim - 3]
    y_shape = out_data.shape[:-3] + (out_data.shape[-2],
                                     n_heads * out_data.shape[-1])

    def backward(g):
        _affine_backward(np.transpose(g, swap).reshape(y_shape), x, w, b,
                         product_shape)

    return make_node(out_data, (x, w, b), backward)


def _check_attention(qs, ks, vs):
    """The matmul checks of ``q @ k^T`` and ``p @ v`` in ``attention``,
    from the shapes of q, k and v, then that the queries are split into
    heads. Split-head queries against keys and values of one shape whose
    leading dims are a right-aligned suffix of the queries' pass at once."""
    if (len(qs) >= 3 and len(qs) >= len(ks) >= 2 and ks == vs
            and qs[-1] == ks[-1] and qs[-len(ks):-2] == ks[:-2]):
        return
    kt = ks[:-2] + ks[-2:][::-1]
    _check_matmul(qs, kt)
    # the aligned leading dims broadcast to the longer of the two
    _check_matmul(max(qs[:-2], kt[:-2], key=len) + (qs[-2], kt[-1]), vs)
    if len(qs) < 3:
        raise ShapeError(f"attention: queries must be lead + (heads, n, "
                         f"head_dim), got q {tuple(qs)}, k {tuple(ks)}, "
                         f"v {tuple(vs)}")


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
               bias: Optional[np.ndarray] = None,
               keep: Optional[np.ndarray] = None):
    """Forward of ``attention`` on arrays: the shape of ``q @ k^T`` and the
    scale, the attention distribution before and after the dropout mask
    (what its backward reads besides the inputs), and the merged
    context."""
    _check_attention(q.shape, k.shape, v.shape)
    product = np.matmul(q, k.swapaxes(-1, -2))
    inv_sqrt = product.dtype.type(1.0 / math.sqrt(q.shape[-1]))
    scores = product * inv_sqrt
    if bias is not None:
        _check_aligned(product.shape, np.shape(bias), "add")
        scores = scores + bias
    probs = _softmax(scores)
    kept = probs
    if keep is not None:
        _check_aligned(probs.shape, keep.shape, "mul")
        kept = probs * keep
    ctx = np.matmul(kept, v)
    merged = ctx.transpose(_SWAP_HEAD_AXES[ctx.ndim - 3])
    return (product.shape, inv_sqrt, probs, kept,
            merged.reshape(merged.shape[:-2] + (-1,)))


def attention(qh: Tensor, kh: Tensor, vh: Tensor,
              bias: Optional[np.ndarray] = None,
              keep: Optional[np.ndarray] = None) -> Tensor:
    """Scaled dot-product attention of split-head queries lead + (heads, n,
    head_dim) over split-head keys and values, heads merged: lead + (n,
    heads * head_dim), as one node.

    ``kh`` and ``vh`` may lack leading dimensions of ``qh`` (one memory
    shared by every row). ``bias`` is an additive score bias and ``keep``
    a dropout mask already scaled by 1/(1-p) (``dropout_mask``); both are
    constants broadcasting over missing leading dimensions only.
    """
    product_shape, inv_sqrt, probs, kept, out_data = _attention(
        qh.data, kh.data, vh.data, bias, keep)
    swap = _SWAP_HEAD_AXES[out_data.ndim - 2]
    merged_shape = out_data.shape[:-1] + (probs.shape[-3], vh.shape[-1])

    def backward(g):
        kt = kh.data.swapaxes(-1, -2)
        g_ctx = np.transpose(g.reshape(merged_shape), swap)
        if vh.requires_grad:
            vh.accumulate_grad(_grad_right(kept, g_ctx, vh.shape))
        g_probs = _grad_left(g_ctx, vh.data, kept.shape)
        if keep is not None:
            g_probs = _unbroadcast(g_probs * keep, probs.shape)
        g_scores = _unbroadcast(_softmax_backward(probs, g_probs),
                                product_shape) * inv_sqrt
        if qh.requires_grad:
            qh.accumulate_grad(_grad_left(g_scores, kt, qh.shape))
        if kh.requires_grad:
            kh.accumulate_grad(np.swapaxes(
                _grad_right(qh.data, g_scores, kt.shape), -1, -2))

    return make_node(out_data, (qh, kh, vh), backward)


# ---------------------------------------------------------------------------
# neural-net primitives
# ---------------------------------------------------------------------------

def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax of an array over the last axis, shifted by the maximum; the
    one computation behind ``softmax`` and ``attention``."""
    if np.logical_or.reduce(np.isnan(x), axis=None):
        raise NumericError("softmax: NaN in input")
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax of an array over the last axis, in its dtype; the one
    computation behind beam search's scores and the cross entropy."""
    # the ufunc reductions ``.max`` and ``.sum`` wrap, without the wrappers
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1,
                                          keepdims=True))


def _softmax_backward(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    dot = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - dot)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    out_data = _softmax(x.data)

    def backward(g):
        x.accumulate_grad(_softmax_backward(out_data, g))

    return make_node(out_data, (x,), backward)


def _mean_last(a: np.ndarray, n) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)`` for a last axis of length ``n`` (a
    scalar of a's dtype), bit for bit: np.mean divides the same sum in
    float64 and rounds, and a correctly rounded float32 quotient is the
    same number. np.add.reduce is the reduction ``a.sum`` wraps, at half
    the per-call overhead."""
    return np.add.reduce(a, axis=-1, keepdims=True) / n


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Forward of ``layer_norm`` on arrays: the inverse deviation and the
    normalized input (what its backward reads), and the output."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias shape must be ({d},), got "
                         f"{gain.shape} / {bias.shape}")
    n = x.dtype.type(d)
    xc = x - _mean_last(x, n)
    var = _mean_last(xc * xc, n)
    inv = 1.0 / np.sqrt(var + x.dtype.type(1e-5))
    xhat = xc * inv
    return inv, xhat, xhat * gain + bias


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last dimension (population variance, with 1e-5
    added before the square root), then affine."""
    inv, xhat, out_data = _layer_norm(x.data, gain.data, bias.data)
    d = x.shape[-1]
    n = x.data.dtype.type(d)

    def backward(g):
        if gain.requires_grad:
            gain.accumulate_grad((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate_grad(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gx = g * gain.data
            m1 = _mean_last(gx, n)
            m2 = _mean_last(gx * xhat, n)
            x.accumulate_grad(inv * (gx - m1 - xhat * m2))

    return make_node(out_data, (x, gain, bias), backward)


def _lookup(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Forward of ``embedding_lookup`` on arrays: the rows ``ids`` (int64)
    of ``table``."""
    v = table.shape[0]
    if ids.size and (np.minimum.reduce(ids, axis=None) < 0
                     or np.maximum.reduce(ids, axis=None) >= v):
        bad = int(ids[(ids < 0) | (ids >= v)][0])
        raise VocabularyError(f"embedding_lookup: id {bad} outside table of size {v}")
    return table[ids]


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table``; backward scatter-adds into the gathered rows."""
    ids = np.asarray(ids, dtype=np.int64)
    out_data = _lookup(table.data, ids)

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        table.accumulate_grad(full)

    return make_node(out_data, (table,), backward)


def cross_entropy_label_smoothed(logits: Tensor, targets, eps_ls: float,
                                 pad_id: int) -> Tensor:
    """Label-smoothed cross entropy over ``[n, V]`` logits, summed over the
    positions.

    The smoothed target distribution is (1-eps)*onehot + eps/V uniform.
    Positions whose target equals ``pad_id`` contribute nothing. The caller
    normalises the sum (the model divides by the batch's target tokens).
    """
    targets = np.asarray(targets, dtype=np.int64)
    n, v = logits.shape
    if targets.shape != (n,):
        raise ShapeError(f"cross_entropy: targets shape {targets.shape} vs logits {logits.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise VocabularyError("cross_entropy: target id outside vocabulary")
    nonpad = targets != pad_id
    if not nonpad.any():
        raise DegenerateBatchError("cross_entropy: every position is padding")

    x = logits.data
    logp = log_softmax(x)
    dt = x.dtype.type
    picked = logp[np.arange(n), targets]
    per_pos = -(dt(1.0 - eps_ls) * picked + dt(eps_ls) * logp.mean(axis=-1))
    out_data = (per_pos * nonpad).sum()

    def backward(g):
        q = np.full_like(x, dt(eps_ls) / dt(v))
        q[np.arange(n), targets] += dt(1.0 - eps_ls)
        p = np.exp(logp)
        logits.accumulate_grad((p - q) * nonpad[:, None] * g)

    return make_node(out_data, (logits,), backward)


def dropout_mask(shape, p: float, rng: np.random.Generator,
                 dtype) -> np.ndarray:
    """An inverted-scaling dropout mask: 1/(1-p) with prob 1-p, else 0."""
    keep = 1.0 - p
    return (rng.random(shape) < keep).astype(dtype) / np.dtype(dtype).type(keep)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted-scaling dropout: zero with prob p and divide survivors by
    (1-p); identity at p == 0. The caller decides train mode and calls
    this only when training."""
    if p <= 0.0:
        return x
    mask = dropout_mask(x.shape, p, rng, x.data.dtype)
    return mul(x, Tensor(mask, dtype=x.data.dtype))


# ---------------------------------------------------------------------------
# backward pass and gradient checking
# ---------------------------------------------------------------------------

def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable leaf.

    An interior node's gradient is dropped as soon as its backward rule
    has passed it on to its parents.

    ``loss`` must be scalar. A second call on the same loss tensor is an
    error; rebuild the forward pass (after zeroing grads) to run again.
    """
    if loss.size != 1:
        raise GraphError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._backward_ran:
        raise GraphError("backward: already called on this loss; rebuild the "
                         "graph (and zero grads) before calling again")
    loss._backward_ran = True

    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    loss.accumulate_grad(np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)
            node.grad = None


def zero_grad(tensors):
    for t in tensors:
        t.zero_grad()


@dataclass
class GradCheckReport:
    name: str
    max_rel_err: float
    n_checked: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: max rel err {self.max_rel_err:.3e} "
                f"over {self.n_checked} entries (tol {self.tol:g})")


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-6)


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-3,
               tol: float = 1e-3, max_entries: Optional[int] = None,
               seed: int = 0, name: str = "grad_check") -> GradCheckReport:
    """Compare analytic gradients of scalar-valued ``f`` at ``x`` against
    central finite differences, in float64.

    Any other tensors ``f`` closes over should also be float64 (build them
    with ``dtype=np.float64``). With ``max_entries`` set, a seeded sample of
    coordinates is checked instead of all of them.
    """
    x64 = Tensor(x.data, requires_grad=True, dtype=np.float64)
    loss = f(x64)
    backward(loss)
    analytic = x64.grad.copy() if x64.grad is not None else np.zeros_like(x64.data)

    flat = x64.data.reshape(-1)
    indices = np.arange(flat.size)
    if max_entries is not None and flat.size > max_entries:
        rng = np.random.Generator(np.random.PCG64(seed))
        indices = rng.choice(flat.size, size=max_entries, replace=False)

    max_err = 0.0
    for i in indices:
        orig = flat[i]
        flat[i] = orig + h
        f_plus = f(x64).item()
        flat[i] = orig - h
        f_minus = f(x64).item()
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2 * h)
        max_err = max(max_err, _rel_err(float(analytic.reshape(-1)[i]), numeric))

    return GradCheckReport(name=name, max_rel_err=max_err,
                           n_checked=len(indices), tol=tol)
