"""Tests for the tensor/autodiff core: hand-computed cases, finite-difference
oracles, hypothesis properties for softmax and broadcasting rules, and the
lean backward (interior gradients dropped) against the backward loop that
kept every gradient."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import promptmt.autodiff as ad
from promptmt.checks import full_model_batch
from promptmt.errors import (DegenerateBatchError, GraphError, NumericError,
                             ShapeError, VocabularyError)
from promptmt.model import VARIANTS, ModelConfig, MultimodalTranslator
from promptmt.seeding import rng_for


def make64(data, requires_grad=False):
    return ad.Tensor(np.asarray(data, dtype=np.float64),
                     requires_grad=requires_grad, dtype=np.float64)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = ad.Tensor(np.eye(2))
    b = ad.Tensor([[1., 2.], [3., 4.]])
    out = ad.matmul(a, b)
    np.testing.assert_allclose(out.data, [[1., 2.], [3., 4.]])


def test_matmul_hand_dot_product():
    out = ad.matmul(ad.Tensor([[1., 2.]]), ad.Tensor([[3.], [4.]]))
    np.testing.assert_allclose(out.data, [[11.]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
        ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 4))))


def test_matmul_gradient_finite_differences():
    rng = np.random.Generator(np.random.PCG64(0))
    a0 = rng.standard_normal((3, 4))
    b = make64(rng.standard_normal((4, 2)))
    report = ad.grad_check(lambda a: ad.sum_(ad.matmul(a, b)),
                           make64(a0), name="matmul_lhs")
    assert report.passed, str(report)
    a = make64(a0)
    report = ad.grad_check(lambda t: ad.sum_(ad.matmul(a, t)),
                           b, name="matmul_rhs")
    assert report.passed, str(report)


def test_matmul_batched_broadcast_and_grad():
    rng = np.random.Generator(np.random.PCG64(1))
    a = make64(rng.standard_normal((5, 3, 4)))
    b0 = rng.standard_normal((4, 2))
    report = ad.grad_check(
        lambda t: ad.sum_(ad.matmul(a, t)), make64(b0), name="matmul_bcast")
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    out = ad.softmax(ad.Tensor([0., 0., 0.]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)


def test_softmax_closed_form():
    out = ad.softmax(ad.Tensor([0., math.log(2.)]))
    np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-7)


def test_softmax_no_overflow():
    out = ad.softmax(ad.Tensor([1000., 1000.]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


@settings(max_examples=50)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
       st.floats(-30, 30))
def test_softmax_rows_sum_to_one_and_shift_invariant(xs, c):
    # float64 so x + c is an exact shift; float32 input rounding at large
    # magnitudes would otherwise perturb the inputs themselves
    x = np.asarray(xs, dtype=np.float64)
    out = ad.softmax(ad.Tensor(x, dtype=np.float64)).data
    assert abs(out.sum() - 1.0) < 1e-6
    shifted = ad.softmax(ad.Tensor(x + c, dtype=np.float64)).data
    np.testing.assert_allclose(out, shifted, atol=1e-6)


@settings(max_examples=50)
@given(st.lists(st.integers(-128, 128), min_size=1, max_size=8),
       st.integers(-32, 32))
def test_softmax_shift_invariance_exact_in_float32(ks, c):
    # sixteenths plus an integer shift stay exactly representable, so the
    # max-subtracted inputs are bitwise equal and so are the outputs
    x = np.asarray(ks, dtype=np.float32) / 16
    out = ad.softmax(ad.Tensor(x)).data
    shifted = ad.softmax(ad.Tensor(x + np.float32(c))).data
    assert np.array_equal(out, shifted)


def test_softmax_gradient():
    rng = np.random.Generator(np.random.PCG64(2))
    w = make64(rng.standard_normal((3, 5)))
    report = ad.grad_check(
        lambda t: ad.sum_(ad.mul(ad.softmax(t), w)),
        make64(rng.standard_normal((3, 5))), name="softmax")
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------

def test_layer_norm_constant_row_maps_to_bias():
    x = ad.Tensor([[3., 3., 3., 3.]])
    out = ad.layer_norm(x, ad.Tensor(np.ones(4)), ad.Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, np.zeros((1, 4)), atol=1e-2)


def test_layer_norm_two_point_closed_form():
    # population variance of [1, 3] is 1, mean 2 -> normalized [-1, 1]
    out = ad.layer_norm(ad.Tensor([[1., 3.]]),
                        ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, [[-1., 1.]], atol=1e-4)


def test_layer_norm_gradients():
    rng = np.random.Generator(np.random.PCG64(3))
    x0 = rng.standard_normal((4, 6))
    gain = make64(rng.standard_normal(6), requires_grad=True)
    bias = make64(rng.standard_normal(6), requires_grad=True)
    w = make64(rng.standard_normal((4, 6)))

    def f(t):
        return ad.sum_(ad.mul(ad.layer_norm(t, gain, bias), w))

    assert ad.grad_check(f, make64(x0), name="layer_norm_x").passed
    x = make64(x0)
    assert ad.grad_check(
        lambda g: ad.sum_(ad.mul(ad.layer_norm(x, g, bias), w)),
        gain, name="layer_norm_gain").passed
    assert ad.grad_check(
        lambda b: ad.sum_(ad.mul(ad.layer_norm(x, gain, b), w)),
        bias, name="layer_norm_bias").passed


def layer_norm_by_np_mean(x, gain, bias, eps=1e-5):
    """The forward pass and input gradient as written with ``np.mean``."""
    xc = x - x.mean(axis=-1, keepdims=True)
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = xc * inv

    def grad(g):
        gx = g * gain
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        return inv * (gx - m1 - xhat * m2)

    return xhat * gain + bias, grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_bitwise_equals_np_mean_formula(dtype):
    rng = np.random.Generator(np.random.PCG64(5))
    for d in (33, 48, 64, 96, 100):
        for shape in ((d,), (5, 1, d), (3, 7, d)):
            x0 = (rng.standard_normal(shape) * rng.uniform(0.01, 100)
                  ).astype(dtype)
            g0, b0 = (rng.standard_normal(d).astype(dtype) for _ in "gb")
            w = rng.standard_normal(shape).astype(dtype)
            x = ad.Tensor(x0, requires_grad=True, dtype=dtype)
            out = ad.layer_norm(x, ad.Tensor(g0, dtype=dtype),
                                ad.Tensor(b0, dtype=dtype))
            ad.backward(ad.sum_(ad.mul(out, ad.Tensor(w, dtype=dtype))))
            want, grad = layer_norm_by_np_mean(x0, g0, b0)
            assert out.data.dtype == dtype
            assert np.array_equal(out.data, want)
            assert np.array_equal(x.grad, grad(w))


# ---------------------------------------------------------------------------
# relu / embedding / structural ops
# ---------------------------------------------------------------------------

def test_relu():
    out = ad.relu(ad.Tensor([-1., 0., 2.]))
    np.testing.assert_allclose(out.data, [0., 0., 2.])


def test_embedding_lookup_one_hot_table():
    out = ad.embedding_lookup(ad.Tensor(np.eye(3)), [2])
    np.testing.assert_allclose(out.data, [[0., 0., 1.]])


def test_embedding_lookup_rejects_out_of_range():
    with pytest.raises(VocabularyError, match="id 3"):
        ad.embedding_lookup(ad.Tensor(np.eye(3)), [3])


def test_embedding_lookup_scatter_gradient():
    table = ad.Tensor(np.zeros((4, 3)), requires_grad=True)
    out = ad.embedding_lookup(table, [2])
    loss = ad.sum_(ad.mul(out, ad.Tensor([[1., 2., 3.]])))
    ad.backward(loss)
    expected = np.zeros((4, 3))
    expected[2] = [1., 2., 3.]
    np.testing.assert_allclose(table.grad, expected)


def test_embedding_lookup_repeated_ids_accumulate():
    table = ad.Tensor(np.zeros((4, 2)), requires_grad=True)
    loss = ad.sum_(ad.embedding_lookup(table, [1, 1, 3]))
    ad.backward(loss)
    np.testing.assert_allclose(table.grad,
                               [[0, 0], [2, 2], [0, 0], [1, 1]])


def test_concat_roundtrip():
    a = ad.Tensor(np.arange(6., dtype=np.float32).reshape(2, 3),
                  requires_grad=True)
    b = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    cat = ad.concat([a, b], axis=1)
    assert cat.shape == (2, 5)
    np.testing.assert_allclose(cat.data[:, :3], a.data)
    np.testing.assert_allclose(cat.data[:, 3:], b.data)
    # weight only a's columns: the gradient splits back along the axis
    probe = ad.Tensor(np.concatenate([np.ones((2, 3)), np.zeros((2, 2))],
                                     axis=1))
    ad.backward(ad.sum_(ad.mul(cat, probe)))
    np.testing.assert_allclose(a.grad, np.ones((2, 3)))
    np.testing.assert_allclose(b.grad, np.zeros((2, 2)))


def test_transpose_permutation_gradient():
    rng = np.random.Generator(np.random.PCG64(4))
    w = make64(rng.standard_normal((4, 2, 3)))
    report = ad.grad_check(
        lambda t: ad.sum_(ad.mul(ad.transpose(t, (1, 2, 0)), w)),
        make64(rng.standard_normal((3, 4, 2))), name="transpose")
    assert report.passed, str(report)


def test_add_rejects_interior_broadcast():
    # only missing leading dims may broadcast; aligned dims must match
    with pytest.raises(ShapeError):
        ad.add(ad.Tensor(np.zeros((3, 1))), ad.Tensor(np.zeros((3, 4))))


def test_add_leading_broadcast_grad_sums():
    b = ad.Tensor(np.zeros(3), requires_grad=True)
    out = ad.add(ad.Tensor(np.ones((5, 3))), b)
    ad.backward(ad.sum_(out))
    np.testing.assert_allclose(b.grad, [5., 5., 5.])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_make_node_keeps_an_array_and_its_dtype(dtype):
    data = np.arange(6, dtype=dtype).reshape(2, 3)
    assert ad.make_node(data, (), None).data is data
    node = ad.make_node(data.sum(), (), None)
    assert type(node.data) is np.ndarray
    assert node.data.shape == () and node.data.dtype == dtype
    assert node.data == 15


def test_make_node_records_only_with_grad_and_a_grad_parent():
    def rule(g):
        pass

    grad_parent = ad.Tensor([1.0], requires_grad=True)
    const = ad.Tensor([2.0])
    data = np.ones(1, dtype=np.float32)
    node = ad.make_node(data, (const, grad_parent), rule)
    assert node.requires_grad
    assert node._parents == (const, grad_parent) and node._backward is rule
    with ad.no_grad():
        unrecorded = [ad.make_node(data, (grad_parent,), rule)]
    unrecorded.append(ad.make_node(data, (const,), rule))
    unrecorded.append(ad.make_node(data, (), None))
    for node in unrecorded:
        assert not node.requires_grad
        assert node._parents == () and node._backward is None
        assert node.grad is None and not node._backward_ran


def reference_check_aligned(sa, sb, opname):
    """The aligned-dimension check as one loop over right-aligned pairs."""
    for da, db in zip(reversed(sa), reversed(sb)):
        if da != db:
            raise ShapeError(f"{opname}: shapes {tuple(sa)} and {tuple(sb)} "
                             "differ in an aligned dimension")


def check_outcome(check, sa, sb):
    try:
        check(sa, sb, "op")
    except ShapeError as e:
        return str(e)
    return None


_dims = st.integers(1, 4)
_shapes = st.lists(_dims, max_size=4).map(tuple)


@st.composite
def _shape_pairs(draw):
    """Two shapes of rank 0-4 sharing a right-aligned suffix of one base
    shape, each with its own broadcast leading dims, each possibly with
    one dim changed."""
    base = draw(_shapes)

    def side():
        keep = draw(st.integers(0, len(base)))
        shape = base[len(base) - keep:]
        shape = tuple(draw(st.lists(_dims, max_size=4 - keep))) + shape
        if shape and draw(st.booleans()):
            i = draw(st.integers(0, len(shape) - 1))
            shape = shape[:i] + (shape[i] % 4 + 1,) + shape[i + 1:]
        return shape

    return side(), side()


@settings(max_examples=400)
@given(st.one_of(_shape_pairs(), st.tuples(_shapes, _shapes)))
@example(((), ()))
@example(((), (3, 2)))
@example(((5, 2, 3), (2, 3)))
@example(((2, 3), (4, 3)))
@example(((4, 1, 3), (2, 3)))
def test_check_aligned_matches_reference_loop(pair):
    sa, sb = pair
    assert (check_outcome(ad._check_aligned, sa, sb)
            == check_outcome(reference_check_aligned, sa, sb))


def reference_check_matmul(sa, sb):
    """The matmul check with no fast path: rank, inner dims, batch dims."""
    if len(sa) < 2 or len(sb) < 2:
        raise ShapeError(f"matmul: operands must be >=2-D, got {tuple(sa)} @ "
                         f"{tuple(sb)}")
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree, {tuple(sa)} @ "
                         f"{tuple(sb)}")
    reference_check_aligned(sa[:-2], sb[:-2], "matmul (batch dims)")


def reference_check_attention(qs, ks, vs):
    """The checks of q @ k^T, then of the probabilities' p @ v."""
    kt = ks[:-2] + ks[-2:][::-1]
    reference_check_matmul(qs, kt)
    ps = np.broadcast_shapes(qs[:-2], kt[:-2]) + (qs[-2], kt[-1])
    reference_check_matmul(ps, vs)


def shape_error(check, *shapes):
    try:
        check(*shapes)
    except ShapeError as e:
        return str(e)
    return None


def _spoil(draw, shape, drop=True):
    """``shape`` as it is, or with one dim changed, or one dim dropped."""
    how = draw(st.sampled_from(("keep", "keep", "change", "drop")
                               if drop else ("keep", "change")))
    if how == "keep" or not shape:
        return shape
    i = draw(st.integers(0, len(shape) - 1))
    if how == "change":
        return shape[:i] + (shape[i] % 4 + 1,) + shape[i + 1:]
    return shape[:i] + shape[i + 1:]


@st.composite
def _matmul_pairs(draw):
    """``a @ b`` shapes: lead + (n, k) against a right-aligned suffix of
    lead (none: a 2-D b) + (k, m), either possibly spoilt."""
    lead = tuple(draw(st.lists(_dims, max_size=2)))
    n, k, m = draw(_dims), draw(_dims), draw(_dims)
    sb = lead[draw(st.integers(0, len(lead))):] + (k, m)
    return _spoil(draw, lead + (n, k)), _spoil(draw, sb)


@st.composite
def _attention_triples(draw):
    """q, k, v shapes: lead + (heads, n, head_dim) queries; keys and values
    each on a right-aligned suffix of lead (none: shared by every row) +
    (heads, m, head_dim); any of the three possibly spoilt."""
    lead = tuple(draw(st.lists(_dims, max_size=2)))
    h, n, m, hd = (draw(_dims) for _ in range(4))

    def kv():
        return _spoil(draw, lead[draw(st.integers(0, len(lead))):]
                      + (h, m, hd))

    return _spoil(draw, lead + (h, n, hd), drop=False), kv(), kv()


@settings(max_examples=400)
@given(st.one_of(_matmul_pairs(), st.tuples(_shapes, _shapes)))
@example(((3, 2), (2, 4)))
@example(((5, 3, 2), (2, 4)))
@example(((5, 3, 2), (5, 2, 4)))
@example(((4, 5, 3, 2), (5, 2, 4)))
@example(((5, 3, 2), (3, 2, 4)))
@example(((5, 3, 2), (3, 4)))
@example(((2,), (2, 4)))
@example(((3, 2), (2,)))
def test_check_matmul_matches_reference(pair):
    assert (shape_error(ad._check_matmul, *pair)
            == shape_error(reference_check_matmul, *pair))


def _attend_zeros(qs, ks, vs):
    ad.attention(*(ad.Tensor(np.zeros(s)) for s in (qs, ks, vs)))


@settings(max_examples=400)
@given(_attention_triples())
@example(((2, 2, 3, 4), (2, 2, 5, 4), (2, 2, 5, 4)))
@example(((2, 2, 3, 4), (2, 5, 4), (2, 5, 4)))
@example(((2, 2, 3, 4), (2, 5, 4), (2, 2, 5, 4)))
@example(((2, 3, 4), (2, 5, 4), (2, 5, 3)))
@example(((2, 2, 3, 4), (3, 2, 5, 4), (3, 2, 5, 4)))
@example(((2, 2, 3, 4), (2, 5, 4), (3, 5, 4)))
@example(((2, 3, 4), (2, 5, 3), (2, 5, 3)))
@example(((2, 3, 4), (2, 5, 4), (2, 6, 4)))
@example(((2, 3, 4), (5, 4), (4,)))
@example(((4,), (5, 4), (5, 4)))
def test_attention_shape_checks_match_reference(triple):
    assert (shape_error(_attend_zeros, *triple)
            == shape_error(reference_check_attention, *triple))


@pytest.mark.parametrize("axis", [1, -2])
def test_concat_backward_splits_at_offsets(axis):
    # three inputs of widths 2, 1, 3 along the middle axis, the middle one
    # a constant: each gradient is its own slice of a probe of distinct
    # values
    rng = np.random.Generator(np.random.PCG64(9))
    parts = [ad.Tensor(rng.standard_normal((4, w, 2)), requires_grad=grad)
             for w, grad in ((2, True), (1, False), (3, True))]
    cat = ad.concat(parts, axis=axis)
    probe = np.arange(cat.size, dtype=np.float32).reshape(cat.shape)
    ad.backward(ad.sum_(ad.mul(cat, ad.Tensor(probe))))
    assert np.array_equal(parts[0].grad, probe[:, 0:2])
    assert parts[1].grad is None
    assert np.array_equal(parts[2].grad, probe[:, 3:6])


# ---------------------------------------------------------------------------
# linear (external parameters are graph nodes)
# ---------------------------------------------------------------------------

def test_linear_identity():
    x = ad.Tensor([[0.5, -2.0], [7.0, 1.0]])
    out = ad.linear(x, ad.Tensor(np.eye(2)), ad.Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, x.data)


def test_linear_hand_case():
    out = ad.linear(ad.Tensor([[1., 2.]]),
                    ad.Tensor([[1., 0.], [0., 1.]]), ad.Tensor([3., 3.]))
    np.testing.assert_allclose(out.data, [[4., 5.]])


def test_linear_with_generated_weights_end_to_end_gradient():
    # W itself comes out of another linear layer; the composed function must
    # still pass finite differences through both stages.
    rng = np.random.Generator(np.random.PCG64(5))
    x = make64(rng.standard_normal((2, 3)))
    ctx = make64(rng.standard_normal((1, 2)))
    gen_b = make64(rng.standard_normal(12))
    b_out = make64(rng.standard_normal(4))

    def f(gen_w):
        flat = ad.linear(ctx, gen_w, gen_b)
        w = ad.reshape(flat, (3, 4))
        return ad.sum_(ad.linear(x, w, b_out))

    report = ad.grad_check(f, make64(rng.standard_normal((2, 12))),
                           name="generated_linear")
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# fused heads and attention
# ---------------------------------------------------------------------------

def _swap_head_axes(n_lead):
    return tuple(range(n_lead)) + (n_lead + 1, n_lead, n_lead + 2)


def composed_heads(x, w, b, n_heads):
    """``ad.heads`` as the chain of primitive ops it fuses."""
    y = ad.add(ad.matmul(x, w), b)
    lead = y.shape[:-2]
    split = ad.reshape(y, lead + (y.shape[-2], n_heads,
                                  y.shape[-1] // n_heads))
    return ad.transpose(split, _swap_head_axes(len(lead)))


def composed_attention(qh, kh, vh, bias, keep):
    """``ad.attention`` as the chain of primitive ops it fuses."""
    scores = ad.scale(ad.matmul(qh, ad.transpose(kh)),
                      1.0 / np.sqrt(qh.shape[-1]))
    if bias is not None:
        scores = ad.add(scores, ad.Tensor(bias, dtype=bias.dtype))
    probs = ad.softmax(scores)
    if keep is not None:
        probs = ad.mul(probs, ad.Tensor(keep, dtype=keep.dtype))
    ctx = ad.matmul(probs, vh)
    lead = ctx.shape[:-3]
    return ad.reshape(ad.transpose(ctx, _swap_head_axes(len(lead))),
                      lead + (ctx.shape[-2], ctx.shape[-3] * ctx.shape[-1]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shared_kv", [False, True])
@pytest.mark.parametrize("masked", [False, True])
def test_fused_attention_block_equals_composed_chain_bitwise(dtype, shared_kv,
                                                             masked):
    # three rows of 5 queries over 4 keys, 2 heads of width 4; a shared
    # memory lacks the rows' batch dimension, as the decoder's does
    rng = np.random.default_rng(3)

    def leaf(*shape):
        return ad.Tensor(rng.standard_normal(shape).astype(dtype),
                         requires_grad=True, dtype=dtype)

    x, memory = leaf(3, 5, 8), (leaf(4, 8) if shared_kv else leaf(3, 4, 8))
    weights = {p: (leaf(8, 8), leaf(8)) for p in "qkv"}
    bias = keep = None
    if masked:
        bias = np.where(rng.random((3, 2, 5, 4)) < 0.3, -1e9, 0.0) \
            .astype(dtype)
        keep = ad.dropout_mask((3, 2, 5, 4), 0.3, rng, dtype)
    probe = ad.Tensor(rng.standard_normal((3, 5, 8)).astype(dtype),
                      dtype=dtype)
    leaves = [x, memory] + [t for pair in weights.values() for t in pair]
    results = []
    for heads, attention in ((ad.heads, ad.attention),
                             (composed_heads, composed_attention)):
        ad.zero_grad(leaves)
        out = attention(heads(x, *weights["q"], 2),
                        heads(memory, *weights["k"], 2),
                        heads(memory, *weights["v"], 2), bias, keep)
        ad.backward(ad.sum_(ad.mul(out, probe)))
        results.append([out.data] + [t.grad for t in leaves])
    for got, want in zip(*results):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_fused_ops_keep_the_chain_shape_and_nan_checks():
    def z(*shape):
        return ad.Tensor(np.zeros(shape))

    with pytest.raises(ShapeError, match=r"inner.*\(2, 3\) @ \(4, 5\)"):
        ad.linear(z(2, 3), z(4, 5), z(5))
    with pytest.raises(ShapeError, match="inner dimensions"):
        ad.heads(z(2, 3), z(4, 6), z(6), 2)
    with pytest.raises(ShapeError, match="add.*aligned"):
        ad.heads(z(2, 4), z(4, 6), z(5), 2)
    with pytest.raises(ShapeError, match="divisible"):
        ad.heads(z(2, 4), z(4, 6), z(6), 4)
    # query width 4 against key width 3; 5 keys against 6 values
    with pytest.raises(ShapeError, match="inner dimensions"):
        ad.attention(z(2, 3, 4), z(2, 5, 3), z(2, 5, 4))
    with pytest.raises(ShapeError, match="inner dimensions"):
        ad.attention(z(2, 3, 4), z(2, 5, 4), z(2, 6, 4))
    with pytest.raises(ShapeError, match="batch dims.*aligned"):
        ad.attention(z(2, 2, 3, 4), z(3, 2, 5, 4), z(3, 2, 5, 4))
    with pytest.raises(ShapeError, match="add.*aligned"):
        ad.attention(z(2, 3, 4), z(2, 5, 4), z(2, 5, 4),
                     bias=np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError, match="mul.*aligned"):
        ad.attention(z(2, 3, 4), z(2, 5, 4), z(2, 5, 4),
                     keep=np.ones((2, 3, 4)))
    with pytest.raises(NumericError, match="softmax: NaN in input"):
        ad.attention(ad.Tensor(np.full((1, 2, 4), np.nan)), z(1, 3, 4),
                     z(1, 3, 4))


def test_attention_refuses_a_query_without_heads():
    """A 2-D query passes both products' checks, so it is refused by
    name, not left to fail inside numpy."""
    with pytest.raises(ShapeError, match=r"attention: .*q \(3, 4\), "
                                         r"k \(5, 4\), v \(5, 4\)"):
        _attend_zeros((3, 4), (5, 4), (5, 4))


def _zeros(*shape):
    return ad.Tensor(np.zeros(shape))


@pytest.mark.parametrize("call, error, message", [
    (lambda: ad.transpose(_zeros(3)), ShapeError,
     "transpose: need at least 2 dims, got shape (3,)"),
    (lambda: ad.concat([]), ShapeError, "concat: empty input list"),
    (lambda: ad.layer_norm(_zeros(2, 3), _zeros(2), _zeros(3)), ShapeError,
     "layer_norm: gain/bias shape must be (3,), got (2,) / (3,)"),
    (lambda: ad.cross_entropy_label_smoothed(_zeros(2, 4), [1], 0.1, 0),
     ShapeError, "cross_entropy: targets shape (1,) vs logits (2, 4)"),
    (lambda: ad.cross_entropy_label_smoothed(_zeros(2, 4), [1, 4], 0.1, 0),
     VocabularyError, "cross_entropy: target id outside vocabulary"),
    (lambda: ad.cross_entropy_label_smoothed(_zeros(2, 4), [-1, 1], 0.1, 0),
     VocabularyError, "cross_entropy: target id outside vocabulary"),
], ids=["transpose 1-D", "concat nothing", "layer_norm gain shape",
        "cross entropy target shape", "cross entropy target past vocab",
        "cross entropy negative target"])
def test_primitives_refuse_malformed_operands_by_name(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_tensor_repr_shows_shape_not_data():
    assert repr(ad.Tensor(np.zeros((2, 3)), requires_grad=True)) == \
        "Tensor(shape=(2, 3), requires_grad=True)"


# ---------------------------------------------------------------------------
# cross entropy with label smoothing
# ---------------------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    logits = ad.Tensor(np.zeros((1, 7)))
    loss = ad.cross_entropy_label_smoothed(logits, [3], eps_ls=0.0, pad_id=0)
    assert abs(loss.item() - math.log(7)) < 1e-6


def test_cross_entropy_perfect_prediction():
    logits = np.full((1, 5), -100.0, dtype=np.float32)
    logits[0, 2] = 100.0
    loss = ad.cross_entropy_label_smoothed(ad.Tensor(logits), [2],
                                           eps_ls=0.0, pad_id=0)
    assert loss.item() < 1e-6


def test_cross_entropy_two_class_smoothed_hand_value():
    # logits [2, 0], target 0, eps 0.1: q = [0.95, 0.05],
    # log p = [-log(1+e^-2), -2-log(1+e^-2)]
    lse = math.log(1.0 + math.exp(-2.0))
    expected = 0.95 * lse + 0.05 * (2.0 + lse)
    loss = ad.cross_entropy_label_smoothed(ad.Tensor([[2., 0.]]), [0],
                                           eps_ls=0.1, pad_id=1)
    assert abs(loss.item() - expected) < 1e-6


def test_cross_entropy_excludes_pad_from_loss():
    logits = np.zeros((3, 4), dtype=np.float32)
    logits[0, 1] = 5.0
    full = ad.cross_entropy_label_smoothed(
        ad.Tensor(logits), [1, 0, 0], eps_ls=0.0, pad_id=0)
    solo = ad.cross_entropy_label_smoothed(
        ad.Tensor(logits[:1]), [1], eps_ls=0.0, pad_id=0)
    assert abs(full.item() - solo.item()) < 1e-7


def test_cross_entropy_all_pad_is_degenerate():
    with pytest.raises(DegenerateBatchError):
        ad.cross_entropy_label_smoothed(ad.Tensor(np.zeros((2, 4))),
                                        [0, 0], eps_ls=0.0, pad_id=0)


def test_cross_entropy_gradient():
    rng = np.random.Generator(np.random.PCG64(6))
    report = ad.grad_check(
        lambda t: ad.cross_entropy_label_smoothed(t, [1, 4, 0, 2],
                                                  eps_ls=0.1, pad_id=0),
        make64(rng.standard_normal((4, 6))), name="cross_entropy")
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = ad.Tensor(np.arange(4.), requires_grad=True)
    ad.backward(ad.sum_(x))
    np.testing.assert_allclose(x.grad, np.ones(4))


def test_backward_square_gives_two_x():
    x = ad.Tensor([1., -2., 3.], requires_grad=True)
    ad.backward(ad.sum_(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2., -4., 6.])


def test_backward_requires_scalar():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(GraphError, match="scalar"):
        ad.backward(ad.mul(x, x))


def test_double_backward_without_reset_is_error():
    x = ad.Tensor([1., 2.], requires_grad=True)
    loss = ad.sum_(ad.mul(x, x))
    ad.backward(loss)
    with pytest.raises(GraphError, match="already"):
        ad.backward(loss)


def test_backward_reset_is_bitwise_idempotent():
    rng = np.random.Generator(np.random.PCG64(7))
    x = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    w = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)

    def run():
        ad.zero_grad([x, w])
        loss = ad.sum_(ad.relu(ad.matmul(x, w)))
        ad.backward(loss)
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


def test_grad_accumulates_across_shared_use():
    x = ad.Tensor([2.], requires_grad=True)
    y = ad.add(ad.mul(x, x), x)  # x^2 + x -> grad 2x + 1 = 5
    ad.backward(ad.sum_(y))
    np.testing.assert_allclose(x.grad, [5.])


def test_second_backward_does_not_double_count_interior_gradients():
    # h's gradient from the first pass must not leak into the second
    x = ad.Tensor([3.], requires_grad=True)
    h = ad.mul(x, x)
    ad.backward(ad.sum_(h))
    ad.backward(ad.sum_(ad.scale(h, 2)))
    np.testing.assert_array_equal(x.grad, [6. + 12.])


# ---------------------------------------------------------------------------
# lean backward: only leaves keep a gradient
# ---------------------------------------------------------------------------

def reference_backward(loss):
    """``ad.backward`` as it was before it dropped interior gradients:
    every node on a path to a leaf keeps its ``.grad``."""
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


def graph_nodes(root):
    """Every tensor reachable from ``root`` through ``_parents``, in a fixed
    depth-first order (the same for two graphs of the same forward)."""
    seen, order, stack = set(), [], [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        order.append(node)
        stack.extend(reversed(node._parents))
    return order


def lean_model(variant, dtype, dropout, vocab_size=24, d_v=8):
    m = MultimodalTranslator(ModelConfig(
        vocab_size=vocab_size, d_model=16, n_heads=2, n_enc_layers=2,
        n_dec_layers=2, d_v=0 if variant == "text_only" else d_v,
        variant=variant, dropout=dropout, eps_ls=0.1), seed=1).astype(dtype)
    m.train_mode = True
    return m


def model_loss(model, batch, visual):
    model.zero_grad()
    model.set_dropout_rng(rng_for("dropout", 7))
    return model.forward_loss(batch, visual)


def assert_backward_matches_reference(model, batches, visual):
    for batch in batches:
        loss = model_loss(model, batch, visual)
        reference_backward(loss)
        want = (loss.item(), {n: p.grad for n, p in model.params.items()})
        loss = model_loss(model, batch, visual)
        ad.backward(loss)
        assert loss.item() == want[0]
        for name, p in model.params.items():
            if want[1][name] is None:
                assert p.grad is None, name
                continue
            assert p.grad.dtype == want[1][name].dtype
            assert np.array_equal(p.grad, want[1][name]), name


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_backward_matches_reference_bitwise(variant, dtype, dropout):
    batch, visual = full_model_batch()
    assert_backward_matches_reference(lean_model(variant, dtype, dropout),
                                      [batch], visual)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_backward_matches_reference_on_toy_corpus(variant, dtype, dropout,
                                                  toy_batches):
    vocab_size, batches, visual = toy_batches
    model = lean_model(variant, dtype, dropout, vocab_size=vocab_size, d_v=32)
    assert_backward_matches_reference(model, batches, visual)


@pytest.mark.parametrize("variant", VARIANTS)
def test_backward_leaves_gradients_only_on_leaves(variant):
    model = lean_model(variant, np.float32, 0.3)
    loss = model_loss(model, *full_model_batch())
    ad.backward(loss)
    nodes = graph_nodes(loss)
    interior = [t for t in nodes if t._backward is not None]
    assert len(interior) > 50
    assert all(t.grad is None for t in interior)
    leaves = {id(p) for p in model.params.values()}
    for t in nodes:
        if t._backward is None and t.requires_grad:
            assert id(t) in leaves and t.grad is not None


def closure_arrays(node):
    return [c.cell_contents for c in node._backward.__closure__
            if isinstance(c.cell_contents, np.ndarray)]


def test_linear_and_heads_backward_capture_no_array():
    model = lean_model("full", np.float32, 0.3)
    loss = model_loss(model, *full_model_batch())
    kinds = {}
    for t in graph_nodes(loss):
        if t._backward is None:
            continue
        kind = t._backward.__qualname__.split(".")[0]
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind in ("linear", "heads"):
            assert closure_arrays(t) == [], kind
    assert kinds["linear"] > 0 and kinds["heads"] > 0


@pytest.mark.parametrize("masked", [False, True])
def test_attention_backward_keeps_only_the_arrays_it_reads(masked):
    # n = 3 queries over S = 5 keys of head width 4: the probabilities and
    # the keys' transposed view may stay, and with dropout the mask and the
    # masked probabilities; the raw product, the scores, the context
    # [2, 2, 3, 4] and its merged copy may not
    rng = np.random.Generator(np.random.PCG64(12))
    qh = ad.Tensor(rng.standard_normal((2, 2, 3, 4)), requires_grad=True)
    kh = ad.Tensor(rng.standard_normal((2, 2, 5, 4)), requires_grad=True)
    vh = ad.Tensor(rng.standard_normal((2, 2, 5, 4)), requires_grad=True)
    keep = (rng.random((2, 2, 3, 5)) < 0.7) / np.float32(0.7) if masked \
        else None
    out = ad.attention(qh, kh, vh, None, keep)
    score_shaped = set()
    for a in closure_arrays(out):
        assert a.shape == (2, 2, 3, 5) or (a.base is kh.data), a.shape
        if a.shape == (2, 2, 3, 5):
            score_shaped.add(id(a))
    assert len(score_shaped) == (3 if masked else 1)


# ---------------------------------------------------------------------------
# copy-free gradient accumulation, contiguous weight transposes
# ---------------------------------------------------------------------------

def reference_accumulate_grad(self, g):
    """``Tensor.accumulate_grad`` as it was before it kept the first
    gradient: copy it, then add later ones in place."""
    if self.grad is None:
        self.grad = np.array(g, dtype=self.data.dtype)
    else:
        self.grad += g


def reference_grad_left(g, b, shape):
    """``_grad_left`` as it was before the contiguous transpose: the
    product against the strided view of ``b``."""
    return ad._unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), shape)


def toy_losses_and_grads(model, batches, visual):
    out = []
    for batch in batches:
        loss = model_loss(model, batch, visual)
        ad.backward(loss)
        out.append((loss.item(), {n: p.grad for n, p in model.params.items()}))
    return out


@pytest.mark.parametrize("variant", ["full", "text_only"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_copy_free_accumulation_matches_copying_on_toy_corpus(
        variant, dtype, dropout, toy_batches, monkeypatch):
    vocab_size, batches, visual = toy_batches
    model = lean_model(variant, dtype, dropout, vocab_size=vocab_size, d_v=32)
    with monkeypatch.context() as m:
        m.setattr(ad.Tensor, "accumulate_grad", reference_accumulate_grad)
        want = toy_losses_and_grads(model, batches, visual)
    got = toy_losses_and_grads(model, batches, visual)
    for (loss, grads), (want_loss, want_grads) in zip(got, want):
        assert loss == want_loss
        for name, g in grads.items():
            assert g.dtype == want_grads[name].dtype, name
            assert np.array_equal(g, want_grads[name]), name


def test_shared_first_gradient_is_never_written():
    # add hands one g to both leaves; both keep it, and a second backward
    # into w1 must not reach w2's gradient through it
    w1 = ad.Tensor(np.arange(3.), requires_grad=True)
    w2 = ad.Tensor(np.ones(3), requires_grad=True)
    ad.backward(ad.sum_(ad.mul(ad.add(w1, w2), ad.Tensor([1., 2., 3.]))))
    assert w1.grad is w2.grad and np.array_equal(w1.grad, [1., 2., 3.])
    w2_before = w2.grad.copy()
    ad.backward(ad.sum_(ad.scale(w1, 10.0)))
    assert np.array_equal(w1.grad, [11., 12., 13.])
    assert np.array_equal(w2.grad, w2_before)


def test_first_gradient_kept_only_in_own_dtype():
    t = ad.Tensor(np.zeros(3), requires_grad=True)
    own = np.array([1., 2., 3.], dtype=np.float32)
    t.accumulate_grad(own)
    assert t.grad is own
    cases = [(np.zeros(3), np.array([0.1, 0.2, 0.3]), np.array([1e-8, 1., 3.3])),
             (np.zeros(3), [0.1, 0.2, 0.3], np.array([1e-8, 1., 3.3])),
             (np.zeros(()), np.float64(0.1), np.float64(3.3)),
             (np.zeros(()), np.float32(0.1), np.array(3.3, np.float32))]
    for data, first, later in cases:
        t, ref = (ad.Tensor(data, requires_grad=True) for _ in range(2))
        t.accumulate_grad(first)
        reference_accumulate_grad(ref, first)
        assert t.grad is not first and t.grad.dtype == np.float32
        assert t.grad.shape == ref.grad.shape
        assert t.grad.tobytes() == ref.grad.tobytes()
        # a later gradient of another dtype sums with the casting of +=
        t.accumulate_grad(later)
        reference_accumulate_grad(ref, later)
        assert t.grad.dtype == np.float32
        assert t.grad.tobytes() == ref.grad.tobytes()


@pytest.mark.parametrize("g_shape, b_shape", [
    ((19, 25, 256), (64, 256)), ((19, 25, 64), (256, 64)),
    ((3, 2, 7, 5), (4, 5)), ((6, 5), (4, 5)), ((2, 3, 5), (2, 4, 5))])
def test_grad_left_matches_strided_product(g_shape, b_shape):
    # contiguous copy only for a 2-D b under a batched g: the same product
    # up to float32 rounding; otherwise the very same call
    rng = np.random.Generator(np.random.PCG64(5))
    g = rng.standard_normal(g_shape).astype(np.float32)
    b = rng.standard_normal(b_shape).astype(np.float32)
    shape = g_shape[:-1] + b_shape[-2:-1]
    got = ad._grad_left(g, b, shape)
    want = reference_grad_left(g, b, shape)
    if len(b_shape) == 2 and len(g_shape) > 2:
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_contiguous_grad_left_matches_strided_on_toy_corpus(
        variant, toy_batches, monkeypatch):
    vocab_size, batches, visual = toy_batches
    model = lean_model(variant, np.float32, 0.3, vocab_size=vocab_size,
                       d_v=32)
    with monkeypatch.context() as m:
        m.setattr(ad, "_grad_left", reference_grad_left)
        want = toy_losses_and_grads(model, batches, visual)
    got = toy_losses_and_grads(model, batches, visual)
    for (loss, grads), (want_loss, want_grads) in zip(got, want):
        assert loss == want_loss  # forward untouched
        # float32 rounding, measured against the step's largest gradient
        # (the analytically zero key-bias gradients are pure rounding)
        scale = max(np.abs(g).max() for g in want_grads.values())
        for name, g in grads.items():
            np.testing.assert_allclose(g, want_grads[name], rtol=1e-4,
                                       atol=1e-6 * scale, err_msg=name)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

def test_dropout_eval_mode_is_identity():
    # eval mode is the model's switch: its ``_dropout`` returns the input
    # untouched, as ``ad.dropout`` does at p == 0
    m = lean_model("full", np.float32, dropout=0.5)
    m.train_mode = False
    x = ad.Tensor(np.ones((4, 4)))
    assert m._dropout(x) is x
    assert ad.dropout(x, 0.0, np.random.Generator(np.random.PCG64(8))) is x


def test_dropout_inverted_scaling_and_determinism():
    x = ad.Tensor(np.ones((1000,)))
    out1 = ad.dropout(x, 0.3, np.random.Generator(np.random.PCG64(9)))
    out2 = ad.dropout(x, 0.3, np.random.Generator(np.random.PCG64(9)))
    assert np.array_equal(out1.data, out2.data)
    kept = out1.data[out1.data != 0]
    np.testing.assert_allclose(kept, 1.0 / 0.7, rtol=1e-6)
    # survivor count is binomial around keep-prob
    assert 600 < kept.size < 800


# ---------------------------------------------------------------------------
# grad_check itself
# ---------------------------------------------------------------------------

def test_grad_check_sum_has_zero_error():
    report = ad.grad_check(ad.sum_, make64(np.arange(5.)), name="sum")
    assert report.max_rel_err < 1e-9


def test_grad_check_detects_corrupted_backward_rule():
    def bad_square_sum(t):
        out_data = np.asarray((t.data ** 2).sum())

        def backward_rule(g):
            t.accumulate_grad(g * t.data)  # wrong: missing factor of 2

        return ad.make_node(out_data, (t,), backward_rule)

    report = ad.grad_check(bad_square_sum, make64([1., 2., 3.]),
                           name="corrupted")
    assert not report.passed


def test_grad_check_sampling_subset():
    report = ad.grad_check(lambda t: ad.sum_(ad.mul(t, t)),
                           make64(np.arange(100.) / 10 + 1), max_entries=7)
    assert report.n_checked == 7 and report.passed
