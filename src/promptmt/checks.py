"""Finite-difference verification suites behind the ``gradcheck`` command.

``primitive_reports`` checks every differentiable primitive in isolation;
``full_model_reports`` checks the composed loss of a small full-variant
model against every parameter, which exercises the complete path from the
loss through co-attention, the visual prompts and the generated mapping
parameters back to the controller and embedding weights.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .model import ModelConfig, MultimodalTranslator, check_model_gradients
from .text import BOS_ID, EOS_ID, Batch, ParallelExample
from .vision import pseudo_visual_tokens


def _t64(rng, shape):
    return ad.Tensor(rng.standard_normal(shape), dtype=np.float64)


def primitive_reports() -> list[ad.GradCheckReport]:
    rng = np.random.Generator(np.random.PCG64(2024))
    reports = []

    def check(name, f, x):
        reports.append(ad.grad_check(f, x, name=name))

    w = _t64(rng, (4, 3))
    check("matmul", lambda x: ad.sum_(ad.matmul(x, w)), _t64(rng, (5, 4)))
    check("matmul_batched",
          lambda x: ad.sum_(ad.matmul(x, w)), _t64(rng, (2, 5, 4)))

    probe = _t64(rng, (3, 6))
    check("softmax",
          lambda x: ad.sum_(ad.mul(ad.softmax(x), probe)),
          _t64(rng, (3, 6)))

    gain, bias = _t64(rng, (6,)), _t64(rng, (6,))
    check("layer_norm",
          lambda x: ad.sum_(ad.mul(ad.layer_norm(x, gain, bias), probe)),
          _t64(rng, (3, 6)))
    x_ln = _t64(rng, (3, 6))
    check("layer_norm_gain",
          lambda g: ad.sum_(ad.mul(ad.layer_norm(x_ln, g, bias), probe)),
          gain)

    # keep inputs away from the kink so central differences are exact
    relu_in = ad.Tensor(rng.uniform(0.2, 1.0, (4, 4))
                        * rng.choice([-1.0, 1.0], (4, 4)),
                        dtype=np.float64)
    check("relu", lambda x: ad.sum_(ad.relu(x)), relu_in)

    ids = [1, 3, 0, 3]
    emb_probe = _t64(rng, (4, 5))
    check("embedding_lookup",
          lambda t: ad.sum_(ad.mul(ad.embedding_lookup(t, ids),
                                   emb_probe)),
          _t64(rng, (6, 5)))

    lin_w, lin_b = _t64(rng, (4, 3)), _t64(rng, (3,))
    check("linear_x", lambda x: ad.sum_(ad.linear(x, lin_w, lin_b)),
          _t64(rng, (5, 4)))
    lin_x = _t64(rng, (5, 4))
    check("linear_w", lambda w_: ad.sum_(ad.linear(lin_x, w_, lin_b)), lin_w)
    check("linear_b", lambda b_: ad.sum_(ad.linear(lin_x, lin_w, b_)), lin_b)

    ctx = _t64(rng, (1, 3))
    gen_bias = _t64(rng, (8,))
    out_b = _t64(rng, (2,))
    check("linear_generated_w",
          lambda gw: ad.sum_(ad.linear(
              lin_x, ad.reshape(ad.linear(ctx, gw, gen_bias), (4, 2)),
              out_b)),
          _t64(rng, (3, 8)))

    check("cross_entropy",
          lambda x: ad.cross_entropy_label_smoothed(x, [2, 0, 5, 1],
                                                    eps_ls=0.1, pad_id=0),
          _t64(rng, (4, 7)))

    check("add", lambda x: ad.sum_(ad.mul(ad.add(x, probe), probe)),
          _t64(rng, (3, 6)))
    check("mul", lambda x: ad.sum_(ad.mul(ad.mul(x, probe), probe)),
          _t64(rng, (3, 6)))
    check("scale", lambda x: ad.sum_(ad.scale(x, -2.5)), _t64(rng, (3, 6)))
    check("transpose",
          lambda x: ad.sum_(ad.mul(ad.transpose(x), probe)),
          _t64(rng, (6, 3)))
    cat_probe = _t64(rng, (3, 12))
    check("concat",
          lambda x: ad.sum_(ad.mul(ad.concat([x, x], axis=1), cat_probe)),
          _t64(rng, (3, 6)))

    # heads: [2, 5, 4] through a [4, 6] projection into 2 heads of 3
    heads_w, heads_b = _t64(rng, (4, 6)), _t64(rng, (6,))
    heads_x = _t64(rng, (2, 5, 4))
    heads_probe = _t64(rng, (2, 2, 5, 3))

    def heads_loss(x, w_, b_):
        return ad.sum_(ad.mul(ad.heads(x, w_, b_, 2), heads_probe))

    check("heads_x", lambda x: heads_loss(x, heads_w, heads_b), heads_x)
    check("heads_w", lambda w_: heads_loss(heads_x, w_, heads_b),
          heads_w)
    check("heads_b", lambda b_: heads_loss(heads_x, heads_w, b_),
          heads_b)

    # attention over [2 rows, 2 heads, 3 positions, 4]: the checked
    # tensor serves as queries, keys and values, with a score bias and
    # with a dropout mask; then as keys and values shared by both rows
    att_probe = _t64(rng, (2, 3, 8))
    att_bias = np.where(rng.random((2, 2, 3, 3)) < 0.3, -1e9, 0.0)
    att_keep = (rng.random((2, 2, 3, 3)) < 0.7) / 0.7
    att_q = _t64(rng, (2, 2, 3, 4))

    def att_loss(q, kv, bias=None, keep=None):
        return ad.sum_(ad.mul(ad.attention(q, kv, kv, bias, keep),
                              att_probe))

    check("attention_bias", lambda x: att_loss(x, x, bias=att_bias),
          _t64(rng, (2, 2, 3, 4)))
    check("attention_keep", lambda x: att_loss(x, x, keep=att_keep),
          _t64(rng, (2, 2, 3, 4)))
    check("attention_shared_kv", lambda kv: att_loss(att_q, kv),
          _t64(rng, (2, 3, 4)))
    return reports


def full_model_batch():
    examples = [
        ParallelExample("g0", "en", "de", [5, BOS_ID, 10, 11, 12, EOS_ID],
                        [BOS_ID, 13, 14, EOS_ID], "img0"),
        ParallelExample("g1", "en", "fr", [6, BOS_ID, 10, 15, EOS_ID],
                        [BOS_ID, 16, 17, 18, EOS_ID], "img1"),
    ]
    visual = {i: pseudo_visual_tokens(i, 3, 8, seed=0)
              for i in ("img0", "img1")}
    return Batch(examples=examples), visual


def full_model_reports() -> list[ad.GradCheckReport]:
    config = ModelConfig(vocab_size=24, d_model=16, n_heads=2,
                         n_enc_layers=1, n_dec_layers=1, d_v=8,
                         variant="full", dropout=0.0, eps_ls=0.1)
    model = MultimodalTranslator(config, seed=11)
    batch, visual = full_model_batch()
    return check_model_gradients(model, batch, visual)
