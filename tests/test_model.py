"""Model tests: encoder masking, controller conditioning, mapping variants,
co-attention against a hand computation, decoder causality, loss closed
forms, the batched loss against a per-example reference, the fused
attention ops against the composed graph they replace, full-model finite
differences, checkpoint round-trips, and the checkpoint loader against a
plain reference reader, with its memory peak."""

import contextlib
import math
import struct
import tracemalloc
import types
import typing
from pathlib import Path

import numpy as np
import pytest

import promptmt.autodiff as ad
import promptmt.model as model_mod
from promptmt.checks import full_model_batch
from promptmt.decoding import beam_search
from promptmt.errors import (ConfigError, NumericError, ShapeError,
                             VariantError, VocabularyError)
from promptmt.evaluate import visual_tokens_for
from promptmt.model import (VARIANTS, ModelConfig, MultimodalTranslator,
                            check_model_gradients, config_from_dict,
                            load_checkpoint, save_checkpoint,
                            sinusoidal_positions)
from promptmt.seeding import rng_for
from promptmt.text import (BOS_ID, EOS_ID, PAD_ID, Batch, ParallelExample,
                           Vocabulary, encode, load_manifest,
                           manifest_image_ids, manifest_lines, mask_source,
                           prefix_target_token)
from promptmt.train import TrainConfig
from promptmt.vision import VisualTokens, pseudo_visual_tokens

TAG_DE, TAG_FR = 5, 6  # ids of the two tag tokens in the tiny test vocab


def tiny_config(**overrides):
    base = dict(vocab_size=24, d_model=16, n_heads=2, n_enc_layers=1,
                n_dec_layers=1, d_v=8, variant="full", dropout=0.0,
                eps_ls=0.1)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_model(**overrides):
    return MultimodalTranslator(tiny_config(**overrides), seed=1)


def example(eid="e0", tag=TAG_DE, image="img0"):
    return ParallelExample(
        example_id=eid, source_lang="en", target_lang="de",
        source_ids=[tag, BOS_ID, 10, 11, 12, EOS_ID],
        target_ids=[BOS_ID, 13, 14, EOS_ID], image_id=image)


def visual_map(ids=("img0",), m_v=3, d_v=8):
    return {i: pseudo_visual_tokens(i, m_v, d_v, seed=0) for i in ids}


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_rejects_bad_variant():
    with pytest.raises(ConfigError, match="variant"):
        tiny_config(variant="banana")


def test_config_rejects_indivisible_heads():
    with pytest.raises(ConfigError, match="divisible"):
        tiny_config(d_model=10, n_heads=4)


def test_config_requires_dv_unless_text_only():
    with pytest.raises(ConfigError, match="d_v"):
        tiny_config(d_v=0)
    tiny_config(d_v=0, variant="text_only")  # fine


@pytest.mark.parametrize("field", ["dropout", "eps_ls"])
@pytest.mark.parametrize("value", [1.0, -0.1, 1.5, float("nan")])
def test_config_rejects_rate_outside_unit_interval(field, value):
    with pytest.raises(ConfigError, match=field):
        tiny_config(**{field: value})


@pytest.mark.parametrize("field", ["dropout", "eps_ls"])
@pytest.mark.parametrize("value", [0.0, 0.3, 0.999])
def test_config_accepts_rate_in_unit_interval(field, value):
    assert getattr(tiny_config(**{field: value}), field) == value


@pytest.mark.parametrize("extra, named", [
    ({"dropuot": 0.5}, "'dropuot'"),
    ({"epochs": 3, "d_modle": 8}, "'d_modle', 'epochs'"),
])
def test_config_from_dict_rejects_unknown_keys(extra, named):
    with pytest.raises(ConfigError) as err:
        config_from_dict(ModelConfig,
                         {"vocab_size": 10, "d_v": 4, **extra})
    assert "ModelConfig" in str(err.value) and named in str(err.value)


@pytest.mark.parametrize("key, value", [
    ("d_model", "64"), ("n_heads", True), ("dropout", "0.1"),
    ("variant", 3), ("n_langs", 2.0),
])
def test_config_from_dict_names_field_of_wrong_type(key, value):
    with pytest.raises(ConfigError) as err:
        config_from_dict(ModelConfig,
                         {"vocab_size": 10, "d_v": 4, key: value},
                         prefix="model.")
    assert f"'model.{key}'" in str(err.value)


def test_config_from_dict_accepts_int_for_float():
    assert config_from_dict(ModelConfig, {"vocab_size": 10, "d_v": 4,
                                          "dropout": 0}).dropout == 0


def test_config_from_dict_reads_type_hints_once_per_class(monkeypatch):
    # get_type_hints compiles the string annotations on every call
    calls = []
    real_get_type_hints = typing.get_type_hints

    def counting(cls, *args, **kwargs):
        calls.append(cls.__name__)
        return real_get_type_hints(cls, *args, **kwargs)

    monkeypatch.setattr(typing, "get_type_hints", counting)
    model_mod._field_kinds.cache_clear()
    base = {"vocab_size": 10, "d_v": 4}
    refused = [
        (ModelConfig, {**base, "d_model": "64"}, "model.",
         "ModelConfig key 'model.d_model' must be int, got '64'"),
        (ModelConfig, {**base, "n_heads": True}, "",
         "ModelConfig key 'n_heads' must be int, got True"),
        (ModelConfig, {**base, "dropout": "0.1"}, "model.",
         "ModelConfig key 'model.dropout' must be float or int, got '0.1'"),
        (ModelConfig, {**base, "variant": 3}, "",
         "ModelConfig key 'variant' must be str, got 3"),
        (ModelConfig, {**base, "dropuot": 0.5}, "model.",
         "unknown ModelConfig key(s): 'model.dropuot'"),
        (TrainConfig, {"grad_clip": "1"}, "train.",
         "TrainConfig key 'train.grad_clip' must be float or NoneType or "
         "int, got '1'"),
        (TrainConfig, {"seed": False}, "",
         "TrainConfig key 'seed' must be int, got False"),
    ]
    for _ in range(5):
        assert config_from_dict(ModelConfig,
                                {**base, "dropout": 0}).dropout == 0
        assert config_from_dict(TrainConfig,
                                {"grad_clip": None}).grad_clip is None
        for cls, d, prefix, message in refused:
            with pytest.raises(ConfigError) as err:
                config_from_dict(cls, d, prefix)
            assert str(err.value) == message
    assert sorted(calls) == ["ModelConfig", "TrainConfig"]


@pytest.mark.parametrize("key, value", [
    ("n_heads", 0), ("vocab_size", 0), ("vocab_size", 5), ("d_model", 0),
    ("n_enc_layers", -1), ("n_dec_layers", -1), ("d_ffn", -4),
    ("n_coattn_layers", -1), ("d_ctrl", -1), ("n_langs", -1),
])
def test_config_names_field_out_of_range(key, value):
    with pytest.raises(ConfigError, match=key):
        tiny_config(**{key: value})


def test_frozen_benchmark_checkpoint_config_loads():
    # its stored config predates n_langs; every key it has is a field
    model, state = load_checkpoint(FROZEN / "model.lvpm")
    assert state is None
    assert (model.config.vocab_size, model.config.d_model,
            model.config.variant, model.config.n_langs) == (360, 64, "full", 0)


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

def test_encode_source_shape_law():
    m = tiny_model()
    for f in (2, 5, 9):
        out = m.encode_source([TAG_DE] + [10] * (f - 1))
        assert out.shape == (f, 16)


def test_encode_source_rejects_empty():
    with pytest.raises(ShapeError, match="empty"):
        tiny_model().encode_source([])


def test_pad_tail_does_not_change_nonpad_outputs():
    m = tiny_model()
    ids = [TAG_DE, BOS_ID, 10, 11, EOS_ID]
    plain = m.encode_source(ids).data
    padded = m.encode_source(ids + [PAD_ID] * 4).data
    assert np.abs(padded[:len(ids)] - plain).max() < 1e-5


def test_zeroed_attention_output_makes_encoder_positionwise():
    m = tiny_model(n_enc_layers=2)
    for i in range(2):
        m.params[f"enc.{i}.self.o.w"].data[:] = 0
        m.params[f"enc.{i}.self.o.b"].data[:] = 0
    a = m.encode_source([TAG_DE, BOS_ID, 10, 11, EOS_ID]).data
    b = m.encode_source([TAG_DE, BOS_ID, 20, 21, EOS_ID]).data
    # with no cross-token path, shared positions keep identical outputs
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    np.testing.assert_array_equal(a[4], b[4])
    assert np.abs(a[2] - b[2]).max() > 0


# ---------------------------------------------------------------------------
# controller and mappings
# ---------------------------------------------------------------------------

def test_controller_deterministic_in_eval():
    m = tiny_model()
    theta1 = m.controller_forward(TAG_DE)
    theta2 = m.controller_forward(TAG_DE)
    assert np.array_equal(theta1.data, theta2.data)


def test_controller_output_shapes():
    # weight rows [8, 16] then the bias row, per tag
    m = tiny_model()
    assert m.controller_forward(TAG_DE).shape == (9, 16)
    batched = m.controller_forward([TAG_DE, TAG_FR, TAG_DE])
    assert batched.shape == (3, 9, 16)
    np.testing.assert_array_equal(batched.data[2],
                                  m.controller_forward(TAG_DE).data)


def test_zeroed_controller_yields_output_bias():
    m = tiny_model()
    for name in ("ctrl.1.w", "ctrl.1.b", "ctrl.2.w"):
        m.params[name].data[:] = 0
    theta = m.controller_forward(TAG_DE).data
    flat_bias = m.params["ctrl.2.b"].data
    np.testing.assert_array_equal(theta[:8], flat_bias[:8 * 16].reshape(8, 16))
    np.testing.assert_array_equal(theta[8], flat_bias[8 * 16:])


def test_controller_differs_across_all_tag_pairs():
    m = tiny_model()
    tags = [5, 6, 7, 8]
    thetas = [m.controller_forward(t).data.reshape(-1) for t in tags]
    for i in range(len(tags)):
        for j in range(i + 1, len(tags)):
            assert np.abs(thetas[i] - thetas[j]).max() > 1e-6


def test_controller_forward_guarded_by_variant():
    for variant in ("static", "no_lvpg", "text_only"):
        m = tiny_model(variant=variant, d_v=0 if variant == "text_only" else 8)
        with pytest.raises(VariantError):
            m.controller_forward(TAG_DE)


def test_apply_mapping_identity():
    m = tiny_model(d_v=16)
    v = ad.Tensor(np.random.default_rng(0).standard_normal((4, 16)))
    theta = ad.Tensor(np.vstack([np.eye(16), np.zeros(16)]))
    out = m.apply_mapping(v, theta)
    np.testing.assert_allclose(out.data, v.data, atol=1e-6)


def test_apply_mapping_zero_weight_broadcasts_bias():
    m = tiny_model()
    v = ad.Tensor(np.ones((3, 8)))
    bias = np.arange(16.0, dtype=np.float32)
    out = m.apply_mapping(v, ad.Tensor(np.vstack([np.zeros((8, 16)), bias])))
    for row in out.data:
        np.testing.assert_array_equal(row, bias)


def test_apply_mapping_hand_case():
    m = tiny_model()
    v = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    w_and_b = ad.Tensor([[1.0, 0.0], [1.0, 1.0], [0.5, -0.5]])
    out = m.apply_mapping(v, w_and_b)
    np.testing.assert_allclose(out.data, [[3.5, 1.5], [7.5, 3.5]])


def test_apply_mapping_shape_mismatch():
    m = tiny_model()
    with pytest.raises(ShapeError):
        m.apply_mapping(ad.Tensor(np.zeros((3, 5))),
                        ad.Tensor(np.zeros((9, 16))))


def test_static_visual_prompt_identity():
    m = tiny_model(variant="static", d_v=16)
    m.params["static.w"].data = np.eye(16, dtype=np.float32)
    m.params["static.b"].data[:] = 0
    vt = pseudo_visual_tokens("img0", 3, 16, seed=1)
    np.testing.assert_allclose(m.visual_prompt(vt, TAG_DE).data, vt.tokens,
                               atol=1e-6)


def test_static_prompts_identical_across_languages_bitwise():
    m = tiny_model(variant="static")
    vt = visual_map()["img0"]
    p_de = m.visual_prompt(vt, TAG_DE)
    p_fr = m.visual_prompt(vt, TAG_FR)
    assert np.array_equal(p_de.data, p_fr.data)


def test_full_prompts_differ_across_languages():
    m = tiny_model()
    vt = visual_map()["img0"]
    p_de = m.visual_prompt(vt, TAG_DE)
    p_fr = m.visual_prompt(vt, TAG_FR)
    assert np.abs(p_de.data - p_fr.data).max() > 1e-6


# ---------------------------------------------------------------------------
# fusion and co-attention
# ---------------------------------------------------------------------------

def test_self_fuse_preserves_shapes():
    m = tiny_model()
    s0 = ad.Tensor(np.random.default_rng(2).standard_normal((5, 16)))
    p0 = ad.Tensor(np.random.default_rng(3).standard_normal((3, 16)))
    s, p = m.self_fuse(s0, p0)
    assert s.shape == (5, 16) and p.shape == (3, 16)


def test_self_fuse_single_token_degenerate_attention():
    # with one prompt token the attention weight is exactly 1, so the block
    # reduces to the per-position residual/norm/FFN pipeline
    m = tiny_model()
    p0 = np.random.default_rng(4).standard_normal((1, 16)).astype(np.float32)
    _, p = m.self_fuse(ad.Tensor(np.ones((2, 16), dtype=np.float32)),
                       ad.Tensor(p0))

    def lin(prefix, x):
        return x @ m.params[prefix + ".w"].data + m.params[prefix + ".b"].data

    def ln(prefix, x):
        mu, var = x.mean(-1, keepdims=True), x.var(-1, keepdims=True)
        xh = (x - mu) / np.sqrt(var + np.float32(1e-5))
        return xh * m.params[prefix + ".gain"].data + m.params[prefix + ".bias"].data

    attn = lin("fuse_vis.self.o", lin("fuse_vis.self.v", p0))
    h = ln("fuse_vis.ln1", p0 + attn)
    f = lin("fuse_vis.ffn.2", np.maximum(lin("fuse_vis.ffn.1", h), 0))
    expected = ln("fuse_vis.ln2", h + f)
    np.testing.assert_allclose(p.data, expected, atol=1e-5)


def test_co_attention_single_key_broadcasts_value():
    # M_v = 1: every query's distribution is a point mass on the one key
    m = tiny_model(n_heads=1)
    s = ad.Tensor(np.random.default_rng(5).standard_normal((4, 16)))
    p0 = np.random.default_rng(6).standard_normal((1, 16)).astype(np.float32)

    def lin(prefix, x):
        return x @ m.params[prefix + ".w"].data + m.params[prefix + ".b"].data

    expected_attn = lin("coattn.0.self.o", lin("coattn.0.self.v", p0))
    q = m.co_attention(s, ad.Tensor(p0))
    # recompute the trailer on top of the broadcast attention output
    def ln(prefix, x):
        mu, var = x.mean(-1, keepdims=True), x.var(-1, keepdims=True)
        xh = (x - mu) / np.sqrt(var + np.float32(1e-5))
        return xh * m.params[prefix + ".gain"].data + m.params[prefix + ".bias"].data

    h = ln("coattn.0.ln1", s.data + np.broadcast_to(expected_attn, (4, 16)))
    f = lin("coattn.0.ffn.2", np.maximum(lin("coattn.0.ffn.1", h), 0))
    expected = ln("coattn.0.ln2", h + f)
    np.testing.assert_allclose(q.data, expected, atol=1e-5)


def test_co_attention_hand_computation_one_head():
    m = tiny_model(n_heads=1)
    rng = np.random.default_rng(7)
    s = rng.standard_normal((2, 16)).astype(np.float32)
    p = rng.standard_normal((2, 16)).astype(np.float32)

    def lin(prefix, x):
        return x @ m.params[prefix + ".w"].data + m.params[prefix + ".b"].data

    q_ = lin("coattn.0.self.q", s)
    k_ = lin("coattn.0.self.k", p)
    v_ = lin("coattn.0.self.v", p)
    scores = q_ @ k_.T / np.sqrt(16.0)
    e = np.exp(scores - scores.max(-1, keepdims=True))
    probs = e / e.sum(-1, keepdims=True)
    attn = lin("coattn.0.self.o", probs @ v_)

    def ln(prefix, x):
        mu, var = x.mean(-1, keepdims=True), x.var(-1, keepdims=True)
        xh = (x - mu) / np.sqrt(var + np.float32(1e-5))
        return xh * m.params[prefix + ".gain"].data + m.params[prefix + ".bias"].data

    h = ln("coattn.0.ln1", s + attn)
    f = lin("coattn.0.ffn.2", np.maximum(lin("coattn.0.ffn.1", h), 0))
    expected = ln("coattn.0.ln2", h + f)

    got = m.co_attention(ad.Tensor(s), ad.Tensor(p))
    np.testing.assert_allclose(got.data, expected, atol=1e-5)


def test_co_attention_guards():
    m = tiny_model(variant="text_only", d_v=0)
    with pytest.raises(VariantError):
        m.co_attention(ad.Tensor(np.zeros((2, 16))), ad.Tensor(np.zeros((1, 16))))
    with pytest.raises(ShapeError, match="empty"):
        tiny_model().co_attention(ad.Tensor(np.zeros((2, 16))),
                                  ad.Tensor(np.zeros((0, 16))))


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

def test_decode_logits_shape():
    m = tiny_model()
    memory, mask = m.prepare_source(example().source_ids, visual_map()["img0"])
    logits = m.decode(memory, [BOS_ID, 13, 14], mask)
    assert logits.shape == (3, 24)


def test_decode_causality_perturbation_oracle():
    m = tiny_model()
    memory, mask = m.prepare_source(example().source_ids, visual_map()["img0"])
    base_ids = [BOS_ID, 13, 14, 15, 16]
    base = m.decode(memory, base_ids, mask).data
    for t in range(1, len(base_ids)):
        perturbed = list(base_ids)
        perturbed[t] = 20
        out = m.decode(memory, perturbed, mask).data
        np.testing.assert_array_equal(out[:t], base[:t])
        assert np.abs(out[t:] - base[t:]).max() > 0


def test_prepare_source_rejects_untagged_source():
    m = tiny_model()
    with pytest.raises(ConfigError, match=r"\b1\b.*not a language tag"):
        m.prepare_source([BOS_ID, 10, 11, EOS_ID], visual_map()["img0"])


def test_prepare_source_checks_recorded_tag_block():
    m = tiny_model(n_langs=2)  # tags are ids 5 and 6
    for tag in (TAG_DE, TAG_FR):
        m.prepare_source([tag, BOS_ID, 10, EOS_ID], visual_map()["img0"])
    for bad in (7, 10):
        with pytest.raises(ConfigError, match=rf"\b{bad}\b.*not a language"):
            m.prepare_source([bad, BOS_ID, 10, EOS_ID], visual_map()["img0"])


# every variant with a 2-layer decoder, and the full one with 1 and 3
# layers, so the state step's per-layer loop is checked at more than one
# depth
VARIANT_DEPTHS = ([pytest.param(v, 2, id=v) for v in VARIANTS]
                  + [pytest.param("full", n, id=f"full-{n}_dec_layers")
                     for n in (1, 3)])


@pytest.mark.parametrize("variant,n_dec_layers", VARIANT_DEPTHS)
@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-5), (np.float32, 1e-4)])
def test_incremental_decode_matches_teacher_forcing(variant, n_dec_layers,
                                                    dtype, tol):
    text_only = variant == "text_only"
    m = tiny_model(variant=variant, d_v=0 if text_only else 8,
                   n_dec_layers=n_dec_layers).astype(dtype)
    visual = None if text_only else visual_map()["img0"]
    source = [TAG_DE, BOS_ID, 10, PAD_ID, 11, 12, PAD_ID, EOS_ID, PAD_ID]
    rng = np.random.default_rng(0)
    ids = rng.integers(5, 24, (3, 8))
    ids[:, 0] = BOS_ID
    with ad.no_grad():
        memory, mask = m.prepare_source(source, visual)
        state = m.decoder_state(memory)
        # one position at a time, then chunks of several
        for lo, hi in ((0, 1), (1, 2), (2, 4), (4, 5), (5, 8)):
            if lo == 4:
                # beam reorder: row 1 dropped, row 0 continued twice, and
                # the rows' next tokens differ from here on
                rows = [2, 0, 0]
                state.reorder(rows)
                ids = ids[rows]
                ids[:, lo:] = rng.integers(5, 24, (3, ids.shape[1] - lo))
            got = m.decode(memory, ids[:, lo:hi], mask, state).data
            want = m.decode(memory, ids[:, :hi], mask).data[:, lo:hi]
            assert got.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)
    assert state.length == 8


def test_decoder_state_requires_no_grad_and_eval_mode():
    m = tiny_model()
    memory, mask = m.prepare_source(example().source_ids, visual_map()["img0"])
    with pytest.raises(ConfigError, match="no_grad"):
        m.decoder_state(memory)
    with ad.no_grad():
        state = m.decoder_state(memory)
        m.decode(memory, [[BOS_ID]], mask, state)
        m.train_mode = True
        with pytest.raises(ConfigError, match="train_mode"):
            m.decoder_state(memory)
        with pytest.raises(ConfigError, match="train_mode"):
            m.decode(memory, [[13]], mask, state)
        m.train_mode = False
    with pytest.raises(ConfigError, match="no_grad"):
        m.decode(memory, [[13]], mask, state)
    assert state.length == 1


def test_decode_with_state_rejects_unbatched_ids():
    m = tiny_model()
    with ad.no_grad():
        memory, mask = m.prepare_source(example().source_ids,
                                        visual_map()["img0"])
        state = m.decoder_state(memory)
        with pytest.raises(ShapeError, match=r"\[B, n\]"):
            m.decode(memory, [BOS_ID], mask, state)


def test_text_only_uses_encoder_output_as_memory():
    m = tiny_model(variant="text_only", d_v=0)
    ids = example().source_ids
    memory, _ = m.prepare_source(ids, None)
    np.testing.assert_array_equal(memory.data, m.encode_source(ids).data)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_uniform_logit_model_loss_is_log_vocab():
    m = tiny_model()
    m.params["embedding"].data[:] = 0  # tied projection -> all-zero logits
    loss = m.forward_loss(Batch(examples=[example()]), visual_map())
    assert abs(loss.item() - np.log(24)) < 1e-5


def test_duplicated_example_keeps_mean_loss():
    m = tiny_model()
    vm = visual_map()
    one = m.forward_loss(Batch(examples=[example()]), vm)
    two = m.forward_loss(Batch(examples=[example(), example("e1")]), vm)
    assert abs(one.item() - two.item()) < 1e-6


def test_forward_loss_missing_visual_entry():
    # the map is indexed as given: a plain dict raises KeyError, a read_vtok
    # table its own ConfigError naming the file (tests/test_vision.py)
    m = tiny_model()
    with pytest.raises(KeyError, match="img0"):
        m.forward_loss(Batch(examples=[example()]), {})


def test_forward_loss_rejects_target_without_bos():
    m = tiny_model()
    bad = example("e7")
    bad.target_ids = [13, 14, EOS_ID]
    with pytest.raises(ConfigError, match="e7.*BOS"):
        m.forward_loss(Batch(examples=[example(), bad]), visual_map())


def test_forward_loss_rejects_mixed_prompt_lengths():
    m = tiny_model()
    vm = {"img0": pseudo_visual_tokens("img0", 3, 8, seed=0),
          "img1": pseudo_visual_tokens("img1", 2, 8, seed=0)}
    batch = Batch(examples=[example(), example("e1", image="img1")])
    with pytest.raises(ShapeError, match="img0.*img1"):
        m.forward_loss(batch, vm)


@pytest.mark.parametrize("call, error, message", [
    (lambda: tiny_model().prepare_source([TAG_DE, BOS_ID, 10, EOS_ID], None),
     ConfigError, "variant 'full' requires visual tokens, none provided"),
    (lambda: tiny_model().self_fuse(ad.Tensor(np.zeros((0, 16))),
                                    ad.Tensor(np.zeros((3, 16)))),
     ShapeError, "self_fuse: empty stream"),
    (lambda: tiny_model(variant="text_only", d_v=0).visual_prompt(
        visual_map()["img0"], TAG_DE),
     VariantError, "text_only variant has no visual prompts"),
    (lambda: tiny_model().forward_loss(Batch(examples=[]), visual_map()),
     ConfigError, "forward_loss: empty batch"),
    (lambda: tiny_model().forward_loss(Batch(examples=[example()])),
     ConfigError, "variant 'full' requires visual tokens, none provided"),
], ids=["prepare_source without visual tokens", "self_fuse empty text",
        "visual_prompt under text_only", "forward_loss empty batch",
        "forward_loss without a visual map"])
def test_model_stages_refuse_by_name(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def reference_loss(model, batch, visual_map):
    """The loss as it was before batching: one graph per example, from
    ``prepare_source`` through ``decode`` to a summed cross entropy, over
    the batch's target-token count."""
    total, count = None, 0
    for ex in batch.examples:
        visual = (None if model.config.variant == "text_only"
                  else visual_map[ex.image_id])
        memory, mask = model.prepare_source(ex.source_ids, visual)
        logits = model.decode(memory, ex.target_ids[:-1], mask)
        loss = ad.cross_entropy_label_smoothed(
            logits, ex.target_ids[1:], model.config.eps_ls, PAD_ID)
        total = loss if total is None else ad.add(total, loss)
        count += len(ex.target_ids) - 1
    return ad.scale(total, 1.0 / count)


def loss_and_grads(model, loss_fn, batch, visual_map):
    model.zero_grad()
    loss = loss_fn(model, batch, visual_map)
    ad.backward(loss)
    grads = {name: (np.zeros_like(p.data) if p.grad is None else p.grad)
             for name, p in model.params.items()}
    return loss.item(), grads


def batched_loss(model, batch, visual_map):
    return model.forward_loss(batch, visual_map)


def assert_batched_matches_reference(model, batches, visual_map):
    model = model.astype(np.float64)
    for batch in batches:
        want, want_grads = loss_and_grads(model, reference_loss, batch,
                                          visual_map)
        got, got_grads = loss_and_grads(model, batched_loss, batch,
                                        visual_map)
        assert got == pytest.approx(want, rel=1e-5)
        for name in model.params:
            # the key biases' gradients are analytically zero (a key bias
            # shifts a whole score row), hence the absolute floor
            np.testing.assert_allclose(got_grads[name], want_grads[name],
                                       rtol=1e-5, atol=1e-9, err_msg=name)


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_loss_matches_per_example_reference(variant):
    text_only = variant == "text_only"
    m = tiny_model(variant=variant, d_v=0 if text_only else 8)
    batch, visual = full_model_batch()
    assert_batched_matches_reference(m, [batch], visual)


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_loss_matches_reference_on_toy_corpus(variant, toy_batches):
    vocab_size, batches, visual = toy_batches
    text_only = variant == "text_only"
    m = tiny_model(variant=variant, vocab_size=vocab_size,
                   d_v=0 if text_only else 32)
    assert_batched_matches_reference(m, batches, visual)


def test_batched_graph_size_does_not_grow_with_batch(monkeypatch):
    nodes = []
    real_make_node = ad.make_node

    def counting(*args, **kwargs):
        nodes[-1] += 1
        return real_make_node(*args, **kwargs)

    monkeypatch.setattr(ad, "make_node", counting)
    m = tiny_model(dropout=0.3)
    m.train_mode = True
    fr = ParallelExample("f0", "en", "fr", [TAG_FR, BOS_ID, 10, 15, EOS_ID],
                         [BOS_ID, 16, 17, 18, 19, EOS_ID], "img1")
    vm = visual_map(("img0", "img1"))
    for copies in (1, 4):
        examples = [example(f"e{i}") for i in range(copies)] + [fr] * copies
        nodes.append(0)
        m.forward_loss(Batch(examples=examples), vm)
    assert nodes[0] == nodes[1]


def test_every_attention_distribution_sums_to_one(monkeypatch):
    # capture each softmax the forward pass computes (the fused attention
    # op and ``ad.softmax`` share one helper): all of them are attention
    # distributions over the last axis
    captured = []
    real_softmax = ad._softmax

    def spy(x):
        out = real_softmax(x)
        captured.append(out)
        return out

    monkeypatch.setattr(ad, "_softmax", spy)
    m = tiny_model(n_enc_layers=2, n_dec_layers=2, n_coattn_layers=2)
    m.forward_loss(Batch(examples=[example()]), visual_map())
    assert len(captured) >= 9  # enc x2, fuse x2, coattn x2, dec self+cross x2
    for probs in captured:
        sums = probs.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# the fused heads / attention / linear ops against the composed graph
# ---------------------------------------------------------------------------

def _swap_head_axes(n_lead):
    return tuple(range(n_lead)) + (n_lead + 1, n_lead, n_lead + 2)


def composed_linear(x, w, b):
    """``ad.linear`` as it was before it became one node."""
    return ad.add(ad.matmul(x, w), b)


def composed_heads(model, prefix, x):
    """``MultimodalTranslator._heads`` as it was before ``ad.heads``."""
    h = model.config.n_heads
    y = composed_linear(x, model.params[f"{prefix}.w"],
                        model.params[f"{prefix}.b"])
    lead = y.shape[:-2]
    split = ad.reshape(y, lead + (y.shape[-2], h, y.shape[-1] // h))
    return ad.transpose(split, _swap_head_axes(len(lead)))


def composed_attend(model, prefix, qh, kh, vh, bias):
    """``MultimodalTranslator._attend`` as it was before ``ad.attention``."""
    scores = ad.scale(ad.matmul(qh, ad.transpose(kh)),
                      1.0 / np.sqrt(qh.shape[-1]))
    if bias is not None:
        scores = ad.add(scores, model._const(bias))
    probs = model._dropout(ad.softmax(scores))
    ctx = ad.matmul(probs, vh)
    lead = ctx.shape[:-3]
    merged = ad.reshape(ad.transpose(ctx, _swap_head_axes(len(lead))),
                        lead + (ctx.shape[-2], model.config.d_model))
    return composed_linear(merged, model.params[f"{prefix}.o.w"],
                           model.params[f"{prefix}.o.b"])


@contextlib.contextmanager
def composed_graph(model):
    """Run ``model`` on the composed graph the fused ops replace."""
    fused_linear = ad.linear
    ad.linear = composed_linear
    model._heads = types.MethodType(composed_heads, model)
    model._attend = types.MethodType(composed_attend, model)
    try:
        yield
    finally:
        ad.linear = fused_linear
        del model._heads, model._attend


def fused_and_composed(model, run):
    """``run(model)`` on the fused graph, then on the composed one, each
    from the same dropout stream."""
    model.set_dropout_rng(rng_for("dropout", 7))
    fused = run(model)
    model.set_dropout_rng(rng_for("dropout", 7))
    with composed_graph(model):
        composed = run(model)
    return fused, composed


def assert_fused_matches_composed(model, batches, visual_map):
    for batch in batches:
        fused, composed = fused_and_composed(
            model, lambda m: loss_and_grads(m, batched_loss, batch,
                                            visual_map))
        assert fused[0] == composed[0]
        for name in model.params:
            assert fused[1][name].dtype == composed[1][name].dtype
            assert np.array_equal(fused[1][name], composed[1][name]), name


def fusion_model(variant, dtype, dropout, d_v=8, **overrides):
    m = tiny_model(variant=variant, n_enc_layers=2, n_dec_layers=2,
                   dropout=dropout, d_v=0 if variant == "text_only" else d_v,
                   **overrides).astype(dtype)
    m.train_mode = True
    return m


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_fused_ops_match_composed_graph_bitwise(variant, dtype, dropout):
    batch, visual = full_model_batch()
    m = fusion_model(variant, dtype, dropout)
    assert_fused_matches_composed(m, [batch], visual)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_fused_ops_match_composed_graph_on_toy_corpus(variant, dtype,
                                                      dropout, toy_batches):
    vocab_size, batches, visual = toy_batches
    m = fusion_model(variant, dtype, dropout, d_v=32, vocab_size=vocab_size)
    assert_fused_matches_composed(m, batches, visual)


@pytest.mark.parametrize("n_heads", [1, 2])
def test_fused_ops_match_composed_graph_one_head_one_position(n_heads):
    # one head and one target position make several of the head-split
    # views contiguous, where a stride difference could show
    m = fusion_model("full", np.float32, 0.3, n_heads=n_heads)
    short = ParallelExample("s0", "en", "de", [TAG_DE, BOS_ID, 10, EOS_ID],
                            [BOS_ID, EOS_ID], "img0")
    assert_fused_matches_composed(m, [Batch(examples=[short])],
                                  visual_map())


FROZEN = Path(__file__).resolve().parents[1] / "perfbench" / "frozen"


def test_fused_beam_search_matches_composed_graph_frozen_checkpoint():
    """Requests to the benchmark's trained checkpoint, masked and unmasked,
    into every target language: the same hypotheses, logprob bit for bit."""
    model, _ = load_checkpoint(FROZEN / "model.lvpm")
    vocab = Vocabulary.load(FROZEN / "bpe")
    manifest = load_manifest(FROZEN / "train.json")
    visual = visual_tokens_for(model, manifest.vtok_path)
    sources = manifest_lines(manifest, "en")
    images = manifest_image_ids(manifest, len(sources))
    requests = []
    for k in range(0, len(sources), 2):
        for j, lang in enumerate(("de", "fr", "cs")):
            ids = prefix_target_token(
                [BOS_ID] + encode(sources[k], vocab) + [EOS_ID], lang, vocab)
            ratio = (0.0, 0.2, 0.4, 0.6)[(k // 2 + j) % 4]
            requests.append((mask_source(ids, ratio, k + j, vocab), lang,
                             visual[images[k]]))

    def run(m):
        return [beam_search(m, vocab, ids, lang, vt, beam=5, alpha=1.0)
                for ids, lang, vt in requests]

    fused, composed = fused_and_composed(model, run)
    assert fused == composed


# raw-numpy oracle of incremental decoding: the arithmetic ``decode`` does
# with a state, in order, written out as plain numpy from the parameter
# arrays alone (``.max``, ``.sum`` and ``.mean`` where ``autodiff``'s
# kernels call the ufunc reductions), so the state step is checked to
# change no bit against an independent statement of the maths


def raw_linear(x, p, prefix):
    return np.matmul(x, p[f"{prefix}.w"]) + p[f"{prefix}.b"]


def raw_heads(x, p, prefix, n_heads):
    y = raw_linear(x, p, prefix)
    lead = y.shape[:-2]
    split = y.reshape(y.shape[:-1] + (n_heads, y.shape[-1] // n_heads))
    return split.transpose(tuple(range(len(lead)))
                           + (len(lead) + 1, len(lead), len(lead) + 2))


def raw_attend(q, k, v, p, prefix, bias):
    scores = np.matmul(q, k.swapaxes(-1, -2))
    scores = scores * scores.dtype.type(1.0 / np.sqrt(q.shape[-1]))
    if bias is not None:
        scores = scores + bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    ctx = np.matmul(e / e.sum(axis=-1, keepdims=True), v)
    merged = ctx.transpose(0, 2, 1, 3)
    return raw_linear(merged.reshape(merged.shape[:-2] + (-1,)), p,
                      f"{prefix}.o")


def raw_layer_norm(x, p, prefix):
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True)
                        + x.dtype.type(1e-5))
    return xc * inv * p[f"{prefix}.gain"] + p[f"{prefix}.bias"]


class RawDecoder:
    """Incremental decoding of [B, n] ids, eval mode, from the parameter
    arrays alone, over a [S, d] memory shared by every row or a [B, S, d]
    memory with one source per row, whose rows and PAD mask (True: hidden)
    ``reorder`` moves with the cache."""

    def __init__(self, model, memory, key_mask=None):
        self.p = {name: t.data for name, t in model.params.items()}
        self.cfg = model.config
        h = self.cfg.n_heads
        self.cross = [
            (raw_heads(memory, self.p, f"dec.{i}.cross.k", h),
             raw_heads(memory, self.p, f"dec.{i}.cross.v", h))
            for i in range(self.cfg.n_dec_layers)]
        self.key_mask = key_mask
        self.cache = [None] * self.cfg.n_dec_layers
        self.length = 0

    def step(self, ids):
        p, h, d = self.p, self.cfg.n_heads, self.cfg.d_model
        table = p["embedding"]
        ids = np.asarray(ids, dtype=np.int64)
        n, dt = ids.shape[1], table.dtype.type
        x = table[ids]
        x = x * dt(float(np.sqrt(d)))
        x = x + sinusoidal_positions(n, d, x.dtype, self.length)
        # query i at position length + i sees keys 0 .. length + i
        later = (np.arange(self.length + n)[None, :]
                 > self.length + np.arange(n)[:, None])
        causal = np.where(later, dt(-1e9), dt(0)) if later.any() else None
        pad = None
        if self.key_mask is not None and self.key_mask.any():
            pad = np.where(self.key_mask, dt(-1e9), dt(0))[..., None, None, :]
        for i in range(self.cfg.n_dec_layers):
            pre = f"dec.{i}"
            q, k, v = (raw_heads(x, p, f"{pre}.self.{w}", h) for w in "qkv")
            if self.cache[i] is not None:
                k = np.concatenate([self.cache[i][0], k], axis=-2)
                v = np.concatenate([self.cache[i][1], v], axis=-2)
            self.cache[i] = (k, v)
            x = raw_layer_norm(x + raw_attend(q, k, v, p, f"{pre}.self",
                                              causal), p, f"{pre}.ln1")
            q = raw_heads(x, p, f"{pre}.cross.q", h)
            x = raw_layer_norm(x + raw_attend(q, *self.cross[i], p,
                                              f"{pre}.cross", pad), p,
                               f"{pre}.ln2")
            f = raw_linear(np.maximum(raw_linear(x, p, f"{pre}.ffn.1"), 0),
                           p, f"{pre}.ffn.2")
            x = raw_layer_norm(x + f, p, f"{pre}.ln3")
        self.length += n
        return np.matmul(x, table.T)

    def reorder(self, rows):
        self.cache = [(k[rows], v[rows]) for k, v in self.cache]
        if self.cross[0][0].ndim == 4:
            self.cross = [(k[rows], v[rows]) for k, v in self.cross]
            if self.key_mask is not None:
                self.key_mask = self.key_mask[rows]


@pytest.mark.parametrize("variant,n_dec_layers", VARIANT_DEPTHS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("per_row", [False, True],
                         ids=["shared_memory", "per_row_memory"])
def test_incremental_decode_matches_raw_numpy(variant, n_dec_layers, dtype,
                                              per_row):
    """State steps of one position and of several (causal bias) over a
    PAD-masked source (key bias), across beam reorders that drop and
    repeat rows: the logits are ``==`` to the raw-numpy decoder's, over one
    memory shared by every row and over a memory with one source per row
    (its rows and mask moving with the reorders)."""
    text_only = variant == "text_only"
    m = tiny_model(variant=variant, d_v=0 if text_only else 8,
                   n_dec_layers=n_dec_layers).astype(dtype)
    sources = [[TAG_DE, BOS_ID, 10, PAD_ID, 11, 12, PAD_ID, EOS_ID, PAD_ID],
               [TAG_FR, BOS_ID, 13, 14, PAD_ID, 15, 16, EOS_ID, PAD_ID]]
    vm = visual_map(("img0", "img1"))
    visual = None if text_only else [vm["img0"], vm["img1"]]
    if not per_row:
        sources, visual = sources[0], None if text_only else visual[0]
    rng = np.random.default_rng(0)
    # the source row each state row decodes, and the reorders before steps
    rows = np.arange(2 if per_row else 1)
    reorders = {1: [1, 0, 0] if per_row else [0, 0, 0], 2: [2, 0, 0],
                4: [1, 2, 2, 0]}
    with ad.no_grad():
        memory, mask = m.prepare_source(sources, visual)
        assert memory.data.ndim == (3 if per_row else 2)
        assert mask.any()
        raw = RawDecoder(m, memory.data, mask)
        state = m.decoder_state(memory)
        for lo, hi in ((0, 1), (1, 2), (2, 4), (4, 5), (5, 8)):
            if lo in reorders:
                state.reorder(reorders[lo])
                raw.reorder(reorders[lo])
                rows = rows[reorders[lo]]
            ids = rng.integers(5, 24, (len(rows), hi - lo))
            if lo == 0:
                ids[:, 0] = BOS_ID
            got = m.decode(memory, ids, mask[rows] if per_row else mask,
                           state)
            assert got.data.dtype == dtype
            assert np.array_equal(got.data, raw.step(ids)), (lo, hi)
    assert state.length == 8


def frozen_memory(model, k=0, lang="de"):
    vocab = Vocabulary.load(FROZEN / "bpe")
    manifest = load_manifest(FROZEN / "train.json")
    visual = visual_tokens_for(model, manifest.vtok_path)
    sources = manifest_lines(manifest, "en")
    images = manifest_image_ids(manifest, len(sources))
    ids = prefix_target_token([BOS_ID] + encode(sources[k], vocab)
                              + [EOS_ID], lang, vocab)
    with ad.no_grad():
        return model.prepare_source(ids, visual[images[k]])


def test_incremental_decode_matches_raw_numpy_frozen_checkpoint(monkeypatch):
    """One row, then five across two reorders (repeats included): every
    step's logits are those of the raw-numpy decoder bit for bit, and each
    step records exactly one node, the logits, with no parent and no
    backward rule."""
    model, _ = load_checkpoint(FROZEN / "model.lvpm")
    memory, mask = frozen_memory(model)
    assert not mask.any()
    raw = RawDecoder(model, memory.data)
    made = []
    real_make_node = ad.make_node

    def recording(*args, **kwargs):
        made.append(real_make_node(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(ad, "make_node", recording)
    rng = np.random.default_rng(7)
    steps = [np.array([[BOS_ID]])] + [rng.integers(10, model.config.vocab_size,
                                                  (5, 1)) for _ in range(6)]
    reorders = {0: [0, 0, 0, 0, 0], 2: [4, 2, 2, 0, 1], 4: [1, 1, 3, 0, 4]}
    with ad.no_grad():
        state = model.decoder_state(memory)
        assert made == []
        for t, ids in enumerate(steps):
            got = model.decode(memory, ids, mask, state)
            assert made == [got], f"step {t}"
            assert got._parents == () and got._backward is None
            made.clear()
            assert got.shape == ids.shape + (model.config.vocab_size,)
            assert np.array_equal(got.data, raw.step(ids)), f"step {t}"
            if t in reorders:
                state.reorder(reorders[t])
                raw.reorder(reorders[t])


class NoLookups(dict):
    """A parameter store that refuses every lookup."""

    def __getitem__(self, name):
        raise AssertionError(f"parameter {name!r} looked up")

    get = __getitem__


def test_state_steps_read_no_parameter_store_frozen_checkpoint(monkeypatch):
    """Once the state is made, its steps across reorders look up no
    parameter and still give the raw-numpy decoder's logits bit for bit."""
    model, _ = load_checkpoint(FROZEN / "model.lvpm")
    memory, mask = frozen_memory(model)
    raw = RawDecoder(model, memory.data)
    rng = np.random.default_rng(11)
    with ad.no_grad():
        state = model.decoder_state(memory)
        monkeypatch.setattr(model, "params", NoLookups())
        for t in range(5):
            ids = (np.array([[BOS_ID]]) if t == 0 else
                   rng.integers(10, model.config.vocab_size, (4, 1)))
            got = model.decode(memory, ids, mask, state).data
            assert np.array_equal(got, raw.step(ids)), f"step {t}"
            rows = [0, 0, 0, 0] if t == 0 else [3, 1, 1, 0]
            state.reorder(rows)
            raw.reorder(rows)


def test_state_sees_in_place_updates_not_replaced_tensors():
    m = tiny_model()
    name, ids = "dec.0.ffn.1.w", np.array([[BOS_ID]])
    with ad.no_grad():
        memory, mask = m.prepare_source(example().source_ids,
                                        visual_map()["img0"])

        def first_step(state):
            return m.decode(memory, ids, mask, state).data

        old = first_step(m.decoder_state(memory))
        made_before = m.decoder_state(memory)
        m.params[name] = ad.Tensor(m.params[name].data * 2)
        assert np.array_equal(first_step(made_before), old)
        made_before = m.decoder_state(memory)
        m.params[name].data *= 2   # in place, as Adam updates
        updated = first_step(m.decoder_state(memory))
        assert not np.array_equal(updated, old)
        assert np.array_equal(first_step(made_before), updated)


def test_decode_with_state_names_an_id_outside_the_table():
    m = tiny_model()
    with ad.no_grad():
        memory, mask = m.prepare_source(example().source_ids,
                                        visual_map()["img0"])
        state = m.decoder_state(memory)
        for bad in (24, -1):
            with pytest.raises(VocabularyError,
                               match=rf"id {bad} outside table of size 24"):
                m.decode(memory, [[BOS_ID], [bad]], mask, state)
    assert state.length == 0


def test_decode_with_state_refuses_nan_in_memory():
    m = tiny_model()
    with ad.no_grad():
        memory, mask = m.prepare_source(example().source_ids,
                                        visual_map()["img0"])
        memory.data[2, 5] = np.nan
        state = m.decoder_state(memory)
        with pytest.raises(NumericError, match="NaN"):
            m.decode(memory, [[BOS_ID]], mask, state)


def test_reorder_moves_per_row_memory_frozen_checkpoint():
    """Two equal-length sources as the rows of one state over a [2, S, d]
    memory, swapped by a reorder after every step: each row's logits are
    those of decoding its own source's memory alone, bit for bit."""
    model, _ = load_checkpoint(FROZEN / "model.lvpm")
    vocab = Vocabulary.load(FROZEN / "bpe")
    manifest = load_manifest(FROZEN / "train.json")
    visual = visual_tokens_for(model, manifest.vtok_path)
    sources = manifest_lines(manifest, "en")
    images = manifest_image_ids(manifest, len(sources))
    picks = (2, 5)   # 13 tokens each, two images
    ids = np.array([prefix_target_token(
        [BOS_ID] + encode(sources[k], vocab) + [EOS_ID], "de", vocab)
        for k in picks])
    rng = np.random.default_rng(3)
    with ad.no_grad():
        memory, mask = model.prepare_source(
            ids, [visual[images[k]] for k in picks])
        assert memory.shape[0] == 2 and not mask.any()
        state = model.decoder_state(memory)
        own = [ad.Tensor(memory.data[j]) for j in range(2)]
        alone = [model.decoder_state(m) for m in own]
        rows = np.arange(2)   # the source each row of the state decodes
        for t in range(6):
            tokens = (np.full((2, 1), BOS_ID) if t == 0 else
                      rng.integers(10, model.config.vocab_size, (2, 1)))
            got = model.decode(memory, tokens, mask[rows], state).data
            for r, j in enumerate(rows):
                want = model.decode(own[j], tokens[r:r + 1], mask[j],
                                    alone[j]).data
                assert np.array_equal(got[r], want[0]), f"step {t} row {r}"
            state.reorder([1, 0])
            rows = rows[[1, 0]]


def test_fused_ops_halve_the_train_step_graph(monkeypatch, toy_batches):
    nodes = [0]
    real_make_node = ad.make_node

    def counting(*args, **kwargs):
        nodes[0] += 1
        return real_make_node(*args, **kwargs)

    monkeypatch.setattr(ad, "make_node", counting)
    vocab_size, batches, visual = toy_batches
    m = tiny_model(vocab_size=vocab_size, d_v=32, n_enc_layers=2,
                   n_dec_layers=2, dropout=0.0)
    m.train_mode = True
    counts = []
    for ctx in (contextlib.nullcontext(), composed_graph(m)):
        nodes[0] = 0
        with ctx:
            m.forward_loss(batches[0], visual)
        counts.append(nodes[0])
    # the layer counts of the benchmark's train config: two encoder and
    # two decoder layers, one co-attention layer, dropout off
    assert counts == [116, 278]


def test_generated_parameters_receive_gradients():
    # theta tensors are intermediate graph nodes; gradients must flow
    # through them to the controller's leaf parameters
    m = tiny_model()
    theta = m.controller_forward(TAG_DE)
    tokens = m._const(visual_map()["img0"].tokens)
    ad.backward(ad.sum_(m.apply_mapping(tokens, theta)))
    assert theta.grad is None
    assert m.params["ctrl.2.w"].grad is not None
    assert m.params["embedding"].grad is not None
    # an interior node drops its gradient once used, so the mapping's
    # weight and bias rows are checked on a leaf copy of theta
    leaf = ad.Tensor(theta.data, requires_grad=True)
    ad.backward(ad.sum_(m.apply_mapping(tokens, leaf)))
    w_grad, b_grad = leaf.grad[:8], leaf.grad[8]
    assert np.abs(w_grad).max() > 0
    assert np.abs(b_grad).max() > 0


def test_full_model_gradcheck_two_examples():
    m = tiny_model()
    exs = [example(), ParallelExample(
        "e1", "en", "fr", [TAG_FR, BOS_ID, 10, 15, EOS_ID],
        [BOS_ID, 16, 17, 18, EOS_ID], "img1")]
    reports = check_model_gradients(m, Batch(examples=exs),
                                    visual_map(("img0", "img1")),
                                    max_entries=4)
    failed = [r for r in reports if not r.passed]
    assert not failed, "\n".join(str(r) for r in failed)


def test_static_variant_gradcheck():
    m = tiny_model(variant="static")
    reports = check_model_gradients(m, Batch(examples=[example()]),
                                    visual_map(), max_entries=4)
    failed = [r for r in reports if not r.passed]
    assert not failed, "\n".join(str(r) for r in failed)


# ---------------------------------------------------------------------------
# positions and checkpoints
# ---------------------------------------------------------------------------

def test_sinusoidal_positions_first_row_and_range():
    pe = sinusoidal_positions(10, 16)
    np.testing.assert_allclose(pe[0, 0::2], 0.0, atol=1e-7)
    np.testing.assert_allclose(pe[0, 1::2], 1.0, atol=1e-7)
    assert np.abs(pe).max() <= 1.0 + 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_position_table_slices_equal_direct_encodings(dtype):
    model = MultimodalTranslator(tiny_config(d_model=33, n_heads=3),
                                 seed=0).astype(dtype)
    # (start, n) pairs asked in this order: within the table, past its end
    # (it grows), then back inside the grown table
    for start, n in [(0, 3), (1, 2), (2, 1), (3, 10), (0, 5), (12, 1),
                     (30, 7), (5, 40), (0, 1)]:
        rows = model._position_rows(start, n)
        assert rows.dtype == dtype
        assert np.array_equal(rows, sinusoidal_positions(n, 33, dtype, start))
    assert len(model._position_rows(0, 0)) == 0


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    m = tiny_model()
    path = tmp_path / "model.lvpm"
    save_checkpoint(path, m)
    loaded, state = load_checkpoint(path)
    assert state is None
    assert loaded.config == m.config
    for name, p in m.params.items():
        assert np.array_equal(loaded.params[name].data, p.data), name


def test_checkpoint_with_optimizer_state_roundtrip(tmp_path):
    m = tiny_model()
    state = {
        "step": 17, "seed": 99, "config": {"lr_peak": 1e-4},
        "m": {k: np.full(p.shape, 0.25, np.float32) for k, p in m.params.items()},
        "v": {k: np.full(p.shape, 0.5, np.float32) for k, p in m.params.items()},
    }
    path = tmp_path / "model.lvpm"
    save_checkpoint(path, m, state)
    _, loaded_state = load_checkpoint(path)
    assert loaded_state["step"] == 17 and loaded_state["seed"] == 99
    assert loaded_state["config"] == {"lr_peak": 1e-4}
    for k in m.params:
        assert np.array_equal(loaded_state["m"][k], state["m"][k])
        assert np.array_equal(loaded_state["v"][k], state["v"][k])


@pytest.mark.parametrize("edit, message", [
    (lambda params: params.pop("embedding"),
     "parameter names do not match checkpoint (missing ['embedding'], "
     "extra [])"),
    (lambda params: params.update(extra=ad.Tensor(np.zeros(2, np.float32))),
     "parameter names do not match checkpoint (missing [], extra "
     "['extra'])"),
    (lambda params: params.update(
        embedding=ad.Tensor(np.zeros((3, 3), np.float32))),
     "shape mismatch for embedding: checkpoint (3, 3) vs model (24, 16)"),
], ids=["missing", "extra", "shape"])
def test_load_checkpoint_rejects_mismatches(tmp_path, edit, message):
    m = tiny_model()
    edit(m.params)
    path = tmp_path / "model.lvpm"
    save_checkpoint(path, m)
    with pytest.raises(ConfigError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"{path}: {message}"


def reference_load(path):
    """The parameters and, if stored, the Adam moments of an LVPM file as
    ``(name, array)`` pairs in file order (moments named ``m.<name>`` and
    ``v.<name>``), read with ``struct`` and ``np.frombuffer`` alone."""
    blob = Path(path).read_bytes()
    at = 8                                        # magic, version

    def unpack(fmt):
        nonlocal at
        values = struct.unpack_from(fmt, blob, at)
        at += struct.calcsize(fmt)
        return values

    def floats(shape):
        nonlocal at
        n = math.prod(shape)
        array = np.frombuffer(blob, "<f4", n, at).reshape(shape)
        at += 4 * n
        return array

    (n,) = unpack("<I")
    at += n                                       # config JSON
    params = []
    for _ in range(unpack("<I")[0]):
        (n,) = unpack("<H")
        name = blob[at:at + n].decode("utf-8")
        at += n
        (ndim,) = unpack("<B")
        params.append((name, floats(unpack(f"<{ndim}I"))))
    moments = []
    if unpack("<B")[0]:
        unpack("<QQ")                             # step, seed
        (n,) = unpack("<I")
        at += n                                   # trainer config JSON
        moments = [(f"{section}.{name}", floats(p.shape))
                   for section in "mv" for name, p in params]
    assert at == len(blob)
    return params, moments


def checkpoint_with_moments(path):
    """The frozen model saved with seeded random Adam moments."""
    model, _ = load_checkpoint(FROZEN / "model.lvpm")
    rng = np.random.default_rng(0)
    state = {"step": 7, "seed": 3, "config": {"lr_peak": 1e-4},
             **{section: {name: rng.random(p.shape, np.float32)
                          for name, p in model.params.items()}
                for section in "mv"}}
    save_checkpoint(path, model, state)
    return path


@pytest.fixture(params=["frozen", "with_moments"])
def stored_checkpoint(request, tmp_path):
    if request.param == "frozen":
        return FROZEN / "model.lvpm"
    return checkpoint_with_moments(tmp_path / "model.lvpm")


def test_load_checkpoint_matches_reference_reader(stored_checkpoint):
    want_params, want_moments = reference_load(stored_checkpoint)
    model, state = load_checkpoint(stored_checkpoint)
    got_params = [(name, p.data) for name, p in model.params.items()]
    got_moments = [] if state is None else [
        (f"{section}.{name}", state[section][name])
        for section in "mv" for name in state[section]]
    assert len(want_moments) == (0 if state is None else 2 * len(want_params))
    got, want = got_params + got_moments, want_params + want_moments
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, a), (_, b) in zip(got, want):
        assert a.dtype == np.float32 and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
        flags = a.flags
        assert (flags.c_contiguous and flags.aligned and flags.writeable
                and flags.owndata), name
    # no two arrays share memory: by address, each ends before the next
    spans = sorted((a.ctypes.data, a.ctypes.data + a.nbytes) for _, a in got)
    assert all(end <= start for (_, end), (start, _) in zip(spans,
                                                             spans[1:]))


def test_load_checkpoint_peak_memory(stored_checkpoint):
    # the file's bytes plus one copy of every array, and a little more
    load_checkpoint(stored_checkpoint)            # warm-up: imports, caches
    tracemalloc.start()
    try:
        load_checkpoint(stored_checkpoint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = peak / stored_checkpoint.stat().st_size
    assert ratio <= 2.2, f"load peak {ratio:.2f}x the file size"
