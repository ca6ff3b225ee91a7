"""Tests for the learning-rate schedule, Adam, and the training loop:
closed-form anchor values, determinism, and checkpoint resume."""

from dataclasses import replace

import numpy as np
import pytest

import promptmt.autodiff as ad
from promptmt.errors import ConfigError, NumericError
from promptmt.files import config_from_dict
from promptmt.model import (ModelConfig, MultimodalTranslator,
                            load_checkpoint, save_checkpoint)
from promptmt.text import BOS_ID, EOS_ID, ParallelExample, make_batches
from promptmt.train import (TrainConfig, TrainState, adam_step, lr_schedule,
                            train_loop)
from promptmt.vision import pseudo_visual_tokens

CFG = TrainConfig()


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_lr_step_one_is_warm_start():
    assert abs(lr_schedule(1, CFG) - 1e-7) < 1e-12


def test_lr_peak_at_warmup_end():
    assert lr_schedule(2000, CFG) == pytest.approx(1e-4, abs=1e-12)


def test_lr_inverse_sqrt_closed_form():
    assert lr_schedule(8000, CFG) == pytest.approx(5e-5, rel=1e-9)


def test_lr_continuous_at_warmup_boundary():
    lo = lr_schedule(2000, CFG)
    hi = lr_schedule(2001, CFG)
    assert abs(hi - lo) < 1e-7
    assert hi == pytest.approx(1e-4 * np.sqrt(2000 / 2001), rel=1e-9)


def test_lr_monotone_warmup_then_decay():
    values = [lr_schedule(s, CFG) for s in range(1, 2001)]
    assert all(a < b for a, b in zip(values, values[1:]))
    tail = [lr_schedule(s, CFG) for s in range(2000, 4000)]
    assert all(a >= b for a, b in zip(tail, tail[1:]))


def test_lr_one_warmup_step_starts_at_peak():
    cfg = TrainConfig(warmup_steps=1)
    assert lr_schedule(1, cfg) == cfg.lr_peak
    assert lr_schedule(4, cfg) == cfg.lr_peak * np.sqrt(1 / 4)


def test_lr_requires_positive_step():
    with pytest.raises(ValueError):
        lr_schedule(0, CFG)


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

def scalar_param(value=1.0):
    return {"w": ad.Tensor(np.array([value], dtype=np.float32),
                           requires_grad=True)}


def test_train_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        config_from_dict(TrainConfig, {"epoch": 3, "max_tokens": 64})
    assert "TrainConfig" in str(err.value) and "'epoch'" in str(err.value)


@pytest.mark.parametrize("key, value", [
    ("epochs", "3"), ("max_tokens", 64.0), ("seed", False),
    ("lr_peak", "1e-3"), ("grad_clip", "1"),
])
def test_train_config_from_dict_names_field_of_wrong_type(key, value):
    with pytest.raises(ConfigError) as err:
        config_from_dict(TrainConfig, {key: value}, prefix="train.")
    assert f"'train.{key}'" in str(err.value)


def test_train_config_from_dict_accepts_int_float_and_none():
    cfg = config_from_dict(TrainConfig, {"lr_peak": 1, "grad_clip": None})
    assert (cfg.lr_peak, cfg.grad_clip) == (1, None)


@pytest.mark.parametrize("key, value", [
    ("max_tokens", 0), ("warmup_steps", -1), ("warmup_steps", 0),
    ("lr_peak", float("nan")),
    ("lr_peak", 0.0), ("lr_init", -1e-7), ("lr_init", float("inf")),
    ("epochs", 0), ("beta1", 1.0), ("beta2", -0.1), ("adam_eps", 0.0),
    ("seed", -1), ("grad_clip", 0.0), ("grad_clip", float("nan")),
])
def test_train_config_names_field_out_of_range(key, value):
    with pytest.raises(ConfigError, match=key):
        TrainConfig(**{key: value})


def test_adam_first_step_closed_form():
    # with zero-initialized moments, the bias-corrected first update is
    # exactly -lr * g / (|g| + eps)
    params = scalar_param(1.0)
    g = 0.37
    params["w"].grad = np.array([g], dtype=np.float32)
    state = TrainState(config=CFG, step=1,
                       m={"w": np.zeros(1, np.float32)},
                       v={"w": np.zeros(1, np.float32)})
    adam_step(params, state, lr=1e-3)
    expected = 1.0 - 1e-3 * g / (abs(g) + CFG.adam_eps)
    assert params["w"].data[0] == pytest.approx(expected, abs=1e-6)
    # and the update magnitude is ~ lr * sign(g)
    assert 1.0 - params["w"].data[0] == pytest.approx(1e-3, rel=1e-4)


def test_adam_zero_gradient_keeps_parameters():
    params = scalar_param(2.5)
    params["w"].grad = np.zeros(1, dtype=np.float32)
    state = TrainState(config=CFG, step=1,
                       m={"w": np.zeros(1, np.float32)},
                       v={"w": np.zeros(1, np.float32)})
    adam_step(params, state, lr=1e-3)
    assert params["w"].data[0] == 2.5


def test_adam_rejects_nonfinite_gradient():
    params = scalar_param()
    params["w"].grad = np.array([np.nan], dtype=np.float32)
    state = TrainState(config=CFG, step=1,
                       m={"w": np.zeros(1, np.float32)},
                       v={"w": np.zeros(1, np.float32)})
    with pytest.raises(NumericError, match="'w'"):
        adam_step(params, state, lr=1e-3)


def reference_adam_step(params, state, lr):
    """``adam_step`` as it was before it updated in place: every
    expression allocates, and the moments are rebound, not written."""
    t = state.step
    b1, b2, eps = state.config.beta1, state.config.beta2, state.config.adam_eps
    clip = state.config.grad_clip
    if clip is not None:
        total = 0.0
        for p in params.values():
            if p.grad is not None:
                total += float((p.grad.astype(np.float64) ** 2).sum())
        norm = np.sqrt(total)
        clip_factor = min(1.0, clip / (norm + 1e-12))
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in parameter {name!r} "
                               f"at step {t}")
        g = g.astype(np.float32, copy=False)
        if clip is not None:
            g = g * np.float32(clip_factor)
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = state.m[name] / (1 - b1 ** t)
        v_hat = state.v[name] / (1 - b2 ** t)
        p.data -= np.float32(lr) * m_hat / (np.sqrt(v_hat) + np.float32(eps))
        if not np.isfinite(p.data).all():
            raise NumericError(f"non-finite parameter {name!r} after step {t}")


ADAM_SHAPES = {"w": (7, 5), "b": (5,), "heads": (2, 3, 4), "unused": (4, 3),
               "double": (3, 3)}


def adam_setup(grad_clip):
    rng = np.random.Generator(np.random.PCG64(31))
    params = {}
    for name, shape in ADAM_SHAPES.items():
        dtype = np.float64 if name == "double" else np.float32
        params[name] = ad.Tensor(rng.standard_normal(shape), dtype=dtype,
                                 requires_grad=True)
    cfg = TrainConfig(grad_clip=grad_clip)
    return params, TrainState(
        config=cfg, step=0,
        m={n: np.zeros(s, np.float32) for n, s in ADAM_SHAPES.items()},
        v={n: np.zeros(s, np.float32) for n, s in ADAM_SHAPES.items()})


def bits(a):
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("grad_clip", [None, 0.5, 1e6])
def test_inplace_adam_bitwise_equals_reference(grad_clip):
    # six steps of random gradients (some entries exactly zero, scales
    # from 1e-6 to 1e3); "unused" has a gradient only at step 1, after
    # which its moments decay; "double" is a float64 parameter with
    # float64 grads
    got, want = adam_setup(grad_clip), adam_setup(grad_clip)
    rng = np.random.Generator(np.random.PCG64(32))
    for step in range(1, 7):
        grads = {}
        for name, shape in ADAM_SHAPES.items():
            if name == "unused" and step > 1:
                continue
            g = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 4)
            g[rng.random(shape) < 0.2] = 0.0
            grads[name] = g.astype(got[0][name].data.dtype)
        lr = lr_schedule(step, TrainConfig(warmup_steps=3, lr_peak=1e-2))
        for params, state in (got, want):
            for name, p in params.items():
                p.grad = grads[name].copy() if name in grads else None
            state.step = step
        m_before = dict(got[1].m)
        adam_step(got[0], got[1], lr)
        reference_adam_step(want[0], want[1], lr)
        for name in ADAM_SHAPES:
            assert bits(got[0][name].data) == bits(want[0][name].data), name
            assert bits(got[1].m[name]) == bits(want[1].m[name]), name
            assert bits(got[1].v[name]) == bits(want[1].v[name]), name
            # in place: the moment arrays are the same objects
            assert got[1].m[name] is m_before[name]
            if name in grads:
                # the gradient is only read
                assert bits(got[0][name].grad) == bits(grads[name])


def test_adam_gradient_check_messages_unchanged():
    params, state = adam_setup(None)
    state.step = 1
    params["w"].grad = np.zeros((7, 5), np.float32)
    params["w"].data[0, 0] = np.inf
    with pytest.raises(NumericError,
                       match="non-finite parameter 'w' after step 1"):
        adam_step(params, state, lr=1e-3)
    params, state = adam_setup(None)
    state.step = 4
    params["b"].grad = np.array([0, 0, np.inf, 0, 0], np.float32)
    with pytest.raises(NumericError, match="non-finite gradient in "
                                           "parameter 'b' at step 4"):
        adam_step(params, state, lr=1e-3)


def test_state_from_checkpoint_dict_takes_over_loaded_moments(tmp_path):
    # load_checkpoint returns arrays nothing else holds: resuming copies
    # none of them again
    model, _, _, tcfg = toy_setup()
    save_checkpoint(tmp_path / "ck.lvpm", model,
                    TrainState.fresh(model, tcfg).to_checkpoint_dict())
    _, ck = load_checkpoint(tmp_path / "ck.lvpm")
    resumed = TrainState.from_checkpoint_dict(ck)
    for section in ("m", "v"):
        moments = getattr(resumed, section)
        assert moments.keys() == ck[section].keys() == model.params.keys()
        for name, a in moments.items():
            assert np.shares_memory(a, ck[section][name]), (section, name)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def toy_setup(variant="full", seed=3):
    cfg = ModelConfig(vocab_size=30, d_model=16, n_heads=2, n_enc_layers=1,
                      n_dec_layers=1, d_v=8, variant=variant,
                      dropout=0.1, eps_ls=0.0)
    model = MultimodalTranslator(cfg, seed=seed)
    examples = []
    for i in range(6):
        tag = 5 + i % 2
        examples.append(ParallelExample(
            example_id=f"toy{i}", source_lang="en",
            target_lang="de" if tag == 5 else "fr",
            source_ids=[tag, BOS_ID, 10 + i, 11, EOS_ID],
            target_ids=[BOS_ID, 20 + i, 21, EOS_ID],
            image_id=f"img{i}"))
    visual = {f"img{i}": pseudo_visual_tokens(f"img{i}", 3, 8, seed=0)
              for i in range(6)}
    tcfg = TrainConfig(lr_peak=1e-3, warmup_steps=10, max_tokens=40, seed=7)
    return model, examples, visual, tcfg


def test_loss_trend_decreases_over_first_steps():
    model, examples, visual, tcfg = toy_setup()
    state = TrainState.fresh(model, replace(tcfg, epochs=30))
    rows = train_loop(model, examples, visual, state, max_steps=50)
    assert rows[-1].loss < rows[0].loss


def test_two_runs_same_seed_bitwise_identical():
    def run():
        model, examples, visual, tcfg = toy_setup()
        state = TrainState.fresh(model, replace(tcfg, epochs=4))
        train_loop(model, examples, visual, state)
        return model

    m1, m2 = run(), run()
    for name in m1.params:
        assert np.array_equal(m1.params[name].data, m2.params[name].data), name


def test_resume_reproduces_next_step_loss(tmp_path):
    model, examples, visual, tcfg = toy_setup()
    state = TrainState.fresh(model, replace(tcfg, epochs=2))
    train_loop(model, examples, visual, state, out_dir=tmp_path / "run")

    # continue the original in memory
    state.config.epochs = 3
    rows_direct = train_loop(model, examples, visual, state)

    # resume from the epoch-2 checkpoint
    resumed, ck_state = load_checkpoint(tmp_path / "run" / "checkpoint_last.lvpm")
    rstate = TrainState.from_checkpoint_dict(ck_state)
    rstate.config.epochs = 3
    rows_resumed = train_loop(resumed, examples, visual, rstate)

    assert rows_direct[0].step == rows_resumed[0].step
    assert rows_direct[0].loss == pytest.approx(rows_resumed[0].loss, abs=0)
    for name in model.params:
        assert np.array_equal(model.params[name].data,
                              resumed.params[name].data), name


def test_static_and_no_lvpg_compute_one_function():
    # both variants draw one affine prompt map at the same point of the
    # init order and run the same graph; only the parameter names differ
    static, examples, visual, tcfg = toy_setup(variant="static")
    no_lvpg, _, _, _ = toy_setup(variant="no_lvpg")
    renamed = {n.replace("static.", "visproj.", 1): n for n in static.params}
    assert renamed.keys() == no_lvpg.params.keys()

    vts = [visual[ex.image_id] for ex in examples]
    tags = [ex.source_ids[0] for ex in examples]
    assert np.array_equal(static.visual_prompt(vts, tags).data,
                          no_lvpg.visual_prompt(vts, tags).data)
    batch = make_batches(examples, tcfg.max_tokens)[0]
    vts = [visual[ex.image_id] for ex in batch.examples]
    (s_mem, s_mask), (n_mem, n_mask) = (
        m.prepare_source(batch.padded("source"), vts)
        for m in (static, no_lvpg))
    assert np.array_equal(s_mem.data, n_mem.data)
    assert np.array_equal(s_mask, n_mask)

    rows = [train_loop(m, examples, visual,
                       TrainState.fresh(m, replace(tcfg, epochs=16)))
            for m in (static, no_lvpg)]
    assert len(rows[0]) == 16
    assert [r.loss for r in rows[0]] == [r.loss for r in rows[1]]
    for name, old in renamed.items():
        assert np.array_equal(no_lvpg.params[name].data,
                              static.params[old].data), name


def test_text_only_trains_without_vtok():
    model, examples, _, tcfg = toy_setup(variant="text_only")
    model.config.d_v = 0
    state = TrainState.fresh(model, replace(tcfg, epochs=1))
    rows = train_loop(model, examples, None, state)
    assert len(rows) >= 1 and np.isfinite(rows[-1].loss)


def test_train_loop_over_no_examples_moves_nothing(tmp_path):
    # refused: this once returned no rows and saved the untrained model as
    # every epoch's checkpoint
    model, _, visual, tcfg = toy_setup()
    before = {name: p.data.copy() for name, p in model.params.items()}
    state = TrainState.fresh(model, replace(tcfg, epochs=2))
    assert make_batches([], tcfg.max_tokens) == []
    with pytest.raises(ConfigError) as err:
        train_loop(model, [], visual, state, out_dir=tmp_path / "run")
    assert str(err.value) == "no examples to train on"
    assert state.step == 0 and not (tmp_path / "run").exists()
    for name, p in model.params.items():
        assert np.array_equal(p.data, before[name]), name


def test_metrics_csv_written(tmp_path):
    model, examples, visual, tcfg = toy_setup()
    state = TrainState.fresh(model, replace(tcfg, epochs=1))
    train_loop(model, examples, visual, state, out_dir=tmp_path / "run")
    lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    assert lines[0] == "step,epoch,lr,loss,tokens_per_sec"
    assert len(lines) >= 2


def test_checkpoint_moments_roundtrip_bit_exact(tmp_path):
    model, examples, visual, tcfg = toy_setup()
    state = TrainState.fresh(model, replace(tcfg, epochs=1))
    train_loop(model, examples, visual, state)
    path = tmp_path / "ck.lvpm"
    save_checkpoint(path, model, state.to_checkpoint_dict())
    _, loaded = load_checkpoint(path)
    for name in model.params:
        assert np.array_equal(loaded["m"][name], state.m[name])
        assert np.array_equal(loaded["v"][name], state.v[name])


def test_early_stop_writes_final_checkpoint(tmp_path):
    # max_steps fires mid-epoch: the last checkpoint must hold the model
    # the loop returns, not the state of the last completed epoch
    model, examples, visual, tcfg = toy_setup()
    state = TrainState.fresh(model, replace(tcfg, epochs=5))
    rows = train_loop(model, examples, visual, state,
                      out_dir=tmp_path / "run", max_steps=3)
    assert rows[-1].step == 3
    loaded, ck_state = load_checkpoint(tmp_path / "run" / "checkpoint_last.lvpm")
    assert ck_state["step"] == 3
    for name in model.params:
        assert np.array_equal(loaded.params[name].data,
                              model.params[name].data), name


def test_stop_loss_writes_final_checkpoint(tmp_path):
    model, examples, visual, tcfg = toy_setup()
    state = TrainState.fresh(model, replace(tcfg, epochs=50))
    rows = train_loop(model, examples, visual, state,
                      out_dir=tmp_path / "run", stop_loss=1e9)
    _, ck_state = load_checkpoint(tmp_path / "run" / "checkpoint_last.lvpm")
    assert ck_state["step"] == rows[-1].step == state.step


def test_resume_from_mid_epoch_checkpoint(tmp_path):
    def fresh():
        model, examples, visual, tcfg = toy_setup()
        return (model, examples, visual,
                TrainState.fresh(model, replace(tcfg, epochs=3)))

    model, examples, visual, state = fresh()
    rows_direct = train_loop(model, examples, visual, state)

    stopped, examples, visual, sstate = fresh()
    train_loop(stopped, examples, visual, sstate, out_dir=tmp_path / "run",
               max_steps=3)
    resumed, ck_state = load_checkpoint(tmp_path / "run" / "checkpoint_last.lvpm")
    rstate = TrainState.from_checkpoint_dict(ck_state)
    rows_resumed = train_loop(resumed, examples, visual, rstate)

    assert [r.step for r in rows_resumed] == [r.step for r in rows_direct[3:]]
    assert [r.loss for r in rows_resumed] == [r.loss for r in rows_direct[3:]]
    for name in model.params:
        assert np.array_equal(model.params[name].data,
                              resumed.params[name].data), name
