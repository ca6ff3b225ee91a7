"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight fixtures
(one overfit run per variant) are session-scoped and shared across
criteria; the whole suite targets a single CPU core.
"""

import math
import time

import numpy as np
import pytest

import promptmt.autodiff as ad
from promptmt.autodiff import log_softmax
from promptmt.checks import full_model_reports, primitive_reports
from promptmt.cli import main as cli_main
from promptmt.decoding import beam_search
from promptmt.errors import ConfigError
from promptmt.evaluate import bleu4, evaluate, mask_sweep, write_sweep_csv
from promptmt.model import (ModelConfig, MultimodalTranslator,
                            load_checkpoint, save_checkpoint)
from promptmt.text import (BOS_ID, EOS_ID, RESERVED_TOKENS, Vocabulary,
                           load_manifest, load_parallel_examples, tag_token)
from promptmt.toydata import make_toy_corpus, train_toy_vocab
from promptmt.train import TrainConfig, TrainState, adam_step, lr_schedule, train_loop
from promptmt.vision import (VisualTokens, pseudo_visual_tokens, read_vtok,
                             write_vtok)

DIRECTIONS = ("en-de", "en-fr", "en-cs")


def ok(criterion: str, detail: str):
    print(f"\nPASS {criterion}: {detail}")


# ---------------------------------------------------------------------------
# shared overfit fixtures (criteria 2, 3, 6)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    manifest_path = make_toy_corpus(root, n_lines=32,
                                    target_langs=("de", "fr", "cs"),
                                    seed=0, m_v=4, d_v=32, n_images=8)
    manifest = load_manifest(manifest_path)
    vocab = train_toy_vocab(root, manifest.languages)
    examples = load_parallel_examples(manifest, vocab, pivot="en")
    visual = read_vtok(manifest.vtok_path)
    return {"root": root, "manifest": manifest, "vocab": vocab,
            "examples": examples, "visual": visual}


def _train_variant(ws, variant):
    # d_model 64, 2+2 layers, 4 heads per the desk-scale recipe; smoothing
    # and dropout off so the loss floor is zero and 500 steps suffice
    config = ModelConfig(vocab_size=len(ws["vocab"]), d_model=64, n_heads=4,
                         n_enc_layers=2, n_dec_layers=2, d_v=32,
                         variant=variant, dropout=0.0, eps_ls=0.0)
    model = MultimodalTranslator(config, seed=5)
    tcfg = TrainConfig(lr_peak=2e-3, lr_init=1e-7, warmup_steps=30,
                       epochs=300, max_tokens=512, seed=5)
    state = TrainState.fresh(model, tcfg)
    t0 = time.perf_counter()
    rows = train_loop(model, ws["examples"], ws["visual"], state,
                      stop_loss=0.01, max_steps=900)
    seconds = time.perf_counter() - t0
    return {"model": model, "rows": rows, "seconds": seconds}


@pytest.fixture(scope="session")
def trained_full(workspace):
    return _train_variant(workspace, "full")


@pytest.fixture(scope="session")
def trained_static(workspace):
    return _train_variant(workspace, "static")


@pytest.fixture(scope="session")
def full_bleus(workspace, trained_full):
    t0 = time.perf_counter()
    scores = {d: evaluate(trained_full["model"], workspace["vocab"],
                          workspace["manifest"], d, beam=5).bleu
              for d in DIRECTIONS}
    trained_full["eval_seconds"] = time.perf_counter() - t0
    return scores


@pytest.fixture(scope="session")
def static_bleus(workspace, trained_static):
    return {d: evaluate(trained_static["model"], workspace["vocab"],
                        workspace["manifest"], d, beam=5).bleu
            for d in DIRECTIONS}


# ---------------------------------------------------------------------------
# 1. gradient integrity
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    reports = primitive_reports() + full_model_reports()
    seconds = time.perf_counter() - t0
    failed = [r for r in reports if not r.passed]
    assert not failed, "\n".join(str(r) for r in failed)
    worst = max(r.max_rel_err for r in reports)
    assert worst < 1e-3
    assert seconds < 60, f"gradcheck took {seconds:.1f}s"
    assert cli_main(["gradcheck", "--full-model"]) == 0
    ok("criterion 1 (gradient integrity)",
       f"{len(reports)} checks, worst rel err {worst:.2e}, {seconds:.1f}s")


# ---------------------------------------------------------------------------
# 2. overfit oracle
# ---------------------------------------------------------------------------

def test_criterion_2_overfit_oracle(workspace, trained_full, full_bleus):
    rows = trained_full["rows"]
    per_epoch = 16  # 96 direction-example pairs under the 512-token budget
    crossed = None
    for i in range(per_epoch - 1, len(rows)):
        window = [r.loss for r in rows[i - per_epoch + 1:i + 1]]
        if sum(window) / len(window) < 0.1:
            crossed = rows[i].step
            break
    assert crossed is not None and crossed <= 500, \
        f"loss < 0.1 first reached at step {crossed}"
    for direction, bleu in full_bleus.items():
        assert bleu > 95, f"{direction}: BLEU {bleu:.2f}"
    total = trained_full["seconds"] + trained_full["eval_seconds"]
    assert total < 300, f"overfit + evaluation took {total:.0f}s"
    ok("criterion 2 (overfit oracle)",
       f"loss<0.1 at step {crossed}, BLEU "
       + ", ".join(f"{d}={b:.1f}" for d, b in full_bleus.items())
       + f", {total:.0f}s")


# ---------------------------------------------------------------------------
# 3. language-conditioned prompts vs static mapping
# ---------------------------------------------------------------------------

def test_criterion_3_prompt_conditioning(workspace, trained_full,
                                         trained_static, full_bleus,
                                         static_bleus):
    vocab = workspace["vocab"]
    full = trained_full["model"]
    # weight rows and bias row of each generated mapping
    theta_de = full.controller_forward(vocab.tag_id("de"))
    theta_fr = full.controller_forward(vocab.tag_id("fr"))
    diff = np.abs(theta_de.data - theta_fr.data).max()
    assert diff > 1e-6

    static = trained_static["model"]
    image = next(iter(workspace["visual"].values()))
    prompts = [static.visual_prompt(image, vocab.tag_id(l)).data
               for l in ("de", "fr", "cs")]
    assert all(np.array_equal(prompts[0], p) for p in prompts[1:])

    full_mean = np.mean(list(full_bleus.values()))
    static_mean = np.mean(list(static_bleus.values()))
    assert full_mean >= static_mean, \
        f"full {full_mean:.2f} < static {static_mean:.2f}"
    ok("criterion 3 (prompt conditioning)",
       f"theta diff {diff:.3f}, static prompts bitwise equal, "
       f"BLEU full {full_mean:.2f} >= static {static_mean:.2f}")


# ---------------------------------------------------------------------------
# 4. beam-search oracle
# ---------------------------------------------------------------------------

def test_criterion_4_beam_search_oracle():
    tokens = RESERVED_TOKENS + [tag_token("de"), "a", "b"]
    vocab = Vocabulary(tokens=tokens, languages=["de"])
    source = [5, BOS_ID, 6, 7, EOS_ID]
    max_len = 4

    def enumerate_best(model):
        with ad.no_grad():
            memory, mask = model.prepare_source(source, None)
            best = {}

            def recurse(prefix, lp, depth):
                logprobs = log_softmax(
                    model.decode(memory, prefix, mask).data[-1])
                cand_tokens = prefix + [EOS_ID]
                total = lp + float(logprobs[EOS_ID])
                key = (-total / (len(cand_tokens) - 1), cand_tokens)
                if not best or key < best["key"]:
                    best.update(key=key, tokens=cand_tokens)
                if depth < max_len - 1:
                    for tok in range(8):
                        if tok != EOS_ID:
                            recurse(prefix + [tok],
                                    lp + float(logprobs[tok]), depth + 1)

            recurse([BOS_ID], 0.0, 0)
            return best["tokens"]

    for seed in range(20):
        config = ModelConfig(vocab_size=8, d_model=8, n_heads=2,
                             n_enc_layers=1, n_dec_layers=1, d_v=0,
                             variant="text_only", dropout=0.0, eps_ls=0.1)
        model = MultimodalTranslator(config, seed=seed)
        expected = enumerate_best(model)
        hyp = beam_search(model, vocab, source, "de", beam=4096,
                          max_len=max_len, alpha=1.0)
        assert hyp.tokens == expected, f"seed {seed}"
    ok("criterion 4 (beam-search oracle)",
       "beam 4096 == exhaustive argmax on 20 random models")


# ---------------------------------------------------------------------------
# 5. BLEU oracle
# ---------------------------------------------------------------------------

def test_criterion_5_bleu_oracle():
    def toks(*sentences):
        return [s.split() for s in sentences]

    # corpus A: hand-counted clipped n-grams -> precisions 9/11, 6/9, 4/7,
    # 2/5 with c=11, r=12
    hyps_a = toks("the cat sat on the mat", "a quick brown fox jumps")
    refs_a = toks("the cat sat on a mat", "the quick brown fox jumps high")
    expected_a = 100.0 * math.exp(1 - 12 / 11) * (
        (9 / 11) * (6 / 9) * (4 / 7) * (2 / 5)) ** 0.25
    assert bleu4(hyps_a, refs_a) == pytest.approx(expected_a, abs=1e-6)

    # corpus B: equal lengths, precisions 4/5, 3/4, 2/3, 1/2, bp = 1
    expected_b = 100.0 * (0.8 * 0.75 * (2 / 3) * 0.5) ** 0.25
    assert bleu4(toks("a b c d e"), toks("a b c d f")) == \
        pytest.approx(expected_b, abs=1e-6)

    # corpus C: perfect precisions, brevity penalty exp(1 - 5/4)
    expected_c = 100.0 * math.exp(1 - 5 / 4)
    assert bleu4(toks("x y z w"), toks("x y z w v")) == \
        pytest.approx(expected_c, abs=1e-6)

    identical = toks("one two three four five", "six seven eight nine ten")
    assert bleu4(identical, identical) == pytest.approx(100.0, abs=1e-9)
    assert bleu4(toks("a b c d e"), toks("a b c x d e")) == 0.0
    ok("criterion 5 (BLEU oracle)",
       f"hand values {expected_a:.4f}/{expected_b:.4f}/{expected_c:.4f}, "
       "self-eval 100, disjoint 0")


# ---------------------------------------------------------------------------
# 6. masking trend
# ---------------------------------------------------------------------------

def test_criterion_6_masking_trend(workspace, trained_full, tmp_path):
    ratios = [0.0, 0.2, 0.4, 0.6, 0.8]
    _, summary = mask_sweep(trained_full["model"], workspace["vocab"],
                            workspace["manifest"], "en-de", ratios=ratios,
                            seeds=[1, 2, 3], beam=5)
    csv_path = tmp_path / "mask_sweep.csv"
    write_sweep_csv(csv_path, summary)
    assert csv_path.exists()
    by_ratio = {row["ratio"]: row["mean_bleu"] for row in summary}
    assert by_ratio[0.0] >= by_ratio[0.8]
    ok("criterion 6 (masking trend)",
       " -> ".join(f"{r}:{by_ratio[r]:.1f}" for r in ratios))


# ---------------------------------------------------------------------------
# 7. schedule and optimizer closed forms
# ---------------------------------------------------------------------------

def test_criterion_7_schedule_and_optimizer():
    cfg = TrainConfig()  # published defaults
    assert abs(lr_schedule(1, cfg) - 1e-7) < 5e-8
    assert lr_schedule(2000, cfg) == pytest.approx(1e-4, abs=1e-12)
    assert lr_schedule(8000, cfg) == pytest.approx(5e-5, rel=1e-9)

    params = {"w": ad.Tensor(np.array([1.0], dtype=np.float32),
                             requires_grad=True)}
    g = -0.2
    params["w"].grad = np.array([g], dtype=np.float32)
    state = TrainState(config=cfg, step=1,
                       m={"w": np.zeros(1, np.float32)},
                       v={"w": np.zeros(1, np.float32)})
    adam_step(params, state, lr=1e-3)
    expected = 1.0 - 1e-3 * g / (abs(g) + cfg.adam_eps)
    assert params["w"].data[0] == pytest.approx(expected, abs=1e-6)
    ok("criterion 7 (schedule and optimizer)",
       "lr(1)=1e-7, lr(2000)=1e-4, lr(8000)=5e-5, Adam first step exact")


# ---------------------------------------------------------------------------
# 8. format round-trips
# ---------------------------------------------------------------------------

def test_criterion_8_format_roundtrips(tmp_path, workspace, trained_full):
    rng = np.random.Generator(np.random.PCG64(0))
    records = [VisualTokens(f"id{i}",
                            rng.standard_normal((4, 32)).astype(np.float32))
               for i in range(5)]
    vtok_path = tmp_path / "rt.vtok"
    write_vtok(records, vtok_path)
    loaded = read_vtok(vtok_path)
    for rec in records:
        assert np.array_equal(loaded[rec.image_id].tokens, rec.tokens)

    model = trained_full["model"]
    ckpt_path = tmp_path / "rt.lvpm"
    state = TrainState.fresh(model, TrainConfig())
    state.m = {k: rng.standard_normal(p.shape).astype(np.float32)
               for k, p in model.params.items()}
    save_checkpoint(ckpt_path, model, state.to_checkpoint_dict())
    reloaded, ck = load_checkpoint(ckpt_path)
    for name, p in model.params.items():
        assert np.array_equal(reloaded.params[name].data, p.data)
        assert np.array_equal(ck["m"][name], state.m[name])

    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "t.en").write_text("a\nb\n", encoding="utf-8")
    (broken / "t.de").write_text("x\n", encoding="utf-8")
    (broken / "m.json").write_text(
        '{"split": "t", "languages": ["en", "de"], '
        '"text_paths": {"en": "t.en", "de": "t.de"}}', encoding="utf-8")
    with pytest.raises(ConfigError, match="misaligned"):
        load_manifest(broken / "m.json")
    ok("criterion 8 (format round-trips)",
       "VTOK and checkpoint bit-exact, misaligned manifest rejected")


# ---------------------------------------------------------------------------
# 9. variant matrix
# ---------------------------------------------------------------------------

def test_criterion_9_variant_matrix(workspace):
    vocab = workspace["vocab"]
    manifest = workspace["manifest"]
    visual = workspace["visual"]
    examples = workspace["examples"][:4]
    decoded = {}
    for variant in ("full", "no_lvpg", "static", "text_only"):
        config = ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=2,
                             n_enc_layers=1, n_dec_layers=1,
                             d_v=0 if variant == "text_only" else 32,
                             variant=variant, dropout=0.1, eps_ls=0.1)
        model = MultimodalTranslator(config, seed=4)
        tcfg = TrainConfig(lr_peak=1e-3, warmup_steps=5, epochs=1,
                           max_tokens=512, seed=4)
        state = TrainState.fresh(model, tcfg)
        rows = train_loop(model, examples,
                          None if variant == "text_only" else visual,
                          state, max_steps=1)
        assert len(rows) == 1 and np.isfinite(rows[0].loss)
        ex = examples[0]
        hyp = beam_search(model, vocab, ex.source_ids, ex.target_lang,
                          None if variant == "text_only"
                          else visual[ex.image_id], beam=2, max_len=8)
        assert hyp.tokens[-1] == EOS_ID
        decoded[variant] = len(hyp.tokens)
    ok("criterion 9 (variant matrix)",
       "all four variants trained one step and decoded: "
       + ", ".join(f"{v}({n} toks)" for v, n in decoded.items()))
