"""Evaluation pipeline tests on small untrained models: report schemas,
sweep determinism, and error paths (BLEU math itself is in test_bleu)."""

import csv
import dataclasses
import re
import sys
from collections import Counter

import numpy as np
import pytest

from promptmt.errors import ConfigError
from promptmt.evaluate import (EvalReport, evaluate, mask_sweep,
                               parse_direction, write_report_csv,
                               write_sentences_tsv, write_sweep_csv)
from promptmt.model import ModelConfig, MultimodalTranslator
from promptmt.text import load_manifest
from promptmt.toydata import make_toy_corpus, train_toy_vocab


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("evalws")
    manifest_path = make_toy_corpus(root, n_lines=4, target_langs=("de", "fr"),
                                    d_v=8, m_v=2, n_images=2)
    manifest = load_manifest(manifest_path)
    vocab = train_toy_vocab(root, manifest.languages, vocab_size=330)
    return manifest, vocab


def small_model(vocab, variant="full"):
    cfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2,
                      n_enc_layers=1, n_dec_layers=1,
                      d_v=0 if variant == "text_only" else 8,
                      variant=variant, dropout=0.0, eps_ls=0.1)
    return MultimodalTranslator(cfg, seed=2)


def test_parse_direction_forms():
    assert parse_direction("en-de") == ("en", "de")
    assert parse_direction("En-De") == ("en", "de")
    assert parse_direction("en->fr") == ("en", "fr")
    with pytest.raises(ConfigError):
        parse_direction("ende")


def test_report_schema_identical_across_variants(workspace):
    manifest, vocab = workspace
    reports = {}
    for variant in ("full", "text_only"):
        rep = evaluate(small_model(vocab, variant), vocab, manifest, "en-de",
                       beam=2)
        reports[variant] = rep
        assert rep.direction == "en-de"
        assert 0.0 <= rep.bleu <= 100.0
        assert len(rep.sentences) == 4
        for s in rep.sentences:
            assert s.example_id and s.reference
    assert ({f.name for f in type(reports["full"]).__dataclass_fields__.values()}
            == {f.name for f in type(reports["text_only"]).__dataclass_fields__.values()})


def test_evaluate_deterministic(workspace):
    manifest, vocab = workspace
    model = small_model(vocab)
    r1 = evaluate(model, vocab, manifest, "en-de", beam=2)
    r2 = evaluate(model, vocab, manifest, "en-de", beam=2)
    assert r1.bleu == r2.bleu
    assert [s.hypothesis for s in r1.sentences] == \
        [s.hypothesis for s in r2.sentences]


def test_mask_sweep_ratio_zero_matches_plain_evaluate(workspace):
    manifest, vocab = workspace
    model = small_model(vocab)
    plain = evaluate(model, vocab, manifest, "en-de", beam=2)
    reports, summary = mask_sweep(model, vocab, manifest, "en-de",
                                  ratios=[0.0], seeds=[1, 2, 3], beam=2)
    assert summary[0]["mean_bleu"] == plain.bleu
    assert summary[0]["std"] == 0.0
    assert [s.hypothesis for s in reports[0].sentences] == \
        [s.hypothesis for s in plain.sentences]


def test_mask_sweep_loads_the_corpus_once(workspace, monkeypatch):
    manifest, vocab = workspace
    model = small_model(vocab)
    # the package re-exports the function under the module's name
    evaluate_module = sys.modules["promptmt.evaluate"]
    calls = Counter()
    for name in ("encode_lines", "manifest_lines", "manifest_image_ids",
                 "read_vtok", "beam_search"):
        def counted(*args, _name=name, _real=getattr(evaluate_module, name),
                    **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(evaluate_module, name, counted)
    reports, _ = mask_sweep(model, vocab, manifest, "en-de",
                            ratios=[0, 0.4, 0.8], seeds=[1, 2, 3], beam=1)
    assert calls == {"encode_lines": 1, "manifest_lines": 2,
                     "manifest_image_ids": 1, "read_vtok": 1,
                     "beam_search": 28}
    monkeypatch.undo()
    assert len(reports) == 7
    for rep in reports:
        assert rep == evaluate(model, vocab, manifest, "en-de", beam=1,
                               mask_ratio=rep.ratio, mask_seed=rep.seed)


@pytest.mark.parametrize("ratio", [-0.5, 1.5, float("nan")])
def test_evaluate_rejects_invalid_mask_ratio(workspace, ratio):
    # -0.5 and nan used to decode unmasked and report that ratio
    manifest, vocab = workspace
    with pytest.raises(ConfigError, match=re.escape(f"got {ratio}")):
        evaluate(small_model(vocab), vocab, manifest, "en-de", beam=1,
                 mask_ratio=ratio, mask_seed=1)


def test_vtok_table_needed_by_vision_variants_only(workspace):
    manifest, vocab = workspace
    no_vtok = dataclasses.replace(manifest, vtok_path=None)
    with pytest.raises(ConfigError, match="needs a VTOK table"):
        evaluate(small_model(vocab), vocab, no_vtok, "en-de", beam=1)
    model = small_model(vocab, "text_only")
    assert evaluate(model, vocab, no_vtok, "en-de", beam=1) == \
        evaluate(model, vocab, manifest, "en-de", beam=1)


@pytest.mark.parametrize("ratios", [[0.0], [0.5], [0.0, 0.5]])
def test_mask_sweep_rejects_empty_seeds(workspace, ratios):
    # ratio 0 used to raise a bare IndexError (seeds[0]) and a masked ratio
    # to return a nan mean and std with a numpy RuntimeWarning
    manifest, vocab = workspace
    with pytest.raises(ConfigError, match="seeds"):
        mask_sweep(small_model(vocab), vocab, manifest, "en-de",
                   ratios=ratios, seeds=[], beam=2)


def test_mask_sweep_rejects_empty_ratios_before_loading(workspace,
                                                       monkeypatch):
    # loaded the direction and returned two empty lists
    manifest, vocab = workspace
    # _scorer loads the direction; calling it now would raise TypeError
    monkeypatch.setattr(sys.modules["promptmt.evaluate"], "_scorer", None)
    with pytest.raises(ConfigError) as err:
        mask_sweep(small_model(vocab), vocab, manifest, "en-de", ratios=[],
                   seeds=[1], beam=1)
    assert str(err.value) == ("mask_sweep: ratios is empty; a sweep over no "
                              "masking ratios has no rows")


@pytest.mark.parametrize("ratios, seeds, twice", [
    ([0.2, 0.2], [1], "ratio 0.2"),
    ([0, 0.0], [1, 2], "ratio 0.0"),
    ([0.5], [3, 1, 3], "seed 3"),
])
def test_mask_sweep_refuses_repeated_ratio_or_seed(workspace, ratios, seeds,
                                                   twice):
    # a repeated seed counted one run twice in the mean and std, and a
    # repeated ratio wrote its row twice
    manifest, vocab = workspace
    with pytest.raises(ConfigError, match=f"^mask_sweep: {twice} given "
                                          "twice; its second run would "
                                          "repeat the first$"):
        mask_sweep(small_model(vocab), vocab, manifest, "en-de",
                   ratios=ratios, seeds=seeds, beam=1)


def test_mask_sweep_deterministic_csv(workspace, tmp_path):
    manifest, vocab = workspace
    model = small_model(vocab)
    outs = []
    for run in range(2):
        _, summary = mask_sweep(model, vocab, manifest, "en-de",
                                ratios=[0.0, 0.5], seeds=[1, 2], beam=2)
        path = tmp_path / f"sweep{run}.csv"
        write_sweep_csv(path, summary)
        outs.append(path.read_text())
    assert outs[0] == outs[1]
    header = outs[0].splitlines()[0]
    assert header == "ratio,mean_bleu,std"


def test_masked_sources_shown_in_dump(workspace, tmp_path):
    manifest, vocab = workspace
    model = small_model(vocab)
    rep = evaluate(model, vocab, manifest, "en-de", beam=2, mask_ratio=1.0,
                   mask_seed=3)
    assert all("<mask>" in s.source for s in rep.sentences)
    path = tmp_path / "dump.tsv"
    write_sentences_tsv(path, rep)
    lines = path.read_text().splitlines()
    assert lines[0] == "example_id\tsource\thypothesis\treference"
    assert len(lines) == 5


def test_report_csv_schema(workspace, tmp_path):
    manifest, vocab = workspace
    model = small_model(vocab)
    plain = evaluate(model, vocab, manifest, "en-de", beam=2)
    masked = evaluate(model, vocab, manifest, "en-fr", beam=2,
                      mask_ratio=0.5, mask_seed=9)
    path = tmp_path / "report.csv"
    write_report_csv(path, [plain, masked])
    rows = list(csv.DictReader(path.open()))
    assert rows[0]["direction"] == "en-de" and rows[0]["ratio"] == ""
    assert rows[1]["ratio"] == "0.5" and rows[1]["seed"] == "9"
    assert float(rows[0]["bleu"]) == pytest.approx(plain.bleu, abs=1e-4)


def test_missing_vtok_entries_error(workspace, tmp_path):
    manifest, vocab = workspace
    model = small_model(vocab)
    import shutil

    broken_dir = tmp_path / "broken"
    shutil.copytree(manifest.text_paths["en"].parent, broken_dir)
    from promptmt.vision import VisualTokens, write_vtok
    write_vtok([VisualTokens("unrelated", np.zeros((2, 8), np.float32))],
               broken_dir / "train.vtok")
    broken = load_manifest(broken_dir / "train.json")
    with pytest.raises(ConfigError, match="no visual tokens"):
        evaluate(model, vocab, broken, "en-de", beam=1)


def test_eval_report_rejects_out_of_range_bleu():
    with pytest.raises(ConfigError, match="range"):
        EvalReport(direction="en-de", bleu=101.0, sentences=[])
