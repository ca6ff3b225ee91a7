"""End-to-end CLI tests: every subcommand runs in-process against a tiny
workspace; errors exit nonzero with the offending path in the message."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from promptmt.cli import build_parser, main
from promptmt.decoding import beam_search
from promptmt.model import (ModelConfig, MultimodalTranslator,
                            load_checkpoint, save_checkpoint)
from promptmt.text import (BOS_ID, EOS_ID, Vocabulary, _BYTE_TO_CHAR, decode,
                           encode, load_manifest, prefix_target_token,
                           train_bpe)
from promptmt.toydata import make_toy_corpus, train_toy_vocab
from promptmt.vision import read_vtok

FROZEN = Path(__file__).resolve().parents[1] / "perfbench" / "frozen"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    make_toy_corpus(root, n_lines=4, target_langs=("de", "fr"), d_v=8, m_v=2,
                    n_images=2)
    train_toy_vocab(root, ["en", "de", "fr"], vocab_size=330)
    config = {
        "out_dir": "run",
        "data": {"train_manifest": "train.json", "vocab": "bpe",
                 "pivot": "en"},
        "model": {"d_model": 16, "n_heads": 2, "n_enc_layers": 1,
                  "n_dec_layers": 1, "variant": "full", "dropout": 0.0,
                  "eps_ls": 0.0},
        "train": {"epochs": 2, "max_tokens": 256, "lr_peak": 1e-3,
                  "warmup_steps": 5, "seed": 3},
    }
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--config", str(root / "config.json")]) == 0
    return root


def test_bpe_train_cli(tmp_path):
    corpus = tmp_path / "lines.txt"
    corpus.write_text("the cat sat\nthe dog sat\n" * 4, encoding="utf-8")
    rc = main(["bpe-train", "--corpus", str(corpus), "--vocab-size", "300",
               "--out", str(tmp_path / "bpe"), "--langs", "de,fr"])
    assert rc == 0
    vocab = Vocabulary.load(tmp_path / "bpe")
    # vocab_size caps the vocabulary; merging stops early once no pair
    # reaches min_freq
    assert 263 < len(vocab) <= 300
    assert len(vocab.merges) > 0
    assert vocab.languages == ["de", "fr"]


def test_bpe_train_cli_literal_reserved_text(tmp_path):
    # the corpus spells "<unk>"; learning must not merge it into a second
    # "<unk>" token and crash on the duplicate
    corpus = tmp_path / "lines.txt"
    corpus.write_text("the <unk> sat on the <unk>\n" * 3, encoding="utf-8")
    rc = main(["bpe-train", "--corpus", str(corpus), "--vocab-size", "291",
               "--out", str(tmp_path / "bpe")])
    assert rc == 0
    vocab = Vocabulary.load(tmp_path / "bpe")
    assert vocab.tokens.count("<unk>") == 1
    assert len(vocab.merges) > 0


def test_bpe_train_cli_refuses_duplicate_language(tmp_path, capsys):
    # "de" and "DE" share the tag token "<2de>"
    corpus = tmp_path / "lines.txt"
    corpus.write_text("the cat sat\n", encoding="utf-8")
    rc = main(["bpe-train", "--corpus", str(corpus), "--vocab-size", "300",
               "--out", str(tmp_path / "bpe"), "--langs", "de,DE"])
    assert rc == 1
    assert capsys.readouterr() == (
        "", "error: language 'DE' given twice (as 'de' and 'DE')\n")
    assert not (tmp_path / "bpe.vocab").exists()


def test_make_vtok_cli(tmp_path):
    ids = tmp_path / "ids.txt"
    ids.write_text("a\nb\nc\n", encoding="utf-8")
    out = tmp_path / "features.vtok"
    rc = main(["make-vtok", "--pseudo", "--ids", str(ids), "--mv", "3",
               "--dv", "5", "--seed", "9", "--out", str(out)])
    assert rc == 0
    table = read_vtok(out)
    assert set(table) == {"a", "b", "c"}
    assert table["a"].tokens.shape == (3, 5)


def test_make_vtok_cli_refuses_id_longer_than_its_length(tmp_path, capsys):
    # a VTOK id's byte length is a u16
    ids = tmp_path / "ids.txt"
    ids.write_text("a\n" + "x" * 70000 + "\n", encoding="utf-8")
    out = tmp_path / "features.vtok"
    rc = main(["make-vtok", "--pseudo", "--ids", str(ids), "--mv", "2",
               "--dv", "4", "--out", str(out)])
    assert rc == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("\n") == 1
    assert err.startswith(f"error: {out}: id of record 1 is 70000 UTF-8 "
                          "bytes")
    assert not out.exists()


def test_train_cli_produces_artifacts(workspace):
    run = workspace / "run"
    assert (run / "checkpoint_last.lvpm").exists()
    assert (run / "checkpoint_epoch1.lvpm").exists()
    assert (run / "metrics.csv").exists()
    assert (run / "bpe.vocab").exists()
    rows = list(csv.DictReader((run / "metrics.csv").open()))
    assert int(rows[-1]["step"]) >= 2


def test_train_cli_resume(workspace):
    rc = main(["train", "--config", str(workspace / "config.json"),
               "--resume", str(workspace / "run" / "checkpoint_last.lvpm")])
    assert rc == 0


def test_train_cli_resume_refuses_changed_train_section(workspace,
                                                        tmp_path, capsys):
    # the checkpoint trained at epochs 2; resuming under it would train 0
    # more steps and exit 0, ignoring the file's epochs 3
    config = json.loads((workspace / "config.json").read_text())
    config["train"].update(epochs=3, lr_peak=2e-3)
    config["out_dir"] = str(tmp_path / "run")
    config["data"].update(train_manifest=str(workspace / "train.json"),
                          vocab=str(workspace / "bpe"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    rc = main(["train", "--config", str(path), "--resume",
               str(workspace / "run" / "checkpoint_last.lvpm")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert str(path) in err
    assert "train.lr_peak 0.002 (checkpoint 0.001)" in err
    assert "train.epochs 3 (checkpoint 2)" in err
    assert "seed" not in err
    assert not (tmp_path / "run").exists()


def _resized_vocab(ws, tmp, delta) -> int:
    """Save as ``tmp / "bpe"`` the workspace vocabulary ``-delta`` merges
    shorter, or one learned over its corpus with ``delta`` merges more;
    return the model's size."""
    vocab = Vocabulary.load(ws / "bpe")
    if delta < 0:
        resized = Vocabulary(vocab.tokens[:delta], vocab.languages,
                             vocab.merges[:delta])
    else:
        resized = train_bpe([ws / f"train.{lang}" for lang in vocab.languages],
                            len(vocab) + delta, min_freq=1,
                            languages=vocab.languages)
    assert len(resized) == len(vocab) + delta
    resized.save(tmp / "bpe")
    return len(vocab)


def _with_vocab(ws, tmp, command) -> tuple[list[str], str]:
    """``command`` ("translate", "evaluate" or "resume") run with the
    workspace checkpoint and the vocabulary saved as ``tmp / "bpe"``; and
    what its error message starts with."""
    ckpt = ws / "run" / "checkpoint_last.lvpm"
    if command == "translate":
        return _translate(ws, tmp, ["--vtok", str(ws / "train.vtok"),
                                    "--vocab", str(tmp / "bpe")]), ""
    if command == "evaluate":
        return ["evaluate", "--ckpt", str(ckpt), "--manifest",
                str(ws / "train.json"), "--direction", "en-de", "--out",
                str(tmp / "r.csv"), "--vocab", str(tmp / "bpe")], ""
    config = json.loads((ws / "config.json").read_text())
    config["out_dir"] = str(tmp / "run")
    config["data"].update(train_manifest=str(ws / "train.json"),
                          vocab=str(tmp / "bpe"))
    path = tmp / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return ["train", "--config", str(path), "--resume", str(ckpt)], \
        f"{ckpt}: "


@pytest.mark.parametrize("delta", [-20, 20], ids=["smaller", "larger"])
@pytest.mark.parametrize("command", ["translate", "resume"])
def test_cli_refuses_vocabulary_of_another_size(workspace, tmp_path, capsys,
                                                command, delta):
    # unchecked, a smaller vocabulary ends translate in an IndexError and
    # trains on under resume, and a larger one is blamed on the model
    size = _resized_vocab(workspace, tmp_path, delta)
    argv, where = _with_vocab(workspace, tmp_path, command)
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: {where}vocabulary of {size + delta} tokens does not "
            f"match the model's {size}-token embedding table\n")
    assert not (tmp_path / "run").exists()


def _swapped_tags(ws, tmp) -> str:
    """Save as ``tmp / "bpe"`` the workspace vocabulary with its "<2de>"
    and "<2fr>" lines swapped; return the refusal."""
    lines = (ws / "bpe.vocab").read_text(encoding="utf-8").split("\n")
    de, fr = lines.index("<2de>"), lines.index("<2fr>")
    lines[de], lines[fr] = lines[fr], lines[de]
    (tmp / "bpe.vocab").write_text("\n".join(lines), encoding="utf-8")
    (tmp / "bpe.merges").write_bytes((ws / "bpe.merges").read_bytes())
    assert Vocabulary.load(tmp / "bpe").languages == ["en", "fr", "de"]
    return ("vocabulary tags the languages ['en', 'fr', 'de'], the model "
            "was trained with ['en', 'de', 'fr'] in that order")


def _other_merges(ws, tmp) -> str:
    """Save as ``tmp / "bpe"`` a vocabulary of the workspace's size and
    languages learned over its target sides only; return the refusal."""
    vocab = Vocabulary.load(ws / "bpe")
    other = train_bpe([ws / "train.de", ws / "train.fr"], len(vocab),
                      min_freq=1, languages=vocab.languages)
    assert len(other) == len(vocab) and other.merges != vocab.merges
    other.save(tmp / "bpe")
    return ("vocabulary's merges differ from those of the vocabulary the "
            "model was trained with")


@pytest.mark.parametrize("vocab_case", [_swapped_tags, _other_merges],
                         ids=lambda case: case.__name__.lstrip("_"))
@pytest.mark.parametrize("command", ["translate", "evaluate", "resume"])
def test_cli_refuses_vocabulary_the_model_was_not_trained_with(
        workspace, tmp_path, capsys, command, vocab_case):
    # unrecorded, a checkpoint paired with any vocabulary of its size: with
    # the tags swapped, translate --tgt-lang de decoded under the fr tag
    # and exited 0
    message = vocab_case(workspace, tmp_path)
    argv, where = _with_vocab(workspace, tmp_path, command)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {where}{message}\n")
    assert not (tmp_path / "run").exists()
    assert not (tmp_path / "r.csv").exists()


def test_train_cli_records_the_vocabulary(workspace):
    model, _ = load_checkpoint(workspace / "run" / "checkpoint_last.lvpm")
    vocab = Vocabulary.load(workspace / "bpe")
    assert model.config.vocab_languages == ["en", "de", "fr"]
    assert model.config.vocab_sha256 == vocab.sha256
    assert Vocabulary.load(workspace / "run" / "bpe").sha256 == vocab.sha256


def test_unrecorded_checkpoint_checks_only_the_size():
    # the frozen benchmark checkpoint predates the record; its vocabulary
    # is not hashed, since beam_search checks it on every request
    model, _ = load_checkpoint(FROZEN / "model.lvpm")
    assert model.config.vocab_languages is model.config.vocab_sha256 is None
    vocab = Vocabulary.load(FROZEN / "bpe")
    model.check_vocabulary(vocab)
    assert "sha256" not in vocab.__dict__


def test_translate_cli_beam1_equals_greedy(workspace, capsys, tmp_path):
    ckpt = workspace / "run" / "checkpoint_last.lvpm"
    src = tmp_path / "input.txt"
    first_line = (workspace / "train.en").read_text().splitlines()[0]
    src.write_text(f"train-000000\t{first_line}\n", encoding="utf-8")
    rc = main(["translate", "--ckpt", str(ckpt), "--tgt-lang", "de",
               "--input", str(src), "--beam", "1",
               "--vtok", str(workspace / "train.vtok")])
    assert rc == 0
    cli_out = capsys.readouterr().out.rstrip("\n")

    model, _ = load_checkpoint(ckpt)
    vocab = Vocabulary.load(workspace / "run" / "bpe")
    visual = read_vtok(workspace / "train.vtok")["train-000000"]
    ids = prefix_target_token([BOS_ID] + encode(first_line, vocab) + [EOS_ID],
                              "de", vocab)
    hyp = beam_search(model, vocab, ids, "de", visual, beam=1, alpha=1.0)
    assert cli_out == decode(hyp.tokens, vocab)


@pytest.mark.parametrize("text, args, message", [
    pytest.param("{good}\n\nno tab here\n", [],
                 "expected 'image_id<TAB>text'",
                 id="no tab here-expected 'image_id<TAB>text'"),
    pytest.param("{good}\n\nnope-000000\tthe cat\n", [],
                 "image id 'nope-000000'",
                 id="nope-000000\tthe cat-image id 'nope-000000'"),
    # argument errors after a leading blank line used to print it first
    pytest.param("\n{good}\n", ["--tgt-lang", "xx"],
                 "no tag token for language 'xx'", id="unknown tgt-lang"),
    pytest.param("\n{good}\n", ["--beam", "0"], "beam must be >= 1",
                 id="beam 0"),
])
def test_translate_cli_malformed_line_fails_before_output(workspace, capsys,
                                                          tmp_path, text,
                                                          args, message):
    first_line = (workspace / "train.en").read_text().splitlines()[0]
    src = tmp_path / "input.txt"
    src.write_text(text.format(good=f"train-000000\t{first_line}"),
                   encoding="utf-8")
    rc = main(["translate", "--ckpt",
               str(workspace / "run" / "checkpoint_last.lvpm"),
               "--tgt-lang", "de", "--input", str(src), "--beam", "1",
               "--vtok", str(workspace / "train.vtok")] + args)
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize("args, message", [
    (["--beam", "0"], "beam must be >= 1, got 0"),
    (["--alpha", "nan"], "alpha must be a finite number, got nan"),
    (["--tgt-lang", "xx"], "no tag token for language 'xx'"),
    # refused for any source: every cap is at least default_max_len(3) = 14
    (["--alpha", "400"], "alpha=400.0 is out of range for max_len 14: "
     "max_len ** alpha = inf is not a finite positive number"),
    (["--alpha=-400"], "alpha=-400.0 is out of range for max_len 14: "
     "max_len ** alpha = 0.0 is not a finite positive number"),
], ids=["beam 0", "alpha nan", "unknown tgt-lang", "alpha 400",
        "alpha -400"])
def test_translate_cli_refuses_bad_argument_without_input(workspace, capsys,
                                                          tmp_path, args,
                                                          message):
    # with no line to decode these once printed the blank lines and exited 0
    src = tmp_path / "input.txt"
    src.write_text("\n   \n", encoding="utf-8")
    rc = main(["translate", "--ckpt",
               str(workspace / "run" / "checkpoint_last.lvpm"),
               "--tgt-lang", "de", "--input", str(src),
               "--vtok", str(workspace / "train.vtok")] + args)
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_translate_cli_keeps_line_order_and_blank_lines(workspace, capsys,
                                                        tmp_path):
    lines = (workspace / "train.en").read_text().splitlines()[:2]
    src = tmp_path / "input.txt"
    src.write_text(f"train-000000\t{lines[0]}\n   \ntrain-000001\t"
                   f"{lines[1]}\ntrain-000000\t{lines[0]}\n",
                   encoding="utf-8")
    rc = main(["translate", "--ckpt",
               str(workspace / "run" / "checkpoint_last.lvpm"),
               "--tgt-lang", "de", "--input", str(src), "--beam", "2",
               "--vtok", str(workspace / "train.vtok")])
    assert rc == 0
    out = capsys.readouterr().out.split("\n")
    assert len(out) == 5 and out[1] == "" and out[4] == ""
    assert out[0] == out[3]
    for i, n in ((0, 0), (2, 1)):
        single = tmp_path / f"single{n}.txt"
        single.write_text(f"train-00000{n}\t{lines[n]}\n", encoding="utf-8")
        assert main(["translate", "--ckpt",
                     str(workspace / "run" / "checkpoint_last.lvpm"),
                     "--tgt-lang", "de", "--input", str(single), "--beam",
                     "2", "--vtok", str(workspace / "train.vtok")]) == 0
        assert capsys.readouterr().out == out[i] + "\n"


@pytest.mark.parametrize("alpha", ["400", "-400"])
def test_translate_cli_rejects_extreme_alpha(workspace, capsys, tmp_path,
                                             alpha):
    src = tmp_path / "input.txt"
    first_line = (workspace / "train.en").read_text().splitlines()[0]
    src.write_text(f"train-000000\t{first_line}\n", encoding="utf-8")
    rc = main(["translate", "--ckpt",
               str(workspace / "run" / "checkpoint_last.lvpm"),
               "--tgt-lang", "de", "--input", str(src), f"--alpha={alpha}",
               "--vtok", str(workspace / "train.vtok")])
    assert rc == 1
    assert "alpha" in capsys.readouterr().err


def test_evaluate_cli(workspace, tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["evaluate", "--ckpt",
               str(workspace / "run" / "checkpoint_last.lvpm"),
               "--manifest", str(workspace / "train.json"),
               "--direction", "en-de", "--out", str(out), "--beam", "2"])
    assert rc == 0
    assert "BLEU" in capsys.readouterr().out
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["direction"] == "en-de"
    assert out.with_suffix(".sentences.tsv").exists()


def test_evaluate_cli_missing_manifest(workspace, tmp_path, capsys):
    rc = main(["evaluate", "--ckpt",
               str(workspace / "run" / "checkpoint_last.lvpm"),
               "--manifest", str(tmp_path / "nope.json"),
               "--direction", "en-de", "--out", str(tmp_path / "r.csv")])
    assert rc != 0
    assert "nope.json" in capsys.readouterr().err


def test_mask_sweep_cli(workspace, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["mask-sweep", "--ckpt",
               str(workspace / "run" / "checkpoint_last.lvpm"),
               "--manifest", str(workspace / "train.json"),
               "--direction", "en-de", "--ratios", "0,0.5", "--seeds", "1,2",
               "--out", str(out), "--beam", "1"])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["ratio"] for r in rows] == ["0", "0.5"]
    assert out.with_suffix(".runs.csv").exists()


def test_gradcheck_cli(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "gradient checks passed" in out and "FAIL" not in out


@pytest.mark.parametrize("argv", [
    ["translate", "--tgt-lang", "de", "--input", "-"],
    ["evaluate", "--manifest", "m", "--direction", "en-de", "--out", "o"],
    ["mask-sweep", "--manifest", "m", "--direction", "en-de", "--ratios",
     "0", "--seeds", "1", "--out", "o"],
])
def test_decoding_commands_share_flag_defaults(argv):
    args = build_parser().parse_args(argv + ["--ckpt", "c"])
    assert (args.ckpt, args.beam, args.alpha, args.vocab) == ("c", 5, 1.0,
                                                             None)
    if argv[0] != "translate":
        assert args.lowercase is False


def test_unknown_flag_is_usage_error(workspace):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--definitely-not-a-flag", "x"])
    assert exc.value.code != 0


def test_translate_missing_input(workspace, capsys):
    rc = main(["translate", "--ckpt",
               str(workspace / "run" / "checkpoint_last.lvpm"),
               "--tgt-lang", "de", "--input", "/does/not/exist",
               "--vtok", str(workspace / "train.vtok")])
    assert rc != 0
    assert "/does/not/exist" in capsys.readouterr().err


def test_vtok_width_mismatch_rejected(workspace, tmp_path, capsys):
    # a checkpoint expecting d_v=8 must refuse a d_v=5 feature file
    ids = tmp_path / "ids.txt"
    ids.write_text("train-000000\n", encoding="utf-8")
    wrong = tmp_path / "wrong.vtok"
    main(["make-vtok", "--pseudo", "--ids", str(ids), "--mv", "2", "--dv",
          "5", "--out", str(wrong)])
    src = tmp_path / "in.txt"
    src.write_text("train-000000\thello\n", encoding="utf-8")
    rc = main(["translate", "--ckpt",
               str(workspace / "run" / "checkpoint_last.lvpm"),
               "--tgt-lang", "de", "--input", str(src),
               "--vtok", str(wrong)])
    assert rc != 0
    assert "width mismatch" in capsys.readouterr().err


def test_translate_cli_text_only_reads_plain_lines(workspace, tmp_path,
                                                  capsys):
    vocab = Vocabulary.load(workspace / "bpe")
    model = MultimodalTranslator(ModelConfig(
        vocab_size=len(vocab), d_model=16, n_heads=2, n_enc_layers=1,
        n_dec_layers=1, variant="text_only", dropout=0.0,
        n_langs=len(vocab.languages)), seed=4)
    ckpt = tmp_path / "text_only.lvpm"
    save_checkpoint(ckpt, model)
    lines = (workspace / "train.en").read_text().splitlines()[:2]
    src = tmp_path / "in.txt"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["translate", "--ckpt", str(ckpt), "--vocab",
               str(workspace / "bpe"), "--tgt-lang", "de", "--input",
               str(src), "--beam", "2"])
    assert rc == 0
    expected = [decode(beam_search(
        model, vocab, prefix_target_token(
            [BOS_ID] + encode(line, vocab) + [EOS_ID], "de", vocab),
        "de", None, beam=2, alpha=1.0).tokens, vocab) for line in lines]
    assert capsys.readouterr().out.split("\n") == expected + [""]


def test_cli_prints_one_line_per_sentence_when_output_favours_newlines(
        workspace, tmp_path, capsys):
    # an untrained text-only model whose "\n" byte symbol dominates every
    # step: its decoded text once kept the newlines, so translate printed
    # 85 lines for these 3 and evaluate split rows of its sentence report
    vocab = Vocabulary.load(workspace / "bpe")
    model = MultimodalTranslator(ModelConfig(
        vocab_size=len(vocab), d_model=16, n_heads=2, n_enc_layers=1,
        n_dec_layers=1, variant="text_only", dropout=0.0,
        n_langs=len(vocab.languages)), seed=0)
    model.params["embedding"].data[vocab.tokens.index(_BYTE_TO_CHAR[10])] *= 8
    ckpt = tmp_path / "newlines.lvpm"
    save_checkpoint(ckpt, model)
    lines = (workspace / "train.en").read_text().splitlines()
    src = tmp_path / "in.txt"
    src.write_text(f"{lines[0]}\n\n{lines[1]}\n", encoding="utf-8")
    assert main(["translate", "--ckpt", str(ckpt), "--vocab",
                 str(workspace / "bpe"), "--tgt-lang", "de", "--input",
                 str(src)]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 3 and out.split("\n")[1] == ""
    report = tmp_path / "report.csv"
    assert main(["evaluate", "--ckpt", str(ckpt), "--vocab",
                 str(workspace / "bpe"), "--manifest",
                 str(workspace / "train.json"), "--direction", "en-de",
                 "--out", str(report)]) == 0
    rows = report.with_suffix(".sentences.tsv").read_text().splitlines()
    assert len(rows) == 1 + len(lines)
    assert all(row.count("\t") == 3 for row in rows)


def test_translate_cli_vision_checkpoint_needs_vtok(workspace, tmp_path,
                                                   capsys):
    src = tmp_path / "in.txt"
    src.write_text("train-000000\thello\n", encoding="utf-8")
    rc = main(["translate", "--ckpt",
               str(workspace / "run" / "checkpoint_last.lvpm"),
               "--tgt-lang", "de", "--input", str(src)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "VTOK table" in err


def _train_config(workspace, tmp_path, manifest, model):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "out_dir": str(tmp_path / "run"),
        "data": {"train_manifest": str(manifest),
                 "vocab": str(workspace / "bpe")},
        "model": model, "train": {"epochs": 1, "max_tokens": 256}}),
        encoding="utf-8")
    return config


@pytest.mark.parametrize("d_v", [None, 8])
def test_train_cli_full_variant_needs_vtok(workspace, tmp_path, capsys, d_v):
    manifest = json.loads((workspace / "train.json").read_text())
    del manifest["vtok_path"]
    manifest["text_paths"] = {lang: str(workspace / path) for lang, path
                              in manifest["text_paths"].items()}
    manifest["image_ids_path"] = str(workspace / manifest["image_ids_path"])
    (tmp_path / "novtok.json").write_text(json.dumps(manifest),
                                          encoding="utf-8")
    model = {"d_model": 16, "n_heads": 2, "variant": "full"}
    if d_v:
        model["d_v"] = d_v
    config = _train_config(workspace, tmp_path, tmp_path / "novtok.json",
                           model)
    assert main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "VTOK table" in err
    assert not (tmp_path / "run").exists()


def test_train_cli_refuses_image_missing_from_vtok(workspace, tmp_path,
                                                   capsys):
    # ran a step, wrote run/bpe.* and a metrics.csv row, then failed
    manifest = json.loads((workspace / "train.json").read_text())
    manifest["text_paths"] = {lang: str(workspace / path) for lang, path
                              in manifest["text_paths"].items()}
    manifest["vtok_path"] = str(workspace / manifest["vtok_path"])
    ids = (workspace / manifest["image_ids_path"]).read_text().splitlines()
    (tmp_path / "train.ids").write_text(
        "\n".join(ids[:-1] + ["train-999999"]) + "\n", encoding="utf-8")
    manifest["image_ids_path"] = "train.ids"
    (tmp_path / "train.json").write_text(json.dumps(manifest),
                                         encoding="utf-8")
    config = _train_config(workspace, tmp_path, tmp_path / "train.json",
                           {"d_model": 16, "n_heads": 2})
    assert main(["train", "--config", str(config)]) == 1
    assert capsys.readouterr() == (
        "", "error: no visual tokens for image id 'train-999999' in "
        f"{workspace / 'train.vtok'}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("languages, text", [(["en", "de"], ""),
                                             (["en"], "a man\n")],
                         ids=["empty text files", "pivot only"])
def test_train_cli_refuses_manifest_without_examples(workspace, tmp_path,
                                                     capsys, languages, text):
    # once trained on nothing, exited 0 and saved the untrained model as
    # every epoch's checkpoint
    for lang in languages:
        (tmp_path / f"train.{lang}").write_text(text, encoding="utf-8")
    manifest = tmp_path / "train.json"
    manifest.write_text(json.dumps({
        "split": "train", "languages": languages,
        "text_paths": {lang: f"train.{lang}" for lang in languages}}),
        encoding="utf-8")
    config = _train_config(workspace, tmp_path, manifest,
                           {"d_model": 16, "n_heads": 2,
                            "variant": "text_only"})
    assert main(["train", "--config", str(config)]) == 1
    assert capsys.readouterr() == ("", f"error: manifest {manifest}: no "
                                   "examples to train on (no lines, or no "
                                   "language but 'en')\n")
    assert not (tmp_path / "run").exists()


def test_train_cli_reads_vtok_once(workspace, tmp_path, monkeypatch):
    # a config without model.d_v takes the width of the VTOK table it
    # trains with; that table is read once
    reads = []
    real = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes",
                        lambda path: reads.append(path) or real(path))
    config = _train_config(workspace, tmp_path, workspace / "train.json",
                           {"d_model": 16, "n_heads": 2, "n_enc_layers": 1,
                            "n_dec_layers": 1})
    assert main(["train", "--config", str(config)]) == 0
    assert reads.count(workspace / "train.vtok") == 1


def test_train_cli_log_every_prints_each_step(workspace, tmp_path, capsys):
    config = _train_config(workspace, tmp_path, workspace / "train.json",
                           {"d_model": 16, "n_heads": 2, "n_enc_layers": 1,
                            "n_dec_layers": 1, "variant": "text_only"})
    assert main(["train", "--config", str(config), "--log-every", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = list(csv.DictReader((tmp_path / "run" / "metrics.csv").open()))
    assert len(rows) >= 1 and len(out) == len(rows) + 2
    for line, row in zip(out, rows):
        step = re.fullmatch(r"step (\d+) epoch (\d+) lr \S+ loss "
                            r"(\d+\.\d{4}) tok/s \d+", line)
        assert step, line
        assert step.group(1, 2) == (row["step"], row["epoch"])
        assert float(step[3]) == pytest.approx(float(row["loss"]), abs=1e-4)


def test_translate_cli_rejects_non_finite_alpha(workspace, tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("train-000000\thello\n", encoding="utf-8")
    rc = main(["translate", "--ckpt",
               str(workspace / "run" / "checkpoint_last.lvpm"),
               "--tgt-lang", "de", "--input", str(src), "--alpha", "nan",
               "--vtok", str(workspace / "train.vtok")])
    assert rc != 0
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["vocab", "train_manifest"])
def test_train_cli_names_missing_data_key(tmp_path, capsys, key):
    data = {"train_manifest": "train.json", "vocab": "bpe"}
    del data[key]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": data}), encoding="utf-8")
    rc = main(["train", "--config", str(config)])
    assert rc != 0
    err = capsys.readouterr().err
    assert str(config) in err and f"data.{key}" in err


def test_train_cli_names_malformed_json_position(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"data": {\n  "vocab": "bpe",,\n}}\n',
                      encoding="utf-8")
    rc = main(["train", "--config", str(config)])
    assert rc != 0
    err = capsys.readouterr().err
    assert str(config) in err and "line 2 column 18" in err


@pytest.mark.parametrize("text", ['[1, 2]', '{"data": "bpe"}'])
def test_train_cli_rejects_config_without_data_object(tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    assert main(["train", "--config", str(config)]) != 0
    err = capsys.readouterr().err
    # a top level that is no object is refused by the JSON reader itself
    message = ("RunConfig key 'data' must be dict, got 'bpe'"
               if text.startswith("{")
               else "expected a JSON object, got list")
    assert str(config) in err and message in err


@pytest.mark.parametrize("section, key", [("model", "dropuot"),
                                          ("train", "epoch")])
def test_train_cli_names_unknown_config_key(workspace, tmp_path, capsys,
                                            section, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "out_dir": str(tmp_path / "run"),
        "data": {"train_manifest": str(workspace / "train.json"),
                 "vocab": str(workspace / "bpe")},
        section: {key: 3}}), encoding="utf-8")
    assert main(["train", "--config", str(config)]) != 0
    err = capsys.readouterr().err
    assert str(config) in err and f"{section}.{key}" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("model, message", [
    # a larger table used to train on, its extra rows never read
    ({"vocab_size": 400}, "vocabulary of 330 tokens does not match the "
                          "model's 400-token embedding table"),
    ({"vocab_languages": ["en", "fr", "de"]},
     "vocabulary tags the languages ['en', 'de', 'fr'], the model was "
     "trained with ['en', 'fr', 'de'] in that order"),
    # wrote run/ and failed its first step on a tag outside 5..5
    ({"n_langs": 1}, "vocabulary tags 3 languages, the model's n_langs is 1"),
], ids=["size", "languages", "n_langs"])
def test_train_cli_refuses_model_section_at_odds_with_vocabulary(
        workspace, tmp_path, capsys, model, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "out_dir": str(tmp_path / "run"),
        "data": {"train_manifest": str(workspace / "train.json"),
                 "vocab": str(workspace / "bpe")},
        "model": {"d_model": 16, "n_heads": 2, **model}}), encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 1
    assert capsys.readouterr() == ("", f"error: {config}: {message}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section, value", [("model", 5), ("train", [1])])
def test_train_cli_rejects_non_object_section(workspace, tmp_path, capsys,
                                              section, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": {"train_manifest": str(workspace / "train.json"),
                 "vocab": str(workspace / "bpe")},
        section: value}), encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert str(config) in err
    assert f"RunConfig key '{section}' must be dict, got {value!r}" in err


@pytest.mark.parametrize("edit, message", [
    # each trained under the defaults and exited 0, or ended in a bare
    # TypeError traceback, or named neither the config nor the manifest
    (lambda c: c.update(out_dir=5),
     "RunConfig key 'out_dir' must be str, got 5"),
    (lambda c: c["data"].update(vocab=7),
     "DataConfig key 'data.vocab' must be str, got 7"),
    (lambda c: c.update(trian=c.pop("train")),
     "unknown RunConfig key(s): 'trian'"),
    (lambda c: c["data"].update(pivto=c["data"].pop("pivot")),
     "unknown DataConfig key(s): 'data.pivto'"),
    (lambda c: c.pop("data"), "missing RunConfig key(s): 'data'"),
    (lambda c: c["data"].update(pivot="xx"),
     "data.pivot 'xx' is not a language of manifest {manifest} (has "
     "['en', 'de', 'fr'])"),
], ids=["out_dir_not_str", "vocab_not_str", "unknown_section",
        "unknown_data_key", "no_data", "pivot_not_in_manifest"])
def test_train_cli_refuses_config_naming_file_and_key(workspace, tmp_path,
                                                      capsys, edit, message):
    manifest = workspace / "train.json"
    config = _train_config(workspace, tmp_path, manifest,
                           {"d_model": 16, "n_heads": 2})
    raw = json.loads(config.read_text())
    raw["data"]["pivot"] = "en"
    edit(raw)
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {config}: {message.format(manifest=manifest)}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("model, changed", [
    # the stored model trained on and exited 0
    ({"d_model": 32, "variant": "text_only"},
     "model.d_model 32 (checkpoint 16), "
     "model.variant 'text_only' (checkpoint 'full')"),
    # 0 stands for 4 * d_model, as the checkpoint stores it
    ({"d_ffn": 0}, None),
], ids=["changed", "d_ffn_default"])
def test_train_cli_resume_reads_model_section(workspace, tmp_path, capsys,
                                              model, changed):
    config = json.loads((workspace / "config.json").read_text())
    config["model"].update(model)
    config["out_dir"] = str(tmp_path / "run")
    config["data"].update(train_manifest=str(workspace / "train.json"),
                          vocab=str(workspace / "bpe"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    ckpt = workspace / "run" / "checkpoint_last.lvpm"
    rc = main(["train", "--config", str(path), "--resume", str(ckpt)])
    if changed is None:
        assert rc == 0
        return
    assert rc == 1
    assert capsys.readouterr() == (
        "", f"error: {path}: sections differ from the configs in {ckpt}: "
            f"{changed}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("ratios, seeds, named", [
    ("0,abc", "1", "--ratios"),
    ("0,0.5", "1,x2", "--seeds"),
    ("0,0.5", "1.5", "--seeds"),
])
def test_mask_sweep_cli_names_malformed_list_item(workspace, tmp_path, capsys,
                                                 ratios, seeds, named):
    rc = main(["mask-sweep", "--ckpt",
               str(workspace / "run" / "checkpoint_last.lvpm"),
               "--manifest", str(workspace / "train.json"),
               "--direction", "en-de", "--ratios", ratios, "--seeds", seeds,
               "--out", str(tmp_path / "sweep.csv"), "--beam", "1"])
    assert rc == 1
    out, err = capsys.readouterr()
    bad = [item for item in (ratios + "," + seeds).split(",")
           if item in ("abc", "x2", "1.5")][0]
    assert out == "" and err.count("\n") == 1 and err.startswith("error:")
    assert named in err and repr(bad) in err


def _resume_without_optimizer_state(ws, tmp):
    model, _ = load_checkpoint(ws / "run" / "checkpoint_last.lvpm")
    save_checkpoint(tmp / "weights.lvpm", model)
    return (["train", "--config", str(ws / "config.json"), "--resume",
             str(tmp / "weights.lvpm")],
            f"{tmp / 'weights.lvpm'} holds no optimizer state, cannot resume")


def _make_vtok(tmp, extra):
    ids = tmp / "ids.txt"
    ids.write_text("a\nb\n", encoding="utf-8")
    return ["make-vtok", "--ids", str(ids), "--dv", "4",
            "--out", str(tmp / "o.vtok")] + extra


def _make_vtok_without_pseudo(ws, tmp):
    return (_make_vtok(tmp, ["--mv", "2"]),
            "only --pseudo generation is supported; real backbones are "
            "external and write VTOK directly")


def _make_vtok_no_tokens_per_image(ws, tmp):
    return (_make_vtok(tmp, ["--pseudo", "--mv", "0"]),
            "m_v and d_v must be >= 1, got (0, 4)")


def _mask_sweep(ws, tmp, ratios, seeds):
    return ["mask-sweep", "--ckpt", str(ws / "run" / "checkpoint_last.lvpm"),
            "--manifest", str(ws / "train.json"), "--direction", "en-de",
            "--ratios", ratios, "--seeds", seeds, "--out", str(tmp / "s.csv")]


def _mask_sweep_no_ratio(ws, tmp):
    return (_mask_sweep(ws, tmp, ",", "1"),
            "mask_sweep: ratios is empty; a sweep over no masking ratios "
            "has no rows")


# --seeds 1,1 reported std 0.00 over two copies of one run, and --ratios
# 0.2,0.2 wrote its row twice
def _mask_sweep_repeated_seed(ws, tmp):
    return (_mask_sweep(ws, tmp, "0.2", "1,2,1"),
            "mask_sweep: seed 1 given twice; its second run would repeat "
            "the first")


def _mask_sweep_repeated_ratio(ws, tmp):
    return (_mask_sweep(ws, tmp, "0.2,0,0.2", "1"),
            "mask_sweep: ratio 0.2 given twice; its second run would repeat "
            "the first")


def _bpe_train_negative_min_freq(ws, tmp):
    # -3 used to learn as min_freq 1
    return (["bpe-train", "--corpus", str(ws / "train.en"), "--vocab-size",
             "300", "--out", str(tmp / "bpe"), "--min-freq", "-3"],
            "min_freq must be >= 0, got -3")


def _evaluate_language_not_in_manifest(ws, tmp):
    return (["evaluate", "--ckpt", str(ws / "run" / "checkpoint_last.lvpm"),
             "--manifest", str(ws / "train.json"), "--direction", "en-xx",
             "--out", str(tmp / "r.csv")],
            "language 'xx' not in manifest (has ['en', 'de', 'fr'])")


@pytest.mark.parametrize("case", [
    _resume_without_optimizer_state, _make_vtok_without_pseudo,
    _make_vtok_no_tokens_per_image, _mask_sweep_no_ratio,
    _mask_sweep_repeated_seed, _mask_sweep_repeated_ratio,
    _bpe_train_negative_min_freq, _evaluate_language_not_in_manifest,
], ids=lambda case: case.__name__.lstrip("_"))
def test_cli_refusal_messages(workspace, tmp_path, capsys, case):
    argv, message = case(workspace, tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) in (
        [], ["ids.txt"], ["weights.lvpm"])


def _corrupt(src: Path, dst: Path, offset: int, value: int = 0xFF) -> Path:
    blob = bytearray(src.read_bytes())
    blob[offset] = value
    dst.write_bytes(bytes(blob))
    return dst


def _missing_config(ws, tmp):
    return ["train", "--config", str(tmp / "none.json")], tmp / "none.json"


def _truncated_resume(ws, tmp):
    ckpt = tmp / "short.lvpm"
    ckpt.write_bytes((ws / "run" / "checkpoint_last.lvpm").read_bytes()[:-7])
    return ["train", "--config", str(ws / "config.json"), "--resume",
            str(ckpt)], ckpt


def _resume_bad_trainer_config(ws, tmp):
    model, state = load_checkpoint(ws / "run" / "checkpoint_last.lvpm")
    state["config"]["epochs"] = "3"
    save_checkpoint(tmp / "bad.lvpm", model, state)
    return ["train", "--config", str(ws / "config.json"), "--resume",
            str(tmp / "bad.lvpm")], tmp / "bad.lvpm"


def _translate(ws, tmp, extra):
    src = tmp / "in.txt"
    first_line = (ws / "train.en").read_text().splitlines()[0]
    src.write_text(f"train-000000\t{first_line}\n", encoding="utf-8")
    return ["translate", "--ckpt", str(ws / "run" / "checkpoint_last.lvpm"),
            "--tgt-lang", "de", "--input", str(src)] + extra


def _translate_missing_vtok(ws, tmp):
    return _translate(ws, tmp, ["--vtok", str(tmp / "none.vtok")]), \
        tmp / "none.vtok"


def _translate_corrupt_merges(ws, tmp):
    (tmp / "bpe.vocab").write_bytes((ws / "bpe.vocab").read_bytes())
    merges = _corrupt(ws / "bpe.merges", tmp / "bpe.merges", 1)
    return _translate(ws, tmp, ["--vtok", str(ws / "train.vtok"), "--vocab",
                                str(tmp / "bpe")]), merges


def _translate_missing_merges(ws, tmp):
    (tmp / "bpe.vocab").write_bytes((ws / "bpe.vocab").read_bytes())
    return _translate(ws, tmp, ["--vtok", str(ws / "train.vtok"), "--vocab",
                                str(tmp / "bpe")]), tmp / "bpe.merges"


def _evaluate_malformed_manifest(ws, tmp):
    manifest = tmp / "train.json"
    manifest.write_text('{"split": "train",, }', encoding="utf-8")
    return ["evaluate", "--ckpt", str(ws / "run" / "checkpoint_last.lvpm"),
            "--manifest", str(manifest), "--direction", "en-de", "--out",
            str(tmp / "r.csv")], manifest


def _mask_sweep_corrupt_name(ws, tmp):
    src = ws / "run" / "checkpoint_last.lvpm"
    # the first parameter name, right after the config JSON
    ckpt = _corrupt(src, tmp / "c.lvpm", src.read_bytes().index(b"embedding"))
    return ["mask-sweep", "--ckpt", str(ckpt), "--manifest",
            str(ws / "train.json"), "--direction", "en-de", "--ratios", "0",
            "--seeds", "1", "--out", str(tmp / "s.csv"),
            "--vocab", str(ws / "bpe")], ckpt


def _make_vtok_missing_ids(ws, tmp):
    return ["make-vtok", "--pseudo", "--ids", str(tmp / "none.ids"), "--mv",
            "2", "--dv", "4", "--out", str(tmp / "o.vtok")], tmp / "none.ids"


def _bpe_train_non_utf8_corpus(ws, tmp):
    corpus = tmp / "corpus.txt"
    corpus.write_bytes(b"the cat sat\nthe \xff dog\n")
    return ["bpe-train", "--corpus", str(corpus), "--vocab-size", "300",
            "--out", str(tmp / "bpe")], corpus


@pytest.mark.parametrize("case", [
    _missing_config, _truncated_resume, _resume_bad_trainer_config,
    _translate_missing_vtok, _translate_corrupt_merges,
    _translate_missing_merges, _evaluate_malformed_manifest,
    _mask_sweep_corrupt_name, _make_vtok_missing_ids,
    _bpe_train_non_utf8_corpus,
], ids=lambda case: case.__name__.lstrip("_"))
def test_cli_names_bad_input_file(workspace, tmp_path, capsys, case):
    assert_fails_by_name(case(workspace, tmp_path), capsys)


def assert_fails_by_name(case, capsys):
    argv, bad_file = case
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert str(bad_file) in err and "Traceback" not in err


# an output path with a directory, or a regular file for a parent, in the
# way; not a read-only mode, which does not stop a write by root

def _in_the_way(tmp, kind):
    path = tmp / "taken"
    if kind == "dir":
        path.mkdir()
    else:
        path.write_text("", encoding="utf-8")
    return path


def _make_vtok_out_is_dir(ws, tmp):
    ids = tmp / "ids.txt"
    ids.write_text("a\nb\n", encoding="utf-8")
    out = _in_the_way(tmp, "dir")
    return ["make-vtok", "--pseudo", "--ids", str(ids), "--mv", "2", "--dv",
            "4", "--out", str(out)], out


def _evaluate_out_is_dir(ws, tmp):
    out = _in_the_way(tmp, "dir")
    return ["evaluate", "--ckpt", str(ws / "run" / "checkpoint_last.lvpm"),
            "--manifest", str(ws / "train.json"), "--direction", "en-de",
            "--beam", "1", "--out", str(out)], out


def _mask_sweep_out_under_file(ws, tmp):
    out = _in_the_way(tmp, "file") / "s.csv"
    return ["mask-sweep", "--ckpt", str(ws / "run" / "checkpoint_last.lvpm"),
            "--manifest", str(ws / "train.json"), "--direction", "en-de",
            "--ratios", "0", "--seeds", "1", "--beam", "1",
            "--out", str(out)], out


def _bpe_train_out_under_file(ws, tmp):
    out = _in_the_way(tmp, "file") / "sub" / "bpe"
    return ["bpe-train", "--corpus", str(ws / "train.en"), "--vocab-size",
            "300", "--out", str(out)], out


def _train_out_dir_under_file(ws, tmp):
    # fails in saving the vocabulary, before any step
    out_dir = _in_the_way(tmp, "file") / "run"
    config = json.loads((ws / "config.json").read_text(encoding="utf-8"))
    config["out_dir"] = str(out_dir)
    config["data"].update(train_manifest=str(ws / "train.json"),
                          vocab=str(ws / "bpe"))
    path = tmp / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return ["train", "--config", str(path)], out_dir


@pytest.mark.parametrize("case", [
    _make_vtok_out_is_dir, _evaluate_out_is_dir, _mask_sweep_out_under_file,
    _bpe_train_out_under_file, _train_out_dir_under_file,
], ids=lambda case: case.__name__.lstrip("_"))
def test_cli_names_bad_output_file(workspace, tmp_path, capsys, case):
    assert_fails_by_name(case(workspace, tmp_path), capsys)
