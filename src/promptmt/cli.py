"""Command-line surface.

Subcommands: train, translate, evaluate, mask-sweep, gradcheck, make-vtok,
bpe-train. Every command exits nonzero with a message on stderr when given
a missing file or an inconsistent configuration.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

from .checks import full_model_reports, primitive_reports
from .decoding import (beam_search, check_length_penalty,
                       check_search_args, default_max_len)
from .errors import ConfigError, PromptMtError
from .evaluate import (build_requests, evaluate, mask_sweep,
                       visual_tokens_for, write_report_csv,
                       write_sentences_tsv, write_sweep_csv)
from .files import about, read_json, read_lines
from .model import (ModelConfig, MultimodalTranslator, config_from_dict,
                    load_checkpoint)
from .text import (Vocabulary, decode, load_manifest, load_parallel_examples,
                   train_bpe)
from .train import TrainConfig, TrainState, train_loop
from .vision import make_pseudo_vtok


def _load_model(args) -> tuple[MultimodalTranslator, Vocabulary]:
    model, _ = load_checkpoint(args.ckpt)
    return model, Vocabulary.load(args.vocab or Path(args.ckpt).parent / "bpe")


def cmd_train(args) -> int:
    cfg_path = Path(args.config)
    raw = read_json(cfg_path, "config file")
    base = cfg_path.parent   # "/abs" joined to it stays "/abs"

    def section(name):
        values = raw.get(name, {})
        if not isinstance(values, dict):
            raise ConfigError(f"{cfg_path}: expected \"{name}\" to be a "
                              "JSON object")
        return dict(values)

    data = section("data")

    def data_path(key):
        if key not in data:
            raise ConfigError(f"{cfg_path}: missing key data.{key}")
        return base / data[key]

    def build(name, cls, values):
        with about(cfg_path):
            return config_from_dict(cls, values, prefix=f"{name}.")

    out_dir = base / raw.get("out_dir", "run")
    vocab_prefix = data_path("vocab")
    manifest_path = data_path("train_manifest")
    tcfg = build("train", TrainConfig, section("train"))
    vocab = Vocabulary.load(vocab_prefix)
    manifest = load_manifest(manifest_path)
    pivot = data.get("pivot", "en")
    examples = load_parallel_examples(manifest, vocab, pivot=pivot)
    if not examples:
        raise ConfigError(f"manifest {manifest_path}: no examples to train "
                          f"on (no lines, or no language but {pivot!r})")

    if args.resume:
        model, ck_state = load_checkpoint(args.resume)
        if ck_state is None:
            raise ConfigError(f"{args.resume} holds no optimizer state, "
                              "cannot resume")
        with about(args.resume):
            model.check_vocabulary(vocab)
            state = TrainState.from_checkpoint_dict(ck_state)
        # the run continues under the checkpoint's trainer config, so a
        # train section that says otherwise would be silently ignored
        stored = asdict(state.config)
        changed = [f"train.{key} {value!r} (checkpoint {stored[key]!r})"
                   for key, value in asdict(tcfg).items()
                   if value != stored[key]]
        if changed:
            raise ConfigError(f"{cfg_path}: train section differs from the "
                              f"trainer config in {args.resume}: "
                              + ", ".join(changed))
        visual = visual_tokens_for(model, manifest.vtok_path)
    else:
        mcfg = section("model")
        mcfg.setdefault("vocab_size", len(vocab))
        mcfg.setdefault("n_langs", len(vocab.languages))
        mcfg.setdefault("vocab_languages", list(vocab.languages))
        mcfg.setdefault("vocab_sha256", vocab.sha256)
        # read before the model exists: a config without d_v takes the table's
        unbuilt = SimpleNamespace(config=SimpleNamespace(
            variant=mcfg.get("variant", "full"), d_v=mcfg.get("d_v", 0)))
        visual = visual_tokens_for(unbuilt, manifest.vtok_path)
        if visual and not mcfg.get("d_v"):
            mcfg["d_v"] = next(iter(visual.values())).tokens.shape[1]
        model = MultimodalTranslator(build("model", ModelConfig, mcfg),
                                     seed=tcfg.seed)
        with about(cfg_path):   # a model section at odds with the vocabulary
            model.check_vocabulary(vocab)
        state = TrainState.fresh(model, tcfg)
    if visual is not None:   # every example's image, before run/ is written
        visual = {ex.image_id: visual[ex.image_id] for ex in examples}

    vocab.save(out_dir / "bpe")

    rows = train_loop(model, examples, visual, state,
                      out_dir=out_dir, log_every=args.log_every)
    if rows:
        print(f"trained {rows[-1].step} steps, final loss {rows[-1].loss:.4f}")
    print(f"checkpoints and metrics in {out_dir}")
    return 0


def cmd_translate(args) -> int:
    model, vocab = _load_model(args)
    # checked here too, so that an input with no line to decode fails alike;
    # a source is at least a tag, BOS and EOS, so its cap is at least this
    # one, and an alpha refused at a cap is refused at every larger one
    check_search_args(model, vocab, args.tgt_lang, args.beam, args.alpha)
    check_length_penalty(default_max_len(3), args.alpha)
    visual_map = visual_tokens_for(model, args.vtok)

    lines = (sys.stdin.read().splitlines() if args.input == "-"
             else read_lines(args.input, "input file"))
    # translate every line before printing any, so a malformed line or a
    # bad argument fails before output starts; a blank line prints blank
    sources = []   # (image_id, text)
    for line in filter(str.strip, lines):
        if visual_map is None:
            sources.append((None, line))
        elif "\t" in line:
            sources.append(line.split("\t", 1))
        else:
            raise ConfigError("expected 'image_id<TAB>text' input line "
                              f"for a vision variant, got {line!r}")
    requests = build_requests([text for _, text in sources],
                              [image for image, _ in sources], args.tgt_lang,
                              vocab, visual_map)
    outputs = iter([decode(beam_search(model, vocab, ids, args.tgt_lang,
                                       visual, beam=args.beam,
                                       alpha=args.alpha).tokens, vocab)
                    for ids, visual in requests])
    for line in lines:
        print(next(outputs) if line.strip() else "")
    return 0


def cmd_evaluate(args) -> int:
    model, vocab = _load_model(args)
    manifest = load_manifest(args.manifest)
    report = evaluate(model, vocab, manifest, args.direction, beam=args.beam,
                      alpha=args.alpha, lowercase=args.lowercase)
    write_report_csv(args.out, [report])
    write_sentences_tsv(Path(args.out).with_suffix(".sentences.tsv"), report)
    print(f"{report.direction}: BLEU {report.bleu:.2f} "
          f"({len(report.sentences)} sentences)")
    return 0


def _numbers(text: str, kind, flag: str) -> list:
    """The comma-separated numbers of ``flag``, empty items skipped."""
    out = []
    for item in filter(None, text.split(",")):
        try:
            out.append(kind(item))
        except ValueError:
            raise ConfigError(f"{flag}: {item!r} is not of type "
                              f"{kind.__name__}") from None
    return out


def cmd_mask_sweep(args) -> int:
    model, vocab = _load_model(args)
    manifest = load_manifest(args.manifest)
    ratios = _numbers(args.ratios, float, "--ratios")
    seeds = _numbers(args.seeds, int, "--seeds")
    reports, summary = mask_sweep(model, vocab, manifest, args.direction,
                                  ratios, seeds, beam=args.beam,
                                  alpha=args.alpha, lowercase=args.lowercase)
    write_sweep_csv(args.out, summary)
    write_report_csv(Path(args.out).with_suffix(".runs.csv"), reports)
    for row in summary:
        print(f"ratio {row['ratio']:.2f}: mean BLEU {row['mean_bleu']:.2f} "
              f"(std {row['std']:.2f})")
    return 0


def cmd_gradcheck(args) -> int:
    reports = primitive_reports()
    if args.full_model:
        reports += full_model_reports()
    failed = 0
    for report in reports:
        print(report)
        failed += not report.passed
    total = len(reports)
    print(f"{total - failed}/{total} gradient checks passed")
    return 1 if failed else 0


def cmd_make_vtok(args) -> int:
    if not args.pseudo:
        raise ConfigError("only --pseudo generation is supported; real "
                          "backbones are external and write VTOK directly")
    ids = [l.strip() for l in read_lines(args.ids, "input file")
           if l.strip()]
    n = make_pseudo_vtok(ids, args.mv, args.dv, args.seed, args.out)
    print(f"wrote {n} records ({args.mv}x{args.dv}) to {args.out}")
    return 0


def cmd_bpe_train(args) -> int:
    langs = [l for l in args.langs.split(",") if l] if args.langs else []
    vocab = train_bpe(args.corpus, args.vocab_size, min_freq=args.min_freq,
                      languages=langs)
    vocab.save(args.out)
    print(f"vocabulary of {len(vocab)} tokens ({len(vocab.merges)} merges) "
          f"saved to {args.out}.vocab / {args.out}.merges")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptmt",
        description="multilingual multimodal translation with "
                    "language-conditioned visual prompts")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags translate, evaluate and mask-sweep share, defined once
    decoding = argparse.ArgumentParser(add_help=False)
    decoding.add_argument("--ckpt", required=True)
    decoding.add_argument("--beam", type=int, default=5)
    decoding.add_argument("--alpha", type=float, default=1.0)
    decoding.add_argument("--vocab", default=None,
                          help="vocabulary prefix (default: bpe next to the "
                               "ckpt)")
    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--manifest", required=True)
    corpus.add_argument("--direction", required=True, help="e.g. en-de")
    corpus.add_argument("--lowercase", action="store_true")

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--log-every", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("translate", parents=[decoding],
                       help="decode sentences from a file or -")
    p.add_argument("--tgt-lang", required=True)
    p.add_argument("--input", required=True, help="path or - for stdin")
    p.add_argument("--vtok", default=None,
                   help="VTOK file for vision variants")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", parents=[decoding, corpus],
                       help="corpus BLEU for one direction")
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("mask-sweep", parents=[decoding, corpus],
                       help="BLEU under increasing source masking")
    p.add_argument("--ratios", required=True, help="e.g. 0,0.2,0.4")
    p.add_argument("--seeds", required=True, help="e.g. 1,2,3")
    p.add_argument("--out", required=True, help="summary CSV path")
    p.set_defaults(func=cmd_mask_sweep)

    p = sub.add_parser("gradcheck",
                       help="finite-difference checks of the autodiff core")
    p.add_argument("--full-model", action="store_true",
                   help="also check the composed loss of a small model")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("make-vtok", help="write a VTOK file")
    p.add_argument("--pseudo", action="store_true",
                   help="deterministic pseudo features")
    p.add_argument("--ids", required=True, help="file of image ids")
    p.add_argument("--mv", type=int, required=True, help="tokens per image")
    p.add_argument("--dv", type=int, required=True, help="feature width")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_vtok)

    p = sub.add_parser("bpe-train", help="learn a shared BPE vocabulary")
    p.add_argument("--corpus", nargs="+", required=True)
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--langs", default="", help="comma-separated codes")
    p.add_argument("--min-freq", type=int, default=2)
    p.set_defaults(func=cmd_bpe_train)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PromptMtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
