#!/usr/bin/env python3
"""Desk-scale end-to-end experiment: overfit a small corpus, score BLEU for
every direction, contrast the language-conditioned mapping against the
static variant, and sweep source-masking ratios.

Produces, under --out:
    corpus files + bpe vocabulary
    full/   static/   (checkpoints and metrics of both variants)
    bleu.csv          per-direction, per-variant train BLEU
    mask_sweep.csv    {ratio, mean_bleu, std} for plotting
"""

import argparse
import time
from pathlib import Path

import numpy as np

from promptmt.evaluate import evaluate, mask_sweep, write_sweep_csv
from promptmt.files import csv_text, write_file
from promptmt.model import ModelConfig, MultimodalTranslator
from promptmt.text import load_manifest, load_parallel_examples
from promptmt.toydata import make_toy_corpus, train_toy_vocab
from promptmt.train import TrainConfig, TrainState, train_loop
from promptmt.vision import read_vtok


def train_variant(variant, vocab, examples, visual, out_dir, args):
    config = ModelConfig(vocab_size=len(vocab), d_model=args.d_model,
                         n_heads=4, n_enc_layers=2, n_dec_layers=2,
                         d_v=args.d_v, variant=variant, dropout=0.0,
                         eps_ls=0.0, n_langs=len(vocab.languages))
    model = MultimodalTranslator(config, seed=args.seed)
    tcfg = TrainConfig(lr_peak=2e-3, warmup_steps=30, epochs=300,
                       max_tokens=512, seed=args.seed)
    state = TrainState.fresh(model, tcfg)
    t0 = time.time()
    rows = train_loop(model, examples, visual, state, out_dir=out_dir,
                      stop_loss=args.stop_loss, max_steps=args.max_steps)
    print(f"[{variant}] {rows[-1].step} steps, last loss {rows[-1].loss:.4f}, "
          f"{time.time() - t0:.0f}s")
    return model


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--lines", type=int, default=32)
    parser.add_argument("--langs", default="de,fr,cs")
    parser.add_argument("--d-model", type=int, default=64)
    parser.add_argument("--d-v", type=int, default=32)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--stop-loss", type=float, default=0.01)
    parser.add_argument("--max-steps", type=int, default=900)
    parser.add_argument("--ratios", default="0,0.2,0.4,0.6,0.8")
    parser.add_argument("--sweep-seeds", default="1,2,3")
    args = parser.parse_args()

    out = Path(args.out)
    targets = [l for l in args.langs.split(",") if l]
    manifest = load_manifest(make_toy_corpus(
        out, n_lines=args.lines, target_langs=tuple(targets),
        d_v=args.d_v, seed=0))
    vocab = train_toy_vocab(out, manifest.languages)
    examples = load_parallel_examples(manifest, vocab, pivot="en")
    visual = read_vtok(manifest.vtok_path)

    models = {v: train_variant(v, vocab, examples, visual, out / v, args)
              for v in ("full", "static")}

    directions = [f"en-{t}" for t in targets]
    rows = [["variant", "direction", "bleu"]]
    for variant, model in models.items():
        scores = []
        for direction in directions:
            rep = evaluate(model, vocab, manifest, direction, beam=5)
            rows.append([variant, direction, f"{rep.bleu:.4f}"])
            scores.append(rep.bleu)
        print(f"[{variant}] mean train BLEU {np.mean(scores):.2f}")
    write_file(out / "bleu.csv", "BLEU table", csv_text(rows))

    ratios = [float(r) for r in args.ratios.split(",")]
    seeds = [int(s) for s in args.sweep_seeds.split(",")]
    _, summary = mask_sweep(models["full"], vocab, manifest, directions[0],
                            ratios=ratios, seeds=seeds, beam=5)
    write_sweep_csv(out / "mask_sweep.csv", summary)
    for row in summary:
        print(f"ratio {row['ratio']:.1f}: BLEU {row['mean_bleu']:.2f} "
              f"+/- {row['std']:.2f}")


if __name__ == "__main__":
    main()
