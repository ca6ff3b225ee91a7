#!/usr/bin/env python3
"""Train the frozen model that the ``translate`` workload decodes with.

Uses the acceptance recipe: the 32-line toy corpus over en->{de,fr,cs}
(corpus seed 0), BPE at vocab 360, the ``full`` variant at d_model 64 with
2+2 layers, 4 heads and d_v 32, no dropout or label smoothing, model and
trainer seed 5, lr_peak 2e-3, warmup 30, stop_loss 0.01, max_steps 900.

Writes the corpus, ``bpe.vocab``, ``bpe.merges`` and ``model.lvpm`` into
``perfbench/frozen/`` with a ``SHA256SUMS`` file that the benchmark checks
before it uses any of them. Takes a few minutes on one core:

    python3 perfbench/make_frozen.py
"""

from __future__ import annotations

import hashlib
import time

from common import FROZEN, pin_and_import

pin_and_import()

from promptmt.model import ModelConfig, MultimodalTranslator, save_checkpoint  # noqa: E402
from promptmt.text import load_manifest, load_parallel_examples  # noqa: E402
from promptmt.toydata import make_toy_corpus, train_toy_vocab  # noqa: E402
from promptmt.train import TrainConfig, TrainState, train_loop  # noqa: E402
from promptmt.vision import read_vtok  # noqa: E402

SUMS = "SHA256SUMS"


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main():
    FROZEN.mkdir(parents=True, exist_ok=True)
    manifest = load_manifest(make_toy_corpus(
        FROZEN, n_lines=32, target_langs=("de", "fr", "cs"), seed=0,
        m_v=4, d_v=32, n_images=8))
    vocab = train_toy_vocab(FROZEN, manifest.languages, vocab_size=360)
    examples = load_parallel_examples(manifest, vocab, pivot="en")
    visual = read_vtok(manifest.vtok_path)

    config = ModelConfig(vocab_size=len(vocab), d_model=64, n_heads=4,
                         n_enc_layers=2, n_dec_layers=2, d_v=32,
                         variant="full", dropout=0.0, eps_ls=0.0)
    model = MultimodalTranslator(config, seed=5)
    state = TrainState.fresh(model, TrainConfig(
        lr_peak=2e-3, lr_init=1e-7, warmup_steps=30, epochs=300,
        max_tokens=512, seed=5))
    t0 = time.perf_counter()
    rows = train_loop(model, examples, visual, state, stop_loss=0.01,
                      max_steps=900)
    print(f"trained {rows[-1].step} steps in {time.perf_counter() - t0:.0f}s, "
          f"last loss {rows[-1].loss:.4f}")
    save_checkpoint(FROZEN / "model.lvpm", model)

    files = sorted(p for p in FROZEN.iterdir() if p.name != SUMS)
    (FROZEN / SUMS).write_text(
        "".join(f"{sha256_of(p)}  {p.name}\n" for p in files), encoding="utf-8")
    print(f"wrote {len(files)} files and {SUMS} to {FROZEN}")


if __name__ == "__main__":
    main()
