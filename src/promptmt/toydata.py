"""Synthetic word-aligned corpora for experiments and the overfit checks.

Every language gets its own deterministic pseudo-lexicon; sentence i picks
the same word indices in every language, so references are word-for-word
translations and translation quality is exactly learnable at desk scale.
The same source line maps to a different reference in every target
language, which is what makes direction conditioning observable.
"""

from __future__ import annotations

import json
from pathlib import Path

from .files import write_file
from .seeding import rng_for
from .text import train_bpe
from .vision import make_pseudo_vtok

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

LEXICON_SIZE = 18


def pseudo_word(lang: str, idx: int) -> str:
    """A stable 2-3 syllable pseudo word, distinct per (language, index)."""
    rng = rng_for("lexicon", lang, idx)
    n = 2 + int(rng.integers(0, 2))
    return "".join(_CONSONANTS[int(rng.integers(0, len(_CONSONANTS)))]
                   + _VOWELS[int(rng.integers(0, len(_VOWELS)))]
                   for _ in range(n))


def lexicon(lang: str) -> list[str]:
    return [pseudo_word(lang, i) for i in range(LEXICON_SIZE)]


def sentence_indices(line: int, seed: int) -> list[int]:
    rng = rng_for("sentence", seed, line)
    length = 5 + int(rng.integers(0, 3))
    return [int(i) for i in rng.integers(0, LEXICON_SIZE, size=length)]


def make_toy_corpus(out_dir: str | Path, n_lines: int = 32,
                    target_langs=("de", "fr", "cs"), pivot: str = "en",
                    seed: int = 0, m_v: int = 4, d_v: int = 32,
                    n_images: int = 8) -> Path:
    """Write the ``train`` split's corpus files, pseudo visual tokens and
    manifest; returns the manifest path.

    Images are shared across lines (``n_images`` distinct ones, assigned
    round-robin) so an image alone does not identify its sentence and the
    text stream stays load-bearing under source masking.
    """
    out_dir = Path(out_dir)
    languages = [pivot] + list(target_langs)
    sentences = [sentence_indices(i, seed) for i in range(n_lines)]
    for lang in languages:
        lex = lexicon(lang)
        lines = [" ".join(lex[j] for j in idxs) for idxs in sentences]
        write_file(out_dir / f"train.{lang}", "text file",
                   "\n".join(lines) + "\n")
    n_images = min(n_images, n_lines)
    image_ids = [f"train-{i % n_images:06d}" for i in range(n_lines)]
    write_file(out_dir / "train.ids", "image id file",
               "\n".join(image_ids) + "\n")
    vtok_path = out_dir / "train.vtok"
    make_pseudo_vtok(sorted(set(image_ids)), m_v, d_v, seed=seed,
                     path=vtok_path)
    manifest = {
        "split": "train",
        "languages": languages,
        "text_paths": {lang: f"train.{lang}" for lang in languages},
        "vtok_path": "train.vtok",
        "image_ids_path": "train.ids",
    }
    manifest_path = out_dir / "train.json"
    write_file(manifest_path, "manifest", json.dumps(manifest, indent=2))
    return manifest_path


def train_toy_vocab(out_dir: str | Path, languages, vocab_size: int = 360):
    """BPE over the toy corpus's ``train`` files; returns the saved
    vocabulary."""
    out_dir = Path(out_dir)
    corpus = [out_dir / f"train.{lang}" for lang in languages]
    vocab = train_bpe(corpus, vocab_size, min_freq=2, languages=languages)
    vocab.save(out_dir / "bpe")
    return vocab
