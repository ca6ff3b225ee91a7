"""Fixtures shared by several test modules."""

import pytest

from promptmt.text import load_manifest, load_parallel_examples, make_batches
from promptmt.toydata import make_toy_corpus, train_toy_vocab
from promptmt.vision import read_vtok


@pytest.fixture(scope="session")
def toy_batches(tmp_path_factory):
    """The acceptance suite's toy corpus, packed as in its overfit runs:
    ``(vocab size, batches, visual tokens)``."""
    root = tmp_path_factory.mktemp("toy")
    manifest = load_manifest(make_toy_corpus(
        root, n_lines=32, target_langs=("de", "fr", "cs"), seed=0, m_v=4,
        d_v=32, n_images=8))
    vocab = train_toy_vocab(root, manifest.languages)
    examples = load_parallel_examples(manifest, vocab, pivot="en")
    return (len(vocab), make_batches(examples, 512, seed=0),
            read_vtok(manifest.vtok_path))
