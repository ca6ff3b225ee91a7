"""Tests for BPE training, encoding round-trips, tagging, batching, masking,
and manifest validation."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from promptmt import text as tx
from promptmt.errors import ConfigError, LanguageError, VocabularyError
from promptmt.seeding import rng_for
from promptmt.toydata import make_toy_corpus, pseudo_word, train_toy_vocab

SAMPLE_SENTENCES = {
    "en": "a man plays with a red ball",
    "de": "ein mann spielt mit einem roten ball",
    "fr": "un homme joue avec un ballon rouge",
    "cs": "muž si hraje s červeným míčem",
    "lv": "vīrietis spēlējas ar sarkanu bumbu",
    "hi": "एक आदमी लाल गेंद से खेलता है",
    "tr": "bir adam kırmızı topla oynuyor",
}


FROZEN_BPE = Path(__file__).resolve().parents[1] / "perfbench/frozen/bpe"


def minimal_vocab(languages=("de", "fr")):
    base = tx.RESERVED_TOKENS + [tx.tag_token(l) for l in languages] \
        + [tx._BYTE_TO_CHAR[b] for b in range(256)]
    return tx.Vocabulary(tokens=base, languages=list(languages))


@pytest.fixture
def tiny_corpus(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text("aaab aaab\n", encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# BPE training
# ---------------------------------------------------------------------------

def test_bpe_first_merge_by_hand_count(tiny_corpus):
    # units "aaab" and " aaab": pair (a,a) occurs 4 times, beating (a,b)=2
    base = len(tx.RESERVED_TOKENS) + 256
    vocab = tx.train_bpe([tiny_corpus], vocab_size=base + 1, min_freq=2)
    assert vocab.merges == [("a", "a")]


def test_bpe_minimum_vocab_has_no_merges(tiny_corpus):
    base = len(tx.RESERVED_TOKENS) + 2 + 256
    vocab = tx.train_bpe([tiny_corpus], vocab_size=base, min_freq=1,
                         languages=["de", "fr"])
    assert vocab.merges == []
    assert len(vocab) == base


def test_bpe_vocab_size_below_minimum_rejected(tiny_corpus):
    with pytest.raises(ConfigError, match="below minimum"):
        tx.train_bpe([tiny_corpus], vocab_size=10)


def test_bpe_retraining_is_deterministic(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("the cat sat on the mat\nthe dog sat on the log\n" * 3,
                 encoding="utf-8")
    v1 = tx.train_bpe([p], vocab_size=300, languages=["de"])
    v2 = tx.train_bpe([p], vocab_size=300, languages=["de"])
    assert v1.merges == v2.merges
    assert v1.tokens == v2.tokens


def test_bpe_negative_min_freq_rejected(tiny_corpus):
    # -3 used to learn as min_freq 1
    with pytest.raises(ConfigError, match="^min_freq must be >= 0, got -3$"):
        tx.train_bpe([tiny_corpus], vocab_size=400, min_freq=-3)


def test_bpe_empty_corpus_rejected(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("\n\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="empty corpus"):
        tx.train_bpe([p], vocab_size=400)


@pytest.mark.parametrize("line, repeat, languages, vocab_size, literal", [
    ("the <unk> sat on the <unk>", 3, [], 291, "<unk>"),
    ("<2de> x", 5, ["de"], 300, "<2de>"),
])
def test_bpe_never_spells_reserved_or_tag_token(tmp_path, line, repeat,
                                                languages, vocab_size,
                                                literal):
    p = tmp_path / "c.txt"
    p.write_text(f"{line}\n" * repeat, encoding="utf-8")
    vocab = tx.train_bpe([p], vocab_size, min_freq=2, languages=languages)
    assert vocab.tokens.count(literal) == 1
    assert all(a + b != literal for a, b in vocab.merges)
    assert tx.decode(tx.encode(line, vocab), vocab) == line
    # the literal text stays content: its pieces are never the special id
    special = vocab.tokens.index(literal)
    assert special not in tx.encode(line, vocab)


def merge_pair(symbols, pair):
    """``symbols`` with every non-overlapping ``pair``, left to right,
    joined into one symbol."""
    a, b = pair
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == (a, b):
            out.append(a + b)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def reference_train_bpe(corpus_paths, vocab_size, min_freq=2, languages=()):
    """The full-recount learner ``train_bpe`` replaced: every merge recounts
    every pair of every word type. The one rule added since, skipping a
    pair that would spell a token already in the vocabulary, is the
    ``not in tokens`` filter. Returns (tokens, merges)."""
    base = tx.RESERVED_TOKENS + [tx.tag_token(l) for l in languages] \
        + [tx._BYTE_TO_CHAR[b] for b in range(256)]
    unit_freqs = {}
    for path in corpus_paths:
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            for unit in tx._split_units(tx.normalize_whitespace(line)):
                chars = tx._unit_to_chars(unit)
                unit_freqs[chars] = unit_freqs.get(chars, 0) + 1
    tokens = list(base)
    merges = []
    units = dict(unit_freqs)
    while len(tokens) < vocab_size:
        pair_freqs = {}
        for unit, freq in units.items():
            for a, b in zip(unit, unit[1:]):
                pair_freqs[(a, b)] = pair_freqs.get((a, b), 0) + freq
        candidates = [(f, p) for p, f in pair_freqs.items()
                      if f >= min_freq and p[0] + p[1] not in tokens]
        if not candidates:
            break
        best_freq = max(f for f, _ in candidates)
        best = min(p for f, p in candidates if f == best_freq)
        merges.append(best)
        tokens.append(best[0] + best[1])
        units = {merge_pair(u, best): f for u, f in units.items()}
    return tokens, merges


def assert_matches_reference(paths, vocab_size, min_freq, languages=()):
    vocab = tx.train_bpe(paths, vocab_size, min_freq=min_freq,
                         languages=languages)
    tokens, merges = reference_train_bpe(paths, vocab_size, min_freq,
                                         languages)
    assert vocab.merges == merges
    assert vocab.tokens == tokens
    return vocab


# "é" is two bytes and "€" three, whose stand-in characters sort in
# another order than the bytes do; "<2de>" and "<unk>" spell a tag and a
# reserved token
LETTERS = ["a", "b", "c", "é", "€", "<2de>", "<unk>"]


# every boundary str.splitlines splits a file's text at
LINE_BOUNDARIES = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
                   "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def bpe_corpora(draw):
    """The texts of 1-3 corpus files. Lines are over a 2-4 letter alphabet,
    so pair counts tie often, with runs such as "aaaa" whose pairs overlap.
    Words are split by a space, a tab or a no-break space, all of which
    separate words. A line may be blank or whitespace only, lines end at
    any line boundary, a file may have no boundary after its last line,
    and a file may be empty or blank; at least one line has a word."""
    alphabet = draw(st.lists(st.sampled_from(LETTERS), min_size=2,
                             max_size=4, unique=True))
    letter = st.sampled_from(alphabet)
    word = st.one_of(
        st.lists(letter, min_size=1, max_size=5).map("".join),
        st.tuples(letter, st.integers(2, 6)).map(lambda t: t[0] * t[1]))
    line = st.one_of(
        st.tuples(st.sampled_from([" ", "\t", "\xa0"]),
                  st.lists(word, min_size=1, max_size=6))
        .map(lambda t: t[0].join(t[1])),
        st.sampled_from(["", " ", "\t\xa0 "]))
    ended = st.tuples(line, st.sampled_from(LINE_BOUNDARIES)).map("".join)
    text = st.tuples(st.lists(ended, max_size=8), st.one_of(st.just(""), line)
                     ).map(lambda t: "".join(t[0]) + t[1])
    return draw(st.lists(text, min_size=1, max_size=3).filter(
        lambda texts: any(t.split() for t in texts)))


@settings(max_examples=150, deadline=None)
@given(bpe_corpora(), st.integers(0, 3),
       st.sampled_from([(), ("de",), ("de", "fr")]), st.integers(0, 40))
# a merge whose neighbour is itself a merge just made in the same word
@example(["abab abab"], 1, (), 40)
@example(["aaaa aaaa"], 1, (), 40)
@example(["aab aab baa"], 1, (), 40)
# every pair ties at count 1 after the merges "cd" and "ab"; by text
# ("ab", "ab") comes first, by symbol id the space byte's ("Ġ", "cd")
@example(["cdcd abab cd"], 1, (), 4)
# no adjacent pair at all
@example(["a"], 1, (), 40)
# one-byte words only, in a blank file and across every line boundary
@example(["a b\r\nb", " \n\t\n",
          "".join(f"c{boundary}" for boundary in LINE_BOUNDARIES)],
         0, ("de",), 40)
def test_incremental_bpe_matches_full_recount(tmp_path_factory, texts,
                                              min_freq, languages, extra):
    root = tmp_path_factory.mktemp("bpe")
    paths = [root / f"corpus{i}.txt" for i in range(len(texts))]
    for p, text in zip(paths, texts):
        p.write_bytes(text.encode("utf-8"))
    base = len(tx.RESERVED_TOKENS) + len(languages) + 256
    vocab = assert_matches_reference(paths, base + extra, min_freq,
                                     languages)
    for line in (line for text in texts for line in text.splitlines()):
        assert tx.decode(tx.encode(line, vocab), vocab) == \
            tx.normalize_whitespace(line)


def toy_corpus(root):
    """The toy corpus's files and languages."""
    manifest = toy_manifest(root)
    return ([manifest.text_paths[lang] for lang in manifest.languages],
            manifest.languages)


def zipf_corpus(root):
    """300 Zipf-like lines, the benchmark tokenize corpus's shape cut
    down, and no languages."""
    p = root / "zipf.txt"
    p.write_text("\n".join(zipf_lines(0, n_lines=300)) + "\n",
                 encoding="utf-8")
    return [p], ()


@pytest.mark.parametrize("corpus, vocab_size, reached", [
    pytest.param(toy_corpus, 360, True, id="360-True"),
    pytest.param(toy_corpus, 600, False, id="600-False"),
    pytest.param(zipf_corpus, len(tx.RESERVED_TOKENS) + 256 + 120, True,
                 id="zipf-120-True"),
])
def test_incremental_bpe_matches_full_recount_on_toy_corpus(tmp_path, corpus,
                                                            vocab_size,
                                                            reached):
    paths, languages = corpus(tmp_path)
    vocab = assert_matches_reference(paths, vocab_size, 2, languages)
    # at 600 no pair reaches min_freq before the vocabulary is full
    assert (len(vocab) == vocab_size) == reached


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

def test_encode_empty_roundtrip():
    vocab = minimal_vocab()
    assert tx.encode("", vocab) == []
    assert tx.decode([], vocab) == ""


@pytest.mark.parametrize("lang", sorted(SAMPLE_SENTENCES))
def test_roundtrip_seven_languages(tmp_path, lang):
    p = tmp_path / "all.txt"
    p.write_text("\n".join(SAMPLE_SENTENCES.values()), encoding="utf-8")
    vocab = tx.train_bpe([p], vocab_size=320, min_freq=2,
                         languages=list(SAMPLE_SENTENCES))
    sent = SAMPLE_SENTENCES[lang]
    assert tx.decode(tx.encode(sent, vocab), vocab) == sent


def test_greedy_merge_application_hand_simulation(tiny_corpus):
    base = len(tx.RESERVED_TOKENS) + 256
    vocab = tx.train_bpe([tiny_corpus], vocab_size=base + 1, min_freq=2)
    # "aaab" -> (a,a,a,b) -> apply (a,a) left to right -> (aa, a, b)
    ids = tx.encode("aaab", vocab)
    assert [vocab.tokens[i] for i in ids] == ["aa", "a", "b"]


@settings(max_examples=60)
@given(st.text(min_size=0, max_size=40))
def test_roundtrip_property_arbitrary_text(s):
    vocab = minimal_vocab()
    normalized = tx.normalize_whitespace(s)
    assert tx.decode(tx.encode(s, vocab), vocab) == normalized


# ---------------------------------------------------------------------------
# corpus encoding: encode_lines against the per-line encoder it replaced
# ---------------------------------------------------------------------------

def reference_encode(text, vocab):
    """The line encoder ``encode_lines`` replaced: every merge, in order,
    over every word unit of the line, a repeated unit paid for again, and
    a merge whose pair the unit does not hold scanned all the same."""
    ids = []
    for unit in tx._split_units(tx.normalize_whitespace(text)):
        symbols = tx._unit_to_chars(unit)
        for pair in vocab.merges:
            symbols = merge_pair(symbols, pair)
        for sym in symbols:
            ids.append(vocab._token_to_id.get(sym, tx.UNK_ID))
    return ids


def toy_manifest(root):
    return tx.load_manifest(make_toy_corpus(
        root, n_lines=32, target_langs=("de", "fr", "cs"), seed=0, m_v=4,
        d_v=32, n_images=8))


def zipf_lines(seed, n_lexicon=3000, n_lines=1000):
    """Lines of 5-12 pseudo words drawn with p(rank r) ~ 1/r from a seeded
    lexicon in a seeded rank order, so words repeat as they do in text."""
    lexicon = sorted({pseudo_word(f"zipf{seed}", i) for i in range(n_lexicon)})
    rng = rng_for("zipf-lines", seed)
    rng.shuffle(lexicon)
    p = 1.0 / np.arange(1, len(lexicon) + 1)
    p /= p.sum()
    return [" ".join(lexicon[int(i)] for i in
                     rng.choice(len(lexicon), size=int(rng.integers(5, 13)),
                                p=p))
            for _ in range(n_lines)]


def random_lines(seed, n_words=3000):
    """Every one of ``n_words`` random 3-9 letter words (some letters
    multi-byte) twice, ten to a line, so merging can run to thousands of
    tokens before no pair reaches a count of 2."""
    letters = list("abcdefghijklmnopqrstuvwxyz") + ["é", "č", "ğ", "गें", "€"]
    rng = rng_for("random-lines", seed)
    words = sorted({"".join(letters[int(i)] for i in rng.integers(
        0, len(letters), size=int(rng.integers(3, 10))))
        for _ in range(n_words)})
    order = np.concatenate([rng.permutation(len(words)) for _ in range(2)])
    return [" ".join(words[int(i)] for i in order[k:k + 10])
            for k in range(0, len(order), 10)]


def corpus_words(paths):
    return sorted({w for path in paths
                   for w in path.read_text(encoding="utf-8").split()})


@pytest.fixture(scope="module")
def encoding_vocabs(tmp_path_factory):
    """name -> (vocabulary, words its property draws lines from): the
    tiny-corpus vocabulary and the toy corpus's at 360 and at 600 (every
    pair reaching min_freq merged), over the toy corpus's words; 500 merges
    on a Zipf-like corpus, as in the benchmark's tokenize workload; and an
    8000-token vocabulary on a random corpus."""
    root = tmp_path_factory.mktemp("encode")
    tiny = root / "tiny.txt"
    tiny.write_text("aaab aaab\n", encoding="utf-8")
    manifest = toy_manifest(root)
    paths = [manifest.text_paths[lang] for lang in manifest.languages]
    toy_words = corpus_words(paths)
    for name, lines in (("zipf", zipf_lines(0)),
                        ("random", random_lines(0))):
        (root / f"{name}.txt").write_text("\n".join(lines) + "\n",
                                         encoding="utf-8")
    base = len(tx.RESERVED_TOKENS) + 256
    vocabs = {
        "tiny": (tx.train_bpe([tiny], base + 1), toy_words),
        "toy360": (tx.train_bpe(paths, 360, 2, manifest.languages),
                   toy_words),
        "toy600": (tx.train_bpe(paths, 600, 2, manifest.languages),
                   toy_words),
        "zipf500": (tx.train_bpe([root / "zipf.txt"], base + 500),
                    corpus_words([root / "zipf.txt"])),
        "random8000": (tx.train_bpe([root / "random.txt"], 8000),
                       corpus_words([root / "random.txt"])),
    }
    assert len(vocabs["zipf500"][0].merges) == 500
    assert len(vocabs["random8000"][0]) == 8000
    return vocabs


# literal specials, multi-byte characters, and words the merges touch
SEED_WORDS = ["<unk>", "<2de>", "aaab", "aaaa", "é", "míčem", "गेंद", "€a"]


@st.composite
def corpora(draw, words):
    """Lines over a small pool of words, so words repeat within and across
    lines, with blank and whitespace-only lines and mixed separators."""
    word = st.one_of(st.sampled_from(words + SEED_WORDS),
                     st.text(alphabet="abé€<>", min_size=1, max_size=6))
    pool = draw(st.lists(word, min_size=1, max_size=6))
    gap = st.sampled_from([" ", "  ", "\t", " \t "])
    line = st.one_of(
        st.sampled_from(["", "   ", "\t"]),
        st.lists(st.tuples(st.sampled_from(pool), gap), min_size=1,
                 max_size=8).map(lambda ws: "".join(w + g for w, g in ws)))
    return draw(st.lists(line, min_size=0, max_size=10))


@pytest.mark.parametrize("name", ["tiny", "toy360", "toy600", "zipf500",
                                  "random8000"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_encode_lines_matches_per_line_reference(encoding_vocabs, name,
                                                 data):
    vocab, words = encoding_vocabs[name]
    lines = data.draw(corpora(words))
    expected = [reference_encode(line, vocab) for line in lines]
    assert tx.encode_lines(lines, vocab) == expected
    for line, ids in zip(lines, expected):
        assert tx.encode(line, vocab) == ids


# ---------------------------------------------------------------------------
# decode against the run-buffer decoder it replaced
# ---------------------------------------------------------------------------

def reference_decode(ids, vocab):
    """The decoder ``decode`` replaced: runs of content tokens decoded as
    UTF-8 one run at a time, UNK and MASK spelled between runs, and the
    result returned as it came out, newlines and doubled spaces included."""
    pieces = []
    buf = []

    def flush():
        if buf:
            data = bytes(tx._CHAR_TO_BYTE[c] for c in "".join(buf))
            pieces.append(data.decode("utf-8", errors="replace"))
            buf.clear()

    for i in ids:
        i = int(i)
        if i in (tx.PAD_ID, tx.BOS_ID, tx.EOS_ID) or vocab.is_tag(i):
            continue
        if i in (tx.UNK_ID, tx.MASK_ID):
            flush()
            pieces.append(vocab.tokens[i])
            continue
        buf.append(vocab.tokens[i])
    flush()
    return "".join(pieces)


@pytest.mark.parametrize("name", ["frozen", "toy360"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_decode_matches_normalized_reference(encoding_vocabs, name, data):
    vocab = (tx.Vocabulary.load(FROZEN_BPE) if name == "frozen"
             else encoding_vocabs[name][0])
    assert vocab.merges
    ids = data.draw(st.lists(st.integers(0, len(vocab) - 1), max_size=24))
    want = reference_decode(ids, vocab)
    assert tx.decode(ids, vocab) == tx.normalize_whitespace(want)


@pytest.mark.parametrize("ids, raw, text", [
    # the byte symbols of "\n", " " and "\t" around content
    ([1, 10 + 5, 103, 10 + 5, 10 + 5, 104, 32 + 5, 2], "\nb\n\nc ", "b c"),
    ([32 + 5, 3, 9 + 5, 4, 32 + 5], " <unk>\t<mask> ", "<unk> <mask>"),
    # a partial UTF-8 sequence either side of UNK
    ([0xC3 + 5, 3, 0xA9 + 5], "\ufffd<unk>\ufffd", "\ufffd<unk>\ufffd"),
], ids=["newlines", "tab beside UNK and MASK", "partial UTF-8"])
def test_decode_normalizes_whitespace(ids, raw, text):
    vocab = minimal_vocab(())
    assert reference_decode(ids, vocab) == raw
    assert tx.decode(ids, vocab) == text


def hand_vocab(merges):
    """The byte alphabet plus one token per merge, in merge order."""
    base = minimal_vocab(())
    return tx.Vocabulary(tokens=base.tokens + [a + b for a, b in merges],
                         languages=[], merges=merges)


@pytest.mark.parametrize("merges, word, pieces", [
    # a == b: left to right, without overlap
    ([("a", "a")], "aaa", ["aa", "a"]),
    ([("a", "a")], "aaaa", ["aa", "aa"]),
    ([("a", "a"), ("aa", "aa")], "aaaaa", ["aaaa", "a"]),
    # a pair that only appears after an earlier merge
    ([("a", "b"), ("c", "ab")], "cab", ["cab"]),
    ([("b", "c"), ("a", "bc"), ("abc", "d")], "abcd", ["abcd"]),
    # a pair that an earlier merge took apart
    ([("a", "b"), ("b", "c")], "abc", ["ab", "c"]),
    ([("b", "c"), ("a", "b")], "abc", ["a", "bc"]),
    # a pair that only a later merge would make is not applied again
    ([("ab", "c"), ("a", "b")], "abc", ["ab", "c"]),
    # lists, as a caller building the table by hand may give them
    ([["a", "b"], ["ab", "c"]], "abcab", ["abc", "ab"]),
])
def test_encode_applies_merges_in_order(merges, word, pieces):
    vocab = hand_vocab(merges)
    ids = tx.encode(word, vocab)
    assert [vocab.tokens[i] for i in ids] == pieces
    assert ids == reference_encode(word, vocab)
    assert tx.encode_lines([word, word], vocab) == [ids, ids]


def test_load_parallel_examples_matches_per_line_reference(tmp_path):
    manifest = toy_manifest(tmp_path)
    vocab = train_toy_vocab(tmp_path, manifest.languages)
    sources = tx.manifest_lines(manifest, "en")
    image_ids = tx.manifest_image_ids(manifest, len(sources))
    expected = []
    for tgt in ("de", "fr", "cs"):
        refs = tx.manifest_lines(manifest, tgt)
        for n, (src, ref) in enumerate(zip(sources, refs)):
            expected.append(tx.ParallelExample(
                example_id=f"train-{n:06d}-en2{tgt}", source_lang="en",
                target_lang=tgt,
                source_ids=[vocab.tag_id(tgt), tx.BOS_ID]
                + reference_encode(src, vocab) + [tx.EOS_ID],
                target_ids=[tx.BOS_ID] + reference_encode(ref, vocab)
                + [tx.EOS_ID],
                image_id=image_ids[n]))
    assert tx.load_parallel_examples(manifest, vocab, pivot="en") == expected


def test_encode_lines_keeps_nothing_between_calls(tiny_corpus):
    # "aaab" is (aa, a, b) under the (a, a) merge and four bytes without it
    merged = tx.train_bpe([tiny_corpus], len(tx.RESERVED_TOKENS) + 256 + 1)
    plain = minimal_vocab(())
    lines = ["aaab aaab", "aaab", "", "aaab"]
    assert tx.encode("aaab", merged) != tx.encode("aaab", plain)
    for vocab in (merged, plain, merged, plain):
        assert tx.encode_lines(lines, vocab) == \
            [reference_encode(line, vocab) for line in lines]
    # lines sharing a unit get their own lists
    out = tx.encode_lines(lines, merged)
    out[1].append(-1)
    assert out[3] == reference_encode("aaab", merged)


def test_vocab_save_load_roundtrip(tmp_path, tiny_corpus):
    base = len(tx.RESERVED_TOKENS) + 1 + 256
    vocab = tx.train_bpe([tiny_corpus], vocab_size=base + 3, min_freq=1,
                         languages=["de"])
    vocab.save(tmp_path / "bpe")
    loaded = tx.Vocabulary.load(tmp_path / "bpe")
    assert loaded.tokens == vocab.tokens
    assert loaded.merges == vocab.merges
    assert loaded.languages == vocab.languages


def test_vocab_load_ignores_tag_shaped_merges(tmp_path):
    # four merges turn the literal text "<2fr>" into one content token that
    # looks like a tag; only the block after the reserved ids holds tags
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("<2fr>\n" * 5, encoding="utf-8")
    base = len(tx.RESERVED_TOKENS) + 1 + 256
    vocab = tx.train_bpe([corpus], vocab_size=base + 4, min_freq=2,
                         languages=["de"])
    assert vocab.tokens[-1] == "<2fr>"
    vocab.save(tmp_path / "bpe")
    loaded = tx.Vocabulary.load(tmp_path / "bpe")
    assert loaded.languages == ["de"]
    assert loaded.tag_id("de") == len(tx.RESERVED_TOKENS)
    assert not loaded.is_tag(len(vocab) - 1)
    with pytest.raises(LanguageError, match="fr"):
        loaded.tag_id("fr")
    assert tx.decode(tx.encode("<2fr>", loaded), loaded) == "<2fr>"


def save_vocab_with_merges(tmp_path, merges_text):
    """Save a vocabulary with the merges (a,b), (ab,c), (ab,d) under
    tmp_path / "bpe", then replace its .merges file by ``merges_text``."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("abc abc abd\n" * 3, encoding="utf-8")
    base = len(tx.RESERVED_TOKENS) + 256
    vocab = tx.train_bpe([corpus], vocab_size=base + 3, min_freq=2)
    vocab.save(tmp_path / "bpe")
    assert vocab.merges == [("a", "b"), ("ab", "c"), ("ab", "d")]
    (tmp_path / "bpe.merges").write_text(merges_text, encoding="utf-8")


@pytest.mark.parametrize("bad, line_no, message", [
    ("a b\nab\n", 2, "two space-separated tokens"),
    ("a b c\n", 1, "two space-separated tokens"),
    ("a  b\n", 1, "two space-separated tokens"),
    ("a b\n\n", 2, "two space-separated tokens"),
    ("a b\nxy c\n", 2, "'xy' is neither a byte symbol nor"),
    ("abc d\n", 1, "'abc' is neither a byte symbol nor"),
])
def test_vocab_load_rejects_bad_merges(tmp_path, bad, line_no, message):
    save_vocab_with_merges(tmp_path, bad)
    path = tmp_path / "bpe.merges"
    with pytest.raises(VocabularyError) as err:
        tx.Vocabulary.load(tmp_path / "bpe")
    assert f"{path} line {line_no}" in str(err.value)
    assert message in str(err.value)


@pytest.mark.parametrize("special, tokens, merges", [
    ("<2de>", ["<2", "<2d", "<2de"], "< 2\n<2 d\n<2d e\n<2de >\n"),
    ("<unk>", ["<u", "<un", "<unk"], "< u\n<u n\n<un k\n<unk >\n"),
])
def test_vocab_load_rejects_merge_spelling_special_token(tmp_path, special,
                                                         tokens, merges):
    # loaded, "x <2de>" would encode to the tag id and decode to "x "
    base = minimal_vocab(("de",))
    (tmp_path / "bpe.vocab").write_text(
        "\n".join(base.tokens + tokens) + "\n", encoding="utf-8")
    (tmp_path / "bpe.merges").write_text(merges, encoding="utf-8")
    with pytest.raises(VocabularyError) as err:
        tx.Vocabulary.load(tmp_path / "bpe")
    assert f"{tmp_path / 'bpe.merges'} line 4" in str(err.value)
    assert f"{special!r} is a reserved or language tag" in str(err.value)


@pytest.mark.parametrize("merges, line_no, first", [
    ("a b\na b\n", 2, 1),
    ("a b\nb c\nab c\na bc\n", 4, 3),
])
def test_vocab_load_rejects_merge_result_produced_twice(tmp_path, merges,
                                                        line_no, first):
    # "a bc" after "ab c": two merges spelling "abc" would make the table's
    # meaning depend on the order they are applied in
    base = minimal_vocab(())
    (tmp_path / "bpe.vocab").write_text(
        "\n".join(base.tokens + ["ab", "bc", "abc"]) + "\n",
        encoding="utf-8")
    (tmp_path / "bpe.merges").write_text(merges, encoding="utf-8")
    path = tmp_path / "bpe.merges"
    with pytest.raises(VocabularyError) as err:
        tx.Vocabulary.load(tmp_path / "bpe")
    assert f"{path} line {line_no}" in str(err.value)
    assert f"already produced by line {first}" in str(err.value)


def layout_error(tmp_path, line_no, expected, found):
    """Vocabulary.load's message for a ``bpe.vocab`` under ``tmp_path``
    whose line ``line_no`` is not the token its layout puts there."""
    return (f"{tmp_path / 'bpe.vocab'} line {line_no}: expected {expected}, "
            f"found {found} (the reserved and tag tokens, the 256 byte "
            f"symbols, then the result of each merge in "
            f"{tmp_path / 'bpe.merges'})")


@pytest.mark.parametrize("extra, merges", [
    (["extra"], ""),
    (["ab", "abc"], "a b\n"),
    (["<2fr>"], ""),
])
def test_vocab_load_rejects_token_no_merge_produces(tmp_path, extra, merges):
    # encode can never emit such a token, so its row would be dead weight
    base = minimal_vocab(("de",))
    path = tmp_path / "bpe.vocab"
    path.write_text("\n".join(base.tokens + extra) + "\n", encoding="utf-8")
    (tmp_path / "bpe.merges").write_text(merges, encoding="utf-8")
    with pytest.raises(VocabularyError) as err:
        tx.Vocabulary.load(tmp_path / "bpe")
    assert str(err.value) == layout_error(
        tmp_path, len(base) + len(extra), "the end of the file",
        repr(extra[-1]))


def _swap(tokens, a, b):
    i, j = tokens.index(a), tokens.index(b)
    tokens[i], tokens[j] = b, a
    return tokens


# the vocabulary of save_vocab_with_merges holds the reserved tokens, the
# byte symbols ("a" on line 5 + 97 + 1 = 103, "b" on line 104), then "ab",
# "abc" and "abd" on lines 262-264
@pytest.mark.parametrize("edit, merges, line_no, expected, found", [
    # this .vocab used to load, and encode("banana") gave b<unk>n<unk>n<unk>
    pytest.param(lambda t: [x for x in t[:-3] if x != "a"], "", 103,
                 "'a'", "'b'", id="byte a dropped"),
    # this one too, and encode("ab") gave the ids of "ba"
    pytest.param(lambda t: _swap(t[:-3], "a", "b"), "", 103, "'a'", "'b'",
                 id="bytes a and b swapped"),
    pytest.param(lambda t: _swap(t, "abc", "abd"), "a b\nab c\nab d\n", 263,
                 "'abc'", "'abd'", id="merge result moved"),
    pytest.param(lambda t: t[:-1], "a b\nab c\nab d\n", 264, "'abd'",
                 "the end of the file", id="last line missing"),
    pytest.param(lambda t: t, "a b\nab x\n", 263, "'abx'", "'abc'",
                 id="merge result not in .vocab"),
])
def test_vocab_load_refuses_tokens_off_the_layout(tmp_path, edit, merges,
                                                  line_no, expected, found):
    save_vocab_with_merges(tmp_path, merges)
    path = tmp_path / "bpe.vocab"
    tokens = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(tokens)) + "\n", encoding="utf-8")
    with pytest.raises(VocabularyError) as err:
        tx.Vocabulary.load(tmp_path / "bpe")
    assert str(err.value) == layout_error(tmp_path, line_no, expected, found)


def test_vocabulary_names_duplicate_token(tmp_path):
    tokens = minimal_vocab(("de",)).tokens + ["a", "<2de>"]
    with pytest.raises(VocabularyError) as err:
        tx.Vocabulary(tokens=tokens, languages=["de"])
    assert str(err.value) == "duplicate token '<2de>' in vocabulary"
    path = tmp_path / "bpe.vocab"
    path.write_text("\n".join(tokens[:-1]) + "\n", encoding="utf-8")
    (tmp_path / "bpe.merges").write_text("", encoding="utf-8")
    with pytest.raises(VocabularyError) as err:
        tx.Vocabulary.load(tmp_path / "bpe")
    assert str(err.value) == f"{path}: duplicate token 'a' in vocabulary"


def test_bpe_refuses_duplicate_language(tmp_path):
    # refused before the corpus is read: the path does not exist
    with pytest.raises(ConfigError) as err:
        tx.train_bpe([tmp_path / "absent.txt"], 400,
                     languages=["de", "fr", "DE"])
    assert str(err.value) == "language 'DE' given twice (as 'de' and 'DE')"


def test_vocab_load_frozen_benchmark_vocabulary():
    vocab = tx.Vocabulary.load(FROZEN_BPE)
    lines = Path(f"{FROZEN_BPE}.merges").read_text(encoding="utf-8").splitlines()
    assert vocab.merges == [tuple(line.split(" ")) for line in lines]
    assert len(vocab) == 360


# ---------------------------------------------------------------------------
# target-language prefixing
# ---------------------------------------------------------------------------

def test_prefix_target_token():
    vocab = minimal_vocab(["de", "fr"])
    ids = [tx.BOS_ID, 17, tx.EOS_ID]
    out = tx.prefix_target_token(ids, "de", vocab)
    assert out == [vocab.tag_id("de"), tx.BOS_ID, 17, tx.EOS_ID]
    assert ids == [tx.BOS_ID, 17, tx.EOS_ID]  # input untouched


def test_prefix_twice_rejected():
    vocab = minimal_vocab(["de", "fr"])
    once = tx.prefix_target_token([tx.BOS_ID, tx.EOS_ID], "de", vocab)
    with pytest.raises(LanguageError, match="already"):
        tx.prefix_target_token(once, "fr", vocab)


def test_prefix_unknown_language():
    vocab = minimal_vocab(["de", "fr"])
    with pytest.raises(LanguageError, match="zz"):
        tx.prefix_target_token([tx.BOS_ID, tx.EOS_ID], "zz", vocab)


def test_decode_refuses_id_past_vocabulary():
    vocab = minimal_vocab(["de"])
    with pytest.raises(VocabularyError) as exc:
        tx.decode([tx.BOS_ID, len(vocab), tx.EOS_ID], vocab)
    assert str(exc.value) == \
        f"token id {len(vocab)} outside vocabulary of size {len(vocab)}"


def test_vocabulary_refuses_language_without_tag_token():
    tokens = minimal_vocab(["de"]).tokens
    with pytest.raises(VocabularyError) as exc:
        tx.Vocabulary(tokens=tokens, languages=["de", "fr"])
    assert str(exc.value) == "tag id 6 must be '<2fr>', found 'Ā'"


def test_vocabulary_refuses_tag_after_the_byte_symbols():
    # the tag ids are the ids after the reserved ones; a tag found later
    # would make is_tag, prefix_target_token and the model disagree
    bytes_ = minimal_vocab(()).tokens[len(tx.RESERVED_TOKENS):]
    with pytest.raises(VocabularyError) as exc:
        tx.Vocabulary(tokens=tx.RESERVED_TOKENS + bytes_ + ["<2de>"],
                      languages=["de"])
    assert str(exc.value) == "tag id 5 must be '<2de>', found 'Ā'"


def test_vocabulary_refuses_tags_out_of_language_order():
    tokens = minimal_vocab(["fr", "de"]).tokens
    with pytest.raises(VocabularyError) as exc:
        tx.Vocabulary(tokens=tokens, languages=["de", "fr"])
    assert str(exc.value) == "tag id 5 must be '<2de>', found '<2fr>'"
    vocab = tx.Vocabulary(tokens=tokens, languages=["fr", "de"])
    assert [vocab.tag_id(l) for l in ("fr", "de", "DE")] == [5, 6, 6]
    assert [vocab.is_tag(i) for i in range(4, 8)] == [False, True, True,
                                                      False]


def test_vocab_load_refuses_a_language_tagged_twice_in_two_cases(tmp_path):
    # once loaded with "de" and "DE" both on id 5, and "<2DE>" (id 6)
    # read as content: decode([BOS, 6, EOS]) gave "<2DE>"
    tokens = minimal_vocab(["de"]).tokens
    path = tmp_path / "bpe.vocab"
    path.write_text("\n".join(tokens[:6] + ["<2DE>"] + tokens[6:]) + "\n",
                    encoding="utf-8")
    (tmp_path / "bpe.merges").write_text("", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        tx.Vocabulary.load(tmp_path / "bpe")
    assert str(exc.value) == \
        f"{path}: language 'DE' given twice (as 'de' and 'DE')"


def test_prefixes_differ_only_in_position_zero():
    langs = ["de", "fr", "cs", "lv", "hi", "tr"]
    vocab = minimal_vocab(langs)
    ids = [tx.BOS_ID, 9, 8, tx.EOS_ID]
    outs = [tx.prefix_target_token(ids, l, vocab) for l in langs]
    assert len({o[0] for o in outs}) == len(langs)
    for o in outs:
        assert o[1:] == ids


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def make_example(eid, src_len, tgt_len):
    return tx.ParallelExample(
        example_id=eid, source_lang="en", target_lang="de",
        source_ids=[5, tx.BOS_ID] + [10] * (src_len - 3) + [tx.EOS_ID],
        target_ids=[tx.BOS_ID] + [11] * (tgt_len - 2) + [tx.EOS_ID],
        image_id=eid)


def test_three_equal_examples_one_batch():
    exs = [make_example(f"e{i}", 5, 5) for i in range(3)]
    batches = tx.make_batches(exs, max_tokens=15)
    assert len(batches) == 1
    assert len(batches[0].examples) == 3


def test_max_tokens_below_longest_is_error():
    exs = [make_example("e0", 10, 4)]
    with pytest.raises(ConfigError, match="max_tokens"):
        tx.make_batches(exs, max_tokens=8)


@settings(max_examples=80)
@given(st.lists(st.tuples(st.integers(3, 12), st.integers(2, 12)),
                min_size=1, max_size=6),
       st.integers(12, 40))
def test_packing_against_brute_force_oracle(lens, cap):
    exs = [make_example(f"e{i}", s, t) for i, (s, t) in enumerate(lens)]
    batches = tx.make_batches(exs, max_tokens=cap)

    def cost(group):
        return max(max(len(e.source_ids) for e in group),
                   max(len(e.target_ids) for e in group)) * len(group)

    # every batch respects the padded-token budget
    for b in batches:
        assert cost(b.examples) <= cap
    # conservation: the multiset of ids is preserved
    got = sorted(e.example_id for b in batches for e in b.examples)
    assert got == sorted(e.example_id for e in exs)
    # greedy maximality over the sorted stream: no batch could also have
    # taken the first example of the following batch
    for a, b in zip(batches, batches[1:]):
        assert cost(a.examples + [b.examples[0]]) > cap


def test_batch_shuffle_deterministic():
    exs = [make_example(f"e{i}", 4 + i % 3, 4) for i in range(12)]
    b1 = tx.make_batches(exs, max_tokens=12, seed=3)
    b2 = tx.make_batches(exs, max_tokens=12, seed=3)
    b3 = tx.make_batches(exs, max_tokens=12, seed=4)
    ids = lambda bs: [[e.example_id for e in b.examples] for b in bs]
    assert ids(b1) == ids(b2)
    assert sorted(map(tuple, ids(b1))) == sorted(map(tuple, ids(b3)))


def test_padded_matrix_uses_pad_id():
    exs = [make_example("a", 5, 4), make_example("b", 7, 6)]
    batch = tx.make_batches(exs, max_tokens=100)[0]
    src = batch.padded("source")
    assert src.shape == (2, 7)
    assert src[0, 5] == tx.PAD_ID and src[0, 6] == tx.PAD_ID


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------

def masked_fixture_ids(vocab):
    return tx.prefix_target_token(
        [tx.BOS_ID] + list(range(300, 310)) + [tx.EOS_ID], "de", vocab)


def test_mask_ratio_zero_unchanged():
    vocab = minimal_vocab()
    ids = masked_fixture_ids(vocab)
    assert tx.mask_source(ids, 0.0, seed=1, vocab=vocab) == ids


def test_mask_ratio_one_masks_all_content():
    vocab = minimal_vocab()
    ids = masked_fixture_ids(vocab)
    out = tx.mask_source(ids, 1.0, seed=1, vocab=vocab)
    assert out[0] == vocab.tag_id("de") and out[1] == tx.BOS_ID
    assert out[-1] == tx.EOS_ID
    assert all(i == tx.MASK_ID for i in out[2:-1])


def test_mask_half_exact_count_and_determinism():
    vocab = minimal_vocab()
    ids = masked_fixture_ids(vocab)  # 10 content tokens
    out1 = tx.mask_source(ids, 0.5, seed=7, vocab=vocab)
    out2 = tx.mask_source(ids, 0.5, seed=7, vocab=vocab)
    assert out1 == out2
    assert sum(i == tx.MASK_ID for i in out1) == 5
    out3 = tx.mask_source(ids, 0.5, seed=8, vocab=vocab)
    assert sum(i == tx.MASK_ID for i in out3) == 5


@settings(max_examples=40)
@given(st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_mask_preserves_length_and_specials(ratio, seed):
    vocab = minimal_vocab()
    ids = masked_fixture_ids(vocab)
    out = tx.mask_source(ids, ratio, seed=seed, vocab=vocab)
    assert len(out) == len(ids)
    assert out[0] == ids[0] and out[1] == ids[1] and out[-1] == ids[-1]
    # half-up rounding of the masked count
    assert sum(i == tx.MASK_ID for i in out) == int(np.floor(ratio * 10 + 0.5))


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def write_manifest(tmp_path, lines_by_lang, name="train"):
    for lang, lines in lines_by_lang.items():
        (tmp_path / f"{name}.{lang}").write_text("\n".join(lines) + "\n",
                                                 encoding="utf-8")
    manifest = {
        "split": name,
        "languages": list(lines_by_lang),
        "text_paths": {l: f"{name}.{l}" for l in lines_by_lang},
        "vtok_path": None,
    }
    mpath = tmp_path / f"{name}.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    return mpath


def test_manifest_roundtrip_and_example_loading(tmp_path):
    mpath = write_manifest(tmp_path, {
        "en": ["a cat", "a dog"],
        "de": ["eine katze", "ein hund"],
        "fr": ["un chat", "un chien"],
    })
    manifest = tx.load_manifest(mpath)
    vocab = minimal_vocab(["de", "fr"])
    examples = tx.load_parallel_examples(manifest, vocab, pivot="en")
    assert len(examples) == 4  # 2 lines x 2 directions
    for ex in examples:
        assert ex.source_ids[0] == vocab.tag_id(ex.target_lang)
        assert ex.source_ids[1] == tx.BOS_ID
        assert ex.source_ids[-1] == tx.EOS_ID
        assert ex.target_ids[0] == tx.BOS_ID
        assert ex.target_ids[-1] == tx.EOS_ID


def test_manifest_rejects_misaligned_files(tmp_path):
    mpath = write_manifest(tmp_path, {
        "en": ["a cat", "a dog"],
        "de": ["eine katze"],
    })
    with pytest.raises(ConfigError, match="misaligned"):
        tx.load_manifest(mpath)


def test_manifest_missing_file(tmp_path):
    mpath = write_manifest(tmp_path, {"en": ["x"], "de": ["y"]})
    (tmp_path / "train.de").unlink()
    with pytest.raises(ConfigError, match="train.de"):
        tx.load_manifest(mpath)


@pytest.mark.parametrize("languages, twice", [
    (["en", "de", "de", "fr"], "'de' given twice (as 'de' and 'de')"),
    (["en", "de", "fr", "DE"], "'DE' given twice (as 'de' and 'DE')"),
], ids=["same case", "other case"])
def test_manifest_refuses_language_given_twice(tmp_path, languages, twice):
    # loaded, en->de would make each of its examples twice; refused before
    # any text path is looked up
    mpath = write_manifest(tmp_path, {"en": ["x"], "de": ["y"], "fr": ["z"]})
    raw = json.loads(mpath.read_text(encoding="utf-8"))
    raw["languages"] = languages
    mpath.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        tx.load_manifest(mpath)
    assert str(err.value) == f"manifest {mpath}: language {twice}"
