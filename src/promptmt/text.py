"""Multilingual text pipeline: shared subword vocabulary, byte-level BPE,
target-language tagging, token-count batching, and source masking.

Tokenization is byte-level: every line is whitespace-normalized and split
into words, each word after the first carrying its leading space. Word
bytes are mapped to printable stand-in characters (so vocabulary files
stay one-token-per-line), and BPE merges never cross word boundaries.
Decoding reverses the mapping exactly, so decode(encode(t)) == t for any
whitespace-normalized text.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, LanguageError, VocabularyError
from .files import (about, config_from_dict, read_json, read_lines,
                    write_file)
from .seeding import rng_for

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
MASK_ID = 4

RESERVED_TOKENS = ["<pad>", "<s>", "</s>", "<unk>", "<mask>"]


def _byte_to_char():
    """Invertible byte -> printable-char table (GPT-2 convention): printable
    latin bytes map to themselves, the rest shift into the U+0100 range."""
    keep = (list(range(ord("!"), ord("~") + 1))
            + list(range(ord("\xa1"), ord("\xac") + 1))
            + list(range(ord("\xae"), ord("\xff") + 1)))
    table = {}
    shifted = 0
    for b in range(256):
        if b in keep:
            table[b] = chr(b)
        else:
            table[b] = chr(256 + shifted)
            shifted += 1
    return table

_BYTE_TO_CHAR = _byte_to_char()
_CHAR_TO_BYTE = {c: b for b, c in _BYTE_TO_CHAR.items()}


def normalize_whitespace(text: str) -> str:
    return " ".join(text.split())


def _split_units(text: str):
    """Split normalized text into word units; all but the first keep their
    leading space so decoding is pure concatenation."""
    words = text.split(" ")
    if words == [""]:
        return []
    return [words[0]] + [" " + w for w in words[1:]]


def _unit_to_chars(unit: str):
    return tuple(_BYTE_TO_CHAR[b] for b in unit.encode("utf-8"))


def tag_token(lang: str) -> str:
    return f"<2{lang.lower()}>"


def _tags(languages: Sequence[str]) -> list[str]:
    """One tag token per language, in order; a language given twice, also
    in another case, is refused naming both spellings."""
    tags: dict[str, str] = {}   # tag token -> the language naming it
    for lang in languages:
        tag = tag_token(lang)
        if tag in tags:
            raise ConfigError(f"language {lang!r} given twice (as "
                              f"{tags[tag]!r} and {lang!r})")
        tags[tag] = lang
    return list(tags)


def _layout(specials: list[str], merges: list) -> list[str]:
    """A vocabulary's tokens in id order: the reserved and tag tokens, the
    256 byte symbols in byte order, then each merge's result in merge
    order. ``train_bpe`` builds its vocabulary from this list, and
    ``Vocabulary.load`` requires its ``.vocab`` to be this list."""
    return [*specials, *_BYTE_TO_CHAR.values(), *(a + b for a, b in merges)]


@dataclass
class Vocabulary:
    """Shared multilingual subword vocabulary plus its merge table.

    ``train_bpe`` and ``load`` give the tokens of ``_layout``: ids 0..4
    reserved (PAD, BOS, EOS, UNK, MASK), then one tag token per language,
    then the 256 byte symbols, then each merge's result in merge order.
    Merges are stored in application order. The constructor requires the
    head of that layout, the reserved tokens and then the languages' tags
    in order, so the tags are the ids from 5 on, one per language; it
    takes any tail in which no token repeats.
    """

    tokens: list[str]
    languages: list[str]
    merges: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self):
        # _encode_unit looks each merge up in a set of symbol-pair tuples
        self.merges = [tuple(pair) for pair in self.merges]
        self._token_to_id = {t: i for i, t in enumerate(self.tokens)}
        if len(self._token_to_id) != len(self.tokens):
            # a token's id is its last place, so its first place differs
            twice = next(t for i, t in enumerate(self.tokens)
                         if self._token_to_id[t] != i)
            raise VocabularyError(f"duplicate token {twice!r} in vocabulary")
        head = RESERVED_TOKENS + _tags(self.languages)
        for i, t in enumerate(head):
            found = self.tokens[i] if i < len(self.tokens) else None
            if found != t:
                kind = "reserved" if i < len(RESERVED_TOKENS) else "tag"
                raise VocabularyError(
                    f"{kind} id {i} must be {t!r}, found {found!r}")
        self._tag_range = range(len(RESERVED_TOKENS), len(head))
        self._tag_ids = dict(zip(map(str.lower, self.languages),
                                 self._tag_range))

    def __len__(self):
        return len(self.tokens)

    def tag_id(self, lang: str) -> int:
        try:
            return self._tag_ids[lang.lower()]
        except KeyError:
            raise LanguageError(f"no tag token for language {lang!r}") from None

    def is_tag(self, token_id: int) -> bool:
        return token_id in self._tag_range

    @cached_property
    def sha256(self) -> str:
        """SHA-256 of the tokens and merges, which a model's config records
        to name the vocabulary it was trained with; worked out on first
        use, once."""
        return hashlib.sha256(json.dumps([self.tokens, self.merges])
                              .encode()).hexdigest()

    def save(self, prefix: str | Path):
        write_file(f"{prefix}.vocab", "vocabulary file",
                   "".join(f"{tok}\n" for tok in self.tokens))
        write_file(f"{prefix}.merges", "merges file",
                   "".join(f"{a} {b}\n" for a, b in self.merges))

    @classmethod
    def load(cls, prefix: str | Path) -> "Vocabulary":
        """The vocabulary saved under ``prefix``. Its languages are read
        from the tag block after the reserved ids; its tokens are checked
        as the constructor checks them (so a language tagged twice, in any
        case, is refused), then its merges line by line; then the
        ``.vocab`` must list the tokens of ``_layout`` for those languages
        and merges."""
        prefix = Path(prefix)
        vocab_path = Path(f"{prefix}.vocab")
        tokens = read_lines(vocab_path, "vocabulary file")
        # tags fill the block after the reserved ids, up to the byte
        # alphabet; a merged token spelling "<2xx>" later on is content
        languages = []
        for t in tokens[len(RESERVED_TOKENS):]:
            if not (t.startswith("<2") and t.endswith(">")):
                break
            languages.append(t[2:-1])
        merges_path = Path(f"{prefix}.merges")
        lines = read_lines(merges_path, "merges file")
        with about(vocab_path):
            vocab = cls(tokens=tokens, languages=languages)
        specials = tokens[:len(RESERVED_TOKENS) + len(languages)]
        produced: dict[str, int] = {}   # merge result -> its line
        for n, line in enumerate(lines, 1):
            where = f"{merges_path} line {n}"
            parts = line.split(" ")
            if len(parts) != 2 or not all(parts):
                raise VocabularyError(
                    f"{where}: expected two space-separated tokens, "
                    f"got {line!r}")
            for part in parts:
                if part not in _CHAR_TO_BYTE and part not in produced:
                    raise VocabularyError(
                        f"{where}: {part!r} is neither a byte symbol nor "
                        "the result of an earlier merge")
            merged = parts[0] + parts[1]
            if merged in produced:
                # the table's meaning would depend on which of the two
                # merges ran first
                raise VocabularyError(
                    f"{where}: merge result {merged!r} was already "
                    f"produced by line {produced[merged]}")
            if merged in specials:
                # encode would emit the special id for literal text
                raise VocabularyError(
                    f"{where}: merge result {merged!r} is a reserved "
                    "or language tag token")
            produced[merged] = n
            vocab.merges.append((parts[0], parts[1]))
        if tokens != (layout := _layout(specials, vocab.merges)):
            # a line dropped, added, edited or moved: name the first one
            # that differs, past the end of the shorter list if all of it
            # matches
            n = next((n for n, (found, want) in enumerate(zip(tokens, layout))
                      if found != want), min(len(tokens), len(layout)))
            found, want = ([*map(repr, side), "the end of the file"][n]
                           for side in (tokens, layout))
            raise VocabularyError(
                f"{vocab_path} line {n + 1}: expected {want}, found {found} "
                "(the reserved and tag tokens, the 256 byte symbols, then the "
                f"result of each merge in {merges_path})")
        return vocab


def _pair_census(encoded: list[bytes], freqs: list[int], vocab_size: int
                 ) -> tuple[dict[int, int], dict[int, list[int]]]:
    """The adjacent byte pairs (a, b) inside the words ``encoded``, word w
    occurring ``freqs[w]`` times, keyed as ``a * vocab_size + b``: each
    pair's count, and the indices of the words holding it, ascending, a
    word listed once per occurrence of the pair (a defaultdict, so a pair
    that later merges make gets a list of its own)."""
    # no word holds a newline (str.split took every whitespace character
    # out of them), so one after each word marks where it ends
    data = np.frombuffer(b"\n".join(encoded), np.uint8)
    ends = data == ord("\n")
    word = np.cumsum(ends)
    inside = ~(ends[:-1] | ends[1:])
    # (a, b) as the 16-bit a * 256 + b, which sorts as a * vocab_size + b
    # does, and which a stable sort groups by radix, each pair's words in
    # ascending order
    codes = (data[:-1].astype(np.uint16) << 8 | data[1:])[inside]
    if not codes.size:
        return {}, defaultdict(list)
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    holding = word[:-1][inside][order]
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    counts = np.add.reduceat(
        np.fromiter(freqs, np.int64, len(freqs))[holding], starts)
    codes = codes[starts].astype(np.int64)
    keys = ((codes >> 8) * vocab_size + (codes & 255)).tolist()
    holding = holding.tolist()
    bounds = [*starts.tolist(), len(holding)]
    groups = [holding[s:e] for s, e in zip(bounds, bounds[1:])]
    return dict(zip(keys, counts.tolist())), defaultdict(list, zip(keys,
                                                                   groups))


def train_bpe(corpus_paths: Sequence[str | Path], vocab_size: int,
              min_freq: int = 2, languages: Sequence[str] = ()) -> Vocabulary:
    """Learn a shared byte-level BPE vocabulary over all corpus files.

    Merges are chosen by descending pair frequency, ties broken by
    lexicographically smallest pair, so retraining on identical input
    reproduces an identical merge table. The vocabulary's tokens are the
    ``_layout`` of the reserved tokens, one tag per language and the
    merges, so merging stops when that list reaches ``vocab_size`` tokens,
    or when no pair reaches ``min_freq``. A pair whose merge would spell a
    token the vocabulary already has (a reserved token such as ``<unk>``
    or a language tag such as ``<2de>``) is never chosen: its parts stay
    separate tokens, so such literal text is still content and
    decode(encode(t)) == t holds.

    Learning is incremental, as in the reference learner of Sennrich et
    al. (2016): each word type is counted once, and pair counts and a
    pair -> holders index (the words holding each pair) are kept up to
    date. A merge of (a, b) visits only the pair's holders, and in each
    only the merge sites, left to right over the word as it changes: at a
    site between ``left`` and ``right`` it subtracts (left, a) and
    (b, right), adds (left, ab) and (ab, right), and registers the word as
    a holder of both; then (a, b) is dropped. So runs such as "aaaa" and
    "abab", where a neighbour is a merge just made, count as a full
    recount of the word would. A holder that no longer holds the pair (an
    earlier merge took it), or that is listed twice and was merged on its
    first visit, is passed over unchanged. The best pair comes from a
    max-heap keyed by (-count, text of a, text of b) with lazy
    invalidation: a popped entry whose count is stale goes back in at its
    current count. Only pairs that contain the new symbol can gain count,
    and each gets a fresh entry after the merge.

    The learner works on integer symbols: a word is the list of its UTF-8
    bytes (ids 0-255), merged symbols are numbered from 256 in creation
    order, and a pair (a, b) is keyed by the one int ``a * vocab_size +
    b``, which cannot collide because every id stays below
    ``vocab_size``. Symbol texts enter only where they decide something:
    the heap's tie-break, the check against known tokens, and the returned
    vocabulary. The word types are counted by one ``Counter`` over every
    word of the corpus and one over the lines' first words, and the pairs
    and their holders by ``_pair_census`` in numpy, so only the merge loop
    runs item by item in Python. On the benchmark's tokenize corpus (1000
    Zipf-like lines, 500 merges) a call takes a median 13-14 ms on a
    2-vCPU host, against 16 ms when units and pairs were counted in
    per-item Python loops.
    """
    specials = RESERVED_TOKENS + _tags(languages)
    base = _layout(specials, [])
    if vocab_size < len(base):
        raise ConfigError(f"vocab_size {vocab_size} below minimum {len(base)} "
                          "(reserved + tags + byte alphabet)")
    if min_freq < 0:
        raise ConfigError(f"min_freq must be >= 0, got {min_freq}")

    # the units of _split_units(normalize_whitespace(line)): a line's first
    # word as it is, every other occurrence of a word behind a space
    lines = [line for path in corpus_paths
             for line in read_lines(path, "corpus file")]
    counts = Counter(" ".join(lines).split())
    firsts = Counter([w[0] for w in (line.split(None, 1) for line in lines)
                      if w])
    if not firsts:
        raise ConfigError("empty corpus: no non-blank lines found")
    counts.subtract(firsts)
    units = {**firsts, **{" " + w: n for w, n in counts.items() if n}}
    del lines, counts, firsts

    # symbol id -> its stand-in text: the bytes are 0-255, merged symbols
    # follow in creation order, so every id stays below vocab_size and
    # a * vocab_size + b keys the pair (a, b) without collision
    text = [_BYTE_TO_CHAR[b] for b in range(256)]
    encoded = list(map(str.encode, units))   # UTF-8
    words = list(map(list, encoded))
    freqs = list(units.values())
    del units
    # a holder index may come to be stale (the word lost the pair to
    # another merge) or stand twice, never go missing
    pair_freqs, holders = _pair_census(encoded, freqs, vocab_size)
    del encoded

    # a pair can sit at count 0 in pair_freqs once merges have taken it;
    # ties break by the pair's text, never by its ids
    floor = max(min_freq, 1)
    heap = [(-f, text[p // vocab_size], text[p % vocab_size], p)
            for p, f in pair_freqs.items() if f >= floor]
    heapq.heapify(heap)
    known = set(base)
    merges: list[tuple[str, str]] = []
    get = pair_freqs.get
    while heap and len(base) + len(merges) < vocab_size:
        neg_count, text_a, text_b, pair = heapq.heappop(heap)
        count = get(pair, 0)
        if count != -neg_count:
            if count >= floor:
                heapq.heappush(heap, (-count, text_a, text_b, pair))
            continue
        merged_text = text_a + text_b
        if merged_text in known:
            continue
        merges.append((text_a, text_b))
        known.add(merged_text)
        a, b = divmod(pair, vocab_size)
        merged = len(text)
        text.append(merged_text)
        b_row = b * vocab_size
        merged_row = merged * vocab_size
        fresh = set()
        add = fresh.add
        for w in holders.pop(pair):
            symbols = words[w]
            if a not in symbols:
                continue    # stale: an earlier merge took the pair
            f = freqs[w]
            i = 0
            last = len(symbols) - 1
            while i < last:
                if symbols[i] != a or symbols[i + 1] != b:
                    i += 1
                    continue
                # in the word as merged so far, (left, a) and (b, right)
                # give way to (left, ab) and (ab, right); (a, b) is dropped
                # after the last holder
                if i:
                    left = symbols[i - 1] * vocab_size
                    pair_freqs[left + a] -= f
                    p = left + merged
                    pair_freqs[p] = get(p, 0) + f
                    add(p)
                    holders[p].append(w)
                if i + 1 < last:
                    right = symbols[i + 2]
                    pair_freqs[b_row + right] -= f
                    p = merged_row + right
                    pair_freqs[p] = get(p, 0) + f
                    add(p)
                    holders[p].append(w)
                symbols[i] = merged
                del symbols[i + 1]
                last -= 1
                i += 1
        del pair_freqs[pair]
        for p in fresh:
            if pair_freqs[p] >= floor:
                heapq.heappush(heap, (-pair_freqs[p], text[p // vocab_size],
                                      text[p % vocab_size], p))

    return Vocabulary(_layout(specials, merges), list(languages), merges)


def _apply_merge(symbols: tuple, pair: tuple[str, str]) -> tuple:
    a, b = pair
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == a and symbols[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def _encode_unit(unit: str, vocab: Vocabulary) -> list[int]:
    """Ids of one word unit: every merge, in order, over its byte symbols.
    Symbols missing from the vocabulary map to UNK.

    A merge whose pair is not among the unit's adjacent symbol pairs would
    return the symbols unchanged, so only a merge whose pair occurs is
    applied, and the pair set is rebuilt after each one that is: the ids
    are those of applying every merge.
    """
    symbols = _unit_to_chars(unit)
    pairs = set(zip(symbols, symbols[1:]))
    for pair in vocab.merges:
        if pair in pairs:
            symbols = _apply_merge(symbols, pair)
            pairs = set(zip(symbols, symbols[1:]))
    return [vocab._token_to_id.get(sym, UNK_ID) for sym in symbols]


def encode_lines(lines: Sequence[str], vocab: Vocabulary) -> list[list[int]]:
    """Subword-encode each line into content token ids (no BOS/EOS).

    A word unit's ids depend only on the unit (its leading space
    included) and the vocabulary, so each distinct unit runs the merge
    loop once per call (Sennrich et al., 2016); the memo lives only as
    long as the call.
    """
    memo: dict[str, list[int]] = {}
    out = []
    for line in lines:
        ids: list[int] = []
        for unit in _split_units(normalize_whitespace(line)):
            unit_ids = memo.get(unit)
            if unit_ids is None:
                unit_ids = memo[unit] = _encode_unit(unit, vocab)
            ids += unit_ids
        out.append(ids)
    return out


def encode(text: str, vocab: Vocabulary) -> list[int]:
    """Subword-encode whitespace-normalized text into content token ids
    (no BOS/EOS). Symbols missing from the vocabulary map to UNK."""
    return encode_lines([text], vocab)[0]


def decode(ids: Sequence[int], vocab: Vocabulary) -> str:
    """Reverse ``encode``: PAD/BOS/EOS and language tags are dropped, and
    the characters of every other token (UNK and MASK spell ``<unk>`` and
    ``<mask>``, printable ASCII that stands for itself) map back to one
    byte string. It is decoded as UTF-8, a malformed byte sequence as
    U+FFFD, and returned whitespace-normalized, as ``encode`` reads text."""
    chars = []
    for i in map(int, ids):
        if i in (PAD_ID, BOS_ID, EOS_ID) or vocab.is_tag(i):
            continue
        if i < 0 or i >= len(vocab):
            raise VocabularyError(f"token id {i} outside vocabulary of size {len(vocab)}")
        chars.append(vocab.tokens[i])
    data = bytes(map(_CHAR_TO_BYTE.__getitem__, "".join(chars)))
    return normalize_whitespace(data.decode("utf-8", errors="replace"))


def prefix_target_token(source_ids: Sequence[int], target_lang: str,
                        vocab: Vocabulary) -> list[int]:
    """Prepend the target-language tag to a [BOS, ..., EOS] sequence.

    The input is left unchanged; prefixing an already-tagged sequence is
    rejected rather than silently stacking tags.
    """
    tag = vocab.tag_id(target_lang)
    if source_ids and vocab.is_tag(int(source_ids[0])):
        raise LanguageError("sequence already carries a language tag")
    return [tag] + list(source_ids)


def mask_source(ids: Sequence[int], ratio: float, seed: int,
                vocab: Vocabulary) -> list[int]:
    """Replace round(ratio * n_maskable) content tokens with MASK.

    Language tags, BOS, EOS and PAD are never touched; the masked subset is
    a seeded uniform sample without replacement, and rounding is half-up.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"mask ratio must be in [0, 1], got {ratio}")
    out = [int(i) for i in ids]
    maskable = [pos for pos, i in enumerate(out)
                if i not in (PAD_ID, BOS_ID, EOS_ID) and not vocab.is_tag(i)]
    k = int(np.floor(ratio * len(maskable) + 0.5))
    if k:
        rng = rng_for("mask", seed)
        chosen = rng.choice(len(maskable), size=k, replace=False)
        for c in chosen:
            out[maskable[int(c)]] = MASK_ID
    return out


# ---------------------------------------------------------------------------
# corpus manifests and batching
# ---------------------------------------------------------------------------

@dataclass
class ParallelExample:
    example_id: str
    source_lang: str
    target_lang: str
    source_ids: list[int]   # [tag, BOS, ..., EOS]
    target_ids: list[int]   # [BOS, ..., EOS]
    image_id: str

    @property
    def length(self) -> int:
        return max(len(self.source_ids), len(self.target_ids))


@dataclass
class CorpusManifest:
    split: str
    languages: list[str]
    text_paths: dict[str, Path]
    vtok_path: Optional[Path]
    image_ids_path: Optional[Path] = None


@dataclass
class ManifestFile:
    """The keys of a manifest file, as its JSON gives them."""
    split: str
    languages: list
    text_paths: dict
    vtok_path: Optional[str] = None
    image_ids_path: Optional[str] = None


def load_manifest(path: str | Path) -> CorpusManifest:
    """Read and validate a JSON corpus manifest.

    Its keys are read by ``files.config_from_dict`` into a
    ``ManifestFile``: a key that names no field, a missing ``split``,
    ``languages`` or ``text_paths`` and a value of the wrong type are
    refused, naming the key and the manifest; so are languages and text
    paths that are not strings. The paths are resolved against the
    manifest's directory. All per-language text files must exist and be
    line-aligned; a length mismatch is a hard error naming the offending
    files.
    """
    path = Path(path)
    raw = read_json(path, "manifest")
    with about(f"manifest {path}"):
        keys = config_from_dict(ManifestFile, raw)
        languages, paths = keys.languages, keys.text_paths
        if not all(isinstance(v, str) for v in (*languages, *paths.values())):
            raise ConfigError("languages and text paths must be strings")
        _tags(languages)   # each direction once
    base = path.parent   # "/abs" joined to it stays "/abs"
    text_paths = {}
    for lang in languages:
        if lang not in paths:
            raise ConfigError(f"manifest {path}: no text path for language {lang!r}")
        text_paths[lang] = base / paths[lang]

    manifest = CorpusManifest(
        split=keys.split,
        languages=list(languages),
        text_paths=text_paths,
        vtok_path=base / keys.vtok_path if keys.vtok_path else None,
        image_ids_path=(base / keys.image_ids_path
                        if keys.image_ids_path else None),
    )
    counts = {lang: len(read_lines(tp, "text file"))
              for lang, tp in text_paths.items()}
    if len(set(counts.values())) > 1:
        detail = ", ".join(f"{manifest.text_paths[l]}={c}" for l, c in counts.items())
        raise ConfigError(f"misaligned corpus files (line counts differ): {detail}")
    return manifest


def manifest_lines(manifest: CorpusManifest, lang: str) -> list[str]:
    if lang not in manifest.text_paths:
        raise LanguageError(f"language {lang!r} not in manifest "
                            f"(has {manifest.languages})")
    return [normalize_whitespace(l)
            for l in read_lines(manifest.text_paths[lang], "text file")]


def manifest_image_ids(manifest: CorpusManifest, n: int) -> list[str]:
    if manifest.image_ids_path is not None:
        ids = read_lines(manifest.image_ids_path, "image id file")
        if len(ids) != n:
            raise ConfigError(f"image id file {manifest.image_ids_path} has "
                              f"{len(ids)} lines, corpus has {n}")
        return [i.strip() for i in ids]
    return [f"{manifest.split}-{i:06d}" for i in range(n)]


def load_parallel_examples(manifest: CorpusManifest, vocab: Vocabulary,
                           pivot: str = "en") -> list[ParallelExample]:
    """Build (direction, line) examples for every pivot->target direction."""
    targets = [l for l in manifest.languages if l != pivot]
    src_lines = manifest_lines(manifest, pivot)
    image_ids = manifest_image_ids(manifest, len(src_lines))
    # one encode_lines call over the pivot side (once, whatever the number
    # of directions) and every target side, then split back per side
    sides = [src_lines] + [manifest_lines(manifest, t) for t in targets]
    flat = iter(encode_lines([l for side in sides for l in side], vocab))
    src_ids, *tgt_ids = [[next(flat) for _ in side] for side in sides]
    examples = []
    for tgt, refs in zip(targets, tgt_ids):
        for n, (src, ref) in enumerate(zip(src_ids, refs)):
            source_ids = prefix_target_token(
                [BOS_ID] + src + [EOS_ID], tgt, vocab)
            target_ids = [BOS_ID] + ref + [EOS_ID]
            examples.append(ParallelExample(
                example_id=f"{manifest.split}-{n:06d}-{pivot}2{tgt}",
                source_lang=pivot, target_lang=tgt,
                source_ids=source_ids, target_ids=target_ids,
                image_id=image_ids[n]))
    return examples


@dataclass
class Batch:
    """Examples that train together, as one graph over padded id matrices."""
    examples: list[ParallelExample]

    def padded(self, side: str) -> np.ndarray:
        """The [B, width] ids of the "source" or "target" side, each row
        right-padded with PAD to the batch's longest sequence."""
        seqs = [e.source_ids if side == "source" else e.target_ids
                for e in self.examples]
        width = max(len(s) for s in seqs)
        out = np.full((len(seqs), width), PAD_ID, dtype=np.int64)
        for row, s in enumerate(seqs):
            out[row, :len(s)] = s
        return out

    @property
    def n_target_tokens(self) -> int:
        return sum(len(e.target_ids) - 1 for e in self.examples)


def make_batches(examples: Sequence[ParallelExample], max_tokens: int,
                 seed: Optional[int] = None) -> list[Batch]:
    """Sort by length, pack greedily under the padded-token budget.

    The budget counts padded tokens (max length in the batch times batch
    size), source and target separately, the larger side governing. These
    are the [B, S] and [B, T] matrices a training step materializes and
    runs as one graph, so the budget bounds a step's work and memory. With
    a seed the batch order is shuffled; contents stay deterministic.
    """
    if not examples:
        return []
    longest = max(e.length for e in examples)
    if longest > max_tokens:
        raise ConfigError(f"max_tokens={max_tokens} below longest example "
                          f"({longest} tokens)")
    ordered = sorted(examples, key=lambda e: (e.length, e.example_id))
    batches: list[Batch] = []
    current: list[ParallelExample] = []
    max_src = max_tgt = 0
    for ex in ordered:
        new_src = max(max_src, len(ex.source_ids))
        new_tgt = max(max_tgt, len(ex.target_ids))
        if current and max(new_src, new_tgt) * (len(current) + 1) > max_tokens:
            batches.append(Batch(examples=current))
            current, max_src, max_tgt = [], 0, 0
            new_src, new_tgt = len(ex.source_ids), len(ex.target_ids)
        current.append(ex)
        max_src, max_tgt = new_src, new_tgt
    if current:
        batches.append(Batch(examples=current))
    if seed is not None:
        order = rng_for("batches", seed).permutation(len(batches))
        batches = [batches[i] for i in order]
    return batches
