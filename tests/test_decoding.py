"""Beam-search tests: greedy equivalence, exhaustive-enumeration oracle,
length-penalty behaviour, determinism, equivalence of the incremental,
array-based search with the full-recompute tuple-sort search it replaced,
and equivalence of the early-stopping search with running to the cap."""

import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import promptmt.autodiff as ad
from promptmt.autodiff import log_softmax
from promptmt.decoding import Hypothesis, _best, _search, beam_search
from promptmt.errors import ConfigError
from promptmt.evaluate import visual_tokens_for
from promptmt.model import ModelConfig, MultimodalTranslator, load_checkpoint
from promptmt.text import (BOS_ID, EOS_ID, MASK_ID, PAD_ID, RESERVED_TOKENS,
                           Vocabulary, encode, load_manifest, manifest_image_ids,
                           manifest_lines, mask_source, prefix_target_token,
                           tag_token, _BYTE_TO_CHAR)
from promptmt.vision import pseudo_visual_tokens

TAG = 5


def tiny_vocab():
    # vocab of exactly 8: five reserved + one tag + two content tokens
    tokens = RESERVED_TOKENS + [tag_token("de"), "a", "b"]
    return Vocabulary(tokens=tokens, languages=["de"])


def tiny_text_model(seed, vocab_size=8):
    cfg = ModelConfig(vocab_size=vocab_size, d_model=8, n_heads=2,
                      n_enc_layers=1, n_dec_layers=1, d_v=0,
                      variant="text_only", dropout=0.0, eps_ls=0.1)
    return MultimodalTranslator(cfg, seed=seed)


SOURCE = [TAG, BOS_ID, 6, 7, EOS_ID]


def enumerate_best(model, source_ids, max_len, alpha):
    """Brute-force argmax of the normalized score over the full expansion
    tree: any non-EOS tokens up to max_len-1 deep, then EOS."""
    with ad.no_grad():
        memory, mask = model.prepare_source(source_ids, None)
        best = {}

        def recurse(prefix, lp, depth):
            logprobs = log_softmax(
                model.decode(memory, prefix, mask).data[-1])
            tokens = prefix + [EOS_ID]
            total = lp + float(logprobs[EOS_ID])
            score = total / (len(tokens) - 1) ** alpha
            key = (-score, tokens)
            if not best or key < best["key"]:
                best.update(key=key, tokens=tokens, logprob=total)
            if depth < max_len - 1:
                for tok in range(8):
                    if tok != EOS_ID:
                        recurse(prefix + [tok], lp + float(logprobs[tok]),
                                depth + 1)

        recurse([BOS_ID], 0.0, 0)
        return best


@pytest.mark.parametrize("seed", range(5))
def test_beam_equals_exhaustive_enumeration(seed):
    model = tiny_text_model(seed)
    vocab = tiny_vocab()
    oracle = enumerate_best(model, SOURCE, max_len=4, alpha=1.0)
    hyp = beam_search(model, vocab, SOURCE, "de", beam=4096, max_len=4,
                      alpha=1.0)
    assert hyp.tokens == oracle["tokens"]
    # the search decodes one position per step from cached keys and values,
    # the oracle reruns each whole prefix: the same float32 logits up to
    # rounding (about 1e-7 here), hence 1e-5 and not bit equality
    assert hyp.logprob == pytest.approx(oracle["logprob"], abs=1e-5)


def test_beam_one_equals_greedy_token_for_token():
    model = tiny_text_model(3)
    vocab = tiny_vocab()
    with ad.no_grad():
        memory, mask = model.prepare_source(SOURCE, None)
        toks = [BOS_ID]
        for step in range(1, 13):
            if step == 12:  # length cap: only EOS may be taken
                toks.append(EOS_ID)
                break
            nxt = int(np.argmax(log_softmax(
                model.decode(memory, toks, mask).data[-1])))
            toks.append(nxt)
            if nxt == EOS_ID:
                break
    hyp = beam_search(model, vocab, SOURCE, "de", beam=1, max_len=12,
                      alpha=1.0)
    assert hyp.tokens == toks


@pytest.mark.parametrize("seed", range(5))
def test_wider_beam_never_scores_worse(seed):
    model = tiny_text_model(seed + 100)
    vocab = tiny_vocab()
    scores = []
    for beam in (1, 2, 5, 32, 4096):
        hyp = beam_search(model, vocab, SOURCE, "de", beam=beam, max_len=4)
        scores.append(hyp.score)
    assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))


def test_beam_search_deterministic():
    model = tiny_text_model(7)
    vocab = tiny_vocab()
    h1 = beam_search(model, vocab, SOURCE, "de", beam=5)
    h2 = beam_search(model, vocab, SOURCE, "de", beam=5)
    assert h1.tokens == h2.tokens and h1.logprob == h2.logprob


def test_alpha_changes_preferred_length():
    # a model biased toward EOS early: alpha rewards longer hypotheses by
    # dividing by length, so alpha 0 vs 1 can disagree
    choices = {}
    for seed in range(40):
        model = tiny_text_model(seed + 1000)
        vocab = tiny_vocab()
        h0 = beam_search(model, vocab, SOURCE, "de", beam=4096, max_len=4,
                         alpha=0.0)
        h1 = beam_search(model, vocab, SOURCE, "de", beam=4096, max_len=4,
                         alpha=1.0)
        if h0.tokens != h1.tokens:
            choices["differ"] = True
            break
    assert choices.get("differ"), "alpha never changed the winner on 40 models"


def test_forced_termination_flagged():
    model = tiny_text_model(11)
    vocab = tiny_vocab()
    # max_len 1 leaves no room for content: the one hypothesis is forced EOS
    hyp = beam_search(model, vocab, SOURCE, "de", beam=3, max_len=1)
    assert hyp.tokens == [BOS_ID, EOS_ID]
    assert hyp.forced


def test_rejects_untagged_source():
    model = tiny_text_model(0)
    vocab = tiny_vocab()
    with pytest.raises(ConfigError, match="prefixed"):
        beam_search(model, vocab, [BOS_ID, 6, EOS_ID], "de", beam=2)


@pytest.mark.parametrize("model_size", [7, 9])
def test_rejects_vocabulary_of_another_size(model_size):
    # unchecked, a 9-row model scores 9 tokens where the vocabulary names
    # 8, and a 7-row one meets vocabulary id 7 outside its table
    with pytest.raises(ConfigError) as err:
        beam_search(tiny_text_model(0, model_size), tiny_vocab(), SOURCE,
                    "de", beam=2)
    assert str(err.value) == (f"vocabulary of 8 tokens does not match the "
                              f"model's {model_size}-token embedding table")


def test_rejects_zero_beam():
    with pytest.raises(ConfigError, match="beam"):
        beam_search(tiny_text_model(0), tiny_vocab(), SOURCE, "de", beam=0)


def test_accepts_numpy_source():
    model, vocab = tiny_text_model(4), tiny_vocab()
    want = beam_search(model, vocab, SOURCE, "de", beam=3, max_len=6)
    got = beam_search(model, vocab, np.array(SOURCE), "de", beam=3,
                      max_len=6)
    assert got == want
    with pytest.raises(ConfigError, match="prefixed"):
        beam_search(model, vocab, np.array([], dtype=np.int64), "de")


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"),
                                   float("-inf")])
def test_rejects_non_finite_alpha(alpha):
    with pytest.raises(ConfigError, match="alpha"):
        beam_search(tiny_text_model(0), tiny_vocab(), SOURCE, "de", beam=2,
                    alpha=alpha)


@pytest.mark.parametrize("alpha", [400.0, -400.0])
def test_rejects_alpha_whose_length_penalty_is_not_finite_positive(alpha):
    # 18 ** 400 overflows a float and 18 ** -400 underflows to 0.0: the
    # search could neither bound nor score a hypothesis
    with pytest.raises(ConfigError, match="alpha"):
        beam_search(tiny_text_model(0), tiny_vocab(), SOURCE, "de", beam=2,
                    alpha=alpha)
    # the check is on max_len ** alpha: a cap of 1 takes any finite alpha
    hyp = beam_search(tiny_text_model(0), tiny_vocab(), SOURCE, "de",
                      beam=2, max_len=1, alpha=alpha)
    assert hyp.tokens == [BOS_ID, EOS_ID]


def test_rejects_zero_max_len():
    with pytest.raises(ConfigError, match="max_len"):
        beam_search(tiny_text_model(0), tiny_vocab(), SOURCE, "de", beam=2,
                    max_len=0, alpha=-1.0)


def test_negative_alpha_is_legal():
    hyp = beam_search(tiny_text_model(0), tiny_vocab(), SOURCE, "de", beam=2,
                      max_len=5, alpha=-0.5)
    assert hyp.tokens[0] == BOS_ID and hyp.tokens[-1] == EOS_ID
    assert math.isfinite(hyp.score)


def test_hypothesis_score_normalization():
    h = Hypothesis(tokens=[BOS_ID, 6, 7, EOS_ID], logprob=-3.0, alpha=1.0)
    assert h.score == pytest.approx(-1.0)
    h0 = Hypothesis(tokens=[BOS_ID, 6, 7, EOS_ID], logprob=-3.0, alpha=0.0)
    assert h0.score == pytest.approx(-3.0)


# ---------------------------------------------------------------------------
# equivalence with the full-recompute, tuple-sort search
# ---------------------------------------------------------------------------

def reference_search(model, memory, src_mask, vocab_size, beam, max_len,
                     alpha):
    """The search as it was before incremental decoding: every step runs
    the decoder over each whole prefix and sorts (hypothesis, token)
    tuples by (-logprob, tokens)."""
    alive = [(0.0, [BOS_ID])]
    finished = []
    for step in range(1, max_len + 1):
        if not alive:
            break
        prefixes = np.asarray([toks for _, toks in alive])
        logprobs = log_softmax(
            model.decode(memory, prefixes, src_mask).data[:, -1, :])
        candidates = []
        at_cap = step == max_len
        for (lp, toks), row in zip(alive, logprobs):
            if at_cap:
                candidates.append((lp + float(row[EOS_ID]),
                                   toks + [EOS_ID], True))
            else:
                for tok in range(vocab_size):
                    candidates.append((lp + float(row[tok]),
                                       toks + [tok], False))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        alive = []
        for lp, toks, forced in candidates[:beam]:
            if toks[-1] == EOS_ID:
                finished.append(Hypothesis(tokens=toks, logprob=lp,
                                           alpha=alpha, forced=forced))
            else:
                alive.append((lp, toks))
    return min(finished, key=lambda h: (-h.score, h.tokens))


def assert_same_hypothesis(got, want, tol=1e-5):
    assert got.tokens == want.tokens
    assert got.forced == want.forced
    assert got.logprob == pytest.approx(want.logprob, abs=tol)


def reference_beam(model, source_ids, visual, beam, max_len, alpha=1.0):
    with ad.no_grad():
        memory, mask = model.prepare_source(source_ids, visual)
        return reference_search(model, memory, mask,
                                model.config.vocab_size, beam, max_len, alpha)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("beam,max_len", [(1, 12), (3, 6), (5, 9), (64, 4)])
def test_beam_matches_reference_search_text_only(seed, beam, max_len):
    model = tiny_text_model(seed + 200)
    vocab = tiny_vocab()
    for alpha in (0.0, 1.0):
        got = beam_search(model, vocab, SOURCE, "de", beam=beam,
                          max_len=max_len, alpha=alpha)
        want = reference_beam(model, SOURCE, None, beam, max_len, alpha)
        assert_same_hypothesis(got, want)


def variant_vocab():
    # 24 tokens: five reserved, two tags (ids 5 and 6), 17 content tokens
    tokens = RESERVED_TOKENS + [tag_token("de"), tag_token("fr")] \
        + [f"c{i}" for i in range(17)]
    return Vocabulary(tokens=tokens, languages=["de", "fr"])


@pytest.mark.parametrize("variant", ["full", "static", "no_lvpg", "text_only"])
@pytest.mark.parametrize("seed", range(3))
def test_beam_matches_reference_search_every_variant(variant, seed):
    text_only = variant == "text_only"
    cfg = ModelConfig(vocab_size=24, d_model=16, n_heads=2, n_enc_layers=1,
                      n_dec_layers=2, d_v=0 if text_only else 8,
                      variant=variant, dropout=0.0, eps_ls=0.1)
    model = MultimodalTranslator(cfg, seed=seed)
    visual = None if text_only else pseudo_visual_tokens("img", 3, 8, seed=0)
    vocab = variant_vocab()
    # PAD and MASK positions in the source, as masked sources carry them
    source = [6, BOS_ID, 10, MASK_ID, 11, PAD_ID, 12, EOS_ID, PAD_ID]
    for beam, max_len in ((1, 10), (5, 10), (8, 5)):
        got = beam_search(model, vocab, source, "fr", visual, beam=beam,
                          max_len=max_len)
        want = reference_beam(model, source, visual, beam, max_len)
        assert_same_hypothesis(got, want)


class PrefixState:
    """Decoder-state stand-in for the stub models: the whole prefix of
    every row, kept in step with ``reorder`` as a real state is."""

    def __init__(self):
        self.prefixes = None

    def extend(self, ids):
        self.prefixes = ids if self.prefixes is None \
            else np.concatenate([self.prefixes, ids], axis=1)
        return self.prefixes

    def reorder(self, rows):
        self.prefixes = self.prefixes[np.asarray(rows, dtype=np.int64)]


class StubModel:
    """Logits drawn from ``levels`` values, seeded by the whole prefix, so
    a step has many exactly tied candidates; levels=1 ties them all."""

    def __init__(self, vocab_size, levels, seed=0):
        self.vocab_size, self.levels, self.seed = vocab_size, levels, seed

    def decoder_state(self, memory):
        return PrefixState()

    def decode(self, memory, input_ids, src_key_mask=None, state=None):
        ids = np.asarray(input_ids, dtype=np.int64)
        prefixes = ids if state is None else state.extend(ids)
        first = prefixes.shape[1] - ids.shape[1]
        logits = [[self._logits(row[:t + 1])
                   for t in range(first, prefixes.shape[1])]
                  for row in prefixes]
        return ad.Tensor(np.asarray(logits, dtype=np.float32).reshape(
            ids.shape + (self.vocab_size,)))

    def _logits(self, prefix):
        rng = np.random.default_rng([self.seed, *map(int, prefix)])
        return rng.integers(0, self.levels, self.vocab_size)


def test_all_tied_candidates_pick_smallest_continuations():
    model = StubModel(vocab_size=8, levels=1)
    # beam 2: every step keeps [..., 0] and [..., 1]; EOS (id 2) never
    # makes the beam, so both survivors are forced at the cap
    hyp = _search(model, None, None, beam=2, max_len=3, alpha=1.0)
    assert hyp.tokens == [BOS_ID, PAD_ID, PAD_ID, EOS_ID]
    assert hyp.forced
    assert hyp.logprob == pytest.approx(-3 * np.log(8), abs=1e-5)
    for beam in (1, 2, 3, 5, 8, 30):
        for max_len in (1, 2, 4):
            got = _search(model, None, None, beam, max_len, 1.0)
            want = reference_search(model, None, None, 8, beam, max_len, 1.0)
            assert got.tokens == want.tokens
            assert got.forced == want.forced
            assert got.logprob == want.logprob


@pytest.mark.parametrize("seed", range(4))
def test_partial_ties_break_like_full_sort(seed):
    model = StubModel(vocab_size=12, levels=3, seed=seed)
    for beam in (1, 2, 4, 7, 40):
        for alpha in (0.0, 1.0):
            got = _search(model, None, None, beam, 6, alpha)
            want = reference_search(model, None, None, 12, beam, 6, alpha)
            assert got.tokens == want.tokens
            assert got.forced == want.forced
            assert got.logprob == want.logprob


# ---------------------------------------------------------------------------
# the early stop against running every live row to EOS or the cap
# ---------------------------------------------------------------------------

def search_to_cap(model, memory, src_mask, vocab_size, beam, max_len, alpha):
    """The incremental search as it was before the early stop: it runs until
    every live row has taken EOS or the length cap is reached, then returns
    the first finished hypothesis under (-score, tokens)."""
    state = model.decoder_state(memory)
    alive, alive_lp = [[BOS_ID]], np.zeros(1)
    finished = []
    every_token, only_eos = np.arange(vocab_size), np.array([EOS_ID])
    for step in range(1, max_len + 1):
        if not alive:
            break
        newest = [[toks[-1]] for toks in alive]
        logits = model.decode(memory, newest, src_mask, state).data[:, -1]
        at_cap = step == max_len
        tokens = only_eos if at_cap else every_token
        scores = (alive_lp[:, None]
                  + log_softmax(logits)[:, tokens].astype(np.float64)).ravel()
        parents, next_alive, next_lp = [], [], []
        for i in _best(scores, beam, alive, tokens):
            row, col = divmod(i, len(tokens))
            toks = alive[row] + [int(tokens[col])]
            lp = float(scores[i])
            if toks[-1] == EOS_ID:
                finished.append(Hypothesis(tokens=toks, logprob=lp,
                                           alpha=alpha, forced=at_cap))
            else:
                parents.append(row)
                next_alive.append(toks)
                next_lp.append(lp)
        state.reorder(parents)
        alive, alive_lp = next_alive, np.array(next_lp)
    return min(finished, key=lambda h: (-h.score, h.tokens))


class CountingModel:
    """Forwards to ``model`` and counts its ``decode`` calls."""

    def __init__(self, model):
        self.model, self.calls = model, 0

    def decoder_state(self, memory):
        return self.model.decoder_state(memory)

    def decode(self, *args, **kwargs):
        self.calls += 1
        return self.model.decode(*args, **kwargs)


class EosLeaningStub(StubModel):
    """A StubModel whose EOS logit gets ``bias`` added at every step."""

    def __init__(self, vocab_size, levels, seed=0, bias=4):
        super().__init__(vocab_size, levels, seed)
        self.bias = bias

    def _logits(self, prefix):
        logits = super()._logits(prefix)
        logits[EOS_ID] += self.bias
        return logits


ALPHAS = (-0.5, 0.0, 0.5, 1.0, 2.0)


@settings(max_examples=150, deadline=None)
@given(vocab_size=st.integers(3, 12), levels=st.integers(1, 4),
       bias=st.sampled_from([0, 1, 3, 6]), seed=st.integers(0, 2 ** 16),
       beam=st.integers(1, 6), max_len=st.integers(2, 10),
       alpha=st.sampled_from(ALPHAS))
def test_early_stop_matches_search_to_cap_stub(vocab_size, levels, bias, seed,
                                               beam, max_len, alpha):
    model = CountingModel(EosLeaningStub(vocab_size, levels, seed, bias))
    got = _search(model, None, None, beam, max_len, alpha)
    stopped_after = model.calls
    want = search_to_cap(model, None, None, vocab_size, beam, max_len, alpha)
    assert got == want
    assert stopped_after <= model.calls - stopped_after


@pytest.mark.parametrize("alpha", ALPHAS)
def test_early_stop_matches_search_to_cap_seed_sweep(alpha):
    # a fixed sweep that always reaches the cases where a bound divided by
    # the wrong length stops too early: alpha 2 (a longer hypothesis still
    # overtakes) and alpha -0.5 (a shorter one does)
    for seed in range(30):
        for bias in (-1, 0, 2, 4):
            for beam in (2, 3):
                model = EosLeaningStub(8, 4, seed, bias)
                got = _search(model, None, None, beam, 8, alpha)
                assert got == search_to_cap(model, None, None, 8, beam, 8,
                                            alpha)


@functools.cache
def shared_tiny_model(seed):
    return tiny_text_model(seed + 300)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 7), beam=st.integers(1, 6),
       max_len=st.integers(2, 10), alpha=st.sampled_from(ALPHAS))
def test_early_stop_matches_search_to_cap_tiny_model(seed, beam, max_len,
                                                     alpha):
    model = shared_tiny_model(seed)
    with ad.no_grad():
        memory, mask = model.prepare_source(SOURCE, None)
        got = _search(model, memory, mask, beam, max_len, alpha)
        want = search_to_cap(model, memory, mask, 8, beam, max_len, alpha)
    assert got == want


FROZEN = Path(__file__).resolve().parents[1] / "perfbench" / "frozen"


def test_early_stop_matches_search_to_cap_frozen_checkpoint():
    """A dozen requests to the benchmark's trained checkpoint, masked and
    unmasked, into every target language: the same hypothesis, logprob bit
    for bit, in well under the decoder steps of running to the cap."""
    model, _ = load_checkpoint(FROZEN / "model.lvpm")
    vocab = Vocabulary.load(FROZEN / "bpe")
    manifest = load_manifest(FROZEN / "train.json")
    visual = visual_tokens_for(model, manifest.vtok_path)
    sources = manifest_lines(manifest, "en")
    images = manifest_image_ids(manifest, len(sources))
    counted = CountingModel(model)
    early_calls = cap_calls = 0
    for k in range(12):
        lang = ("de", "fr", "cs")[k % 3]
        ids = prefix_target_token(
            [BOS_ID] + encode(sources[2 * k + 1], vocab) + [EOS_ID], lang, vocab)
        ids = mask_source(ids, (0.0, 0.4)[k % 2], k, vocab)
        max_len = 2 * len(ids) + 8
        with ad.no_grad():
            memory, mask = model.prepare_source(ids, visual[images[2 * k + 1]])
            counted.calls = 0
            got = _search(counted, memory, mask, 5, max_len, 1.0)
            early_calls += counted.calls
            counted.calls = 0
            want = search_to_cap(counted, memory, mask, len(vocab), 5,
                                 max_len, 1.0)
            cap_calls += counted.calls
        assert got == want
    assert early_calls < cap_calls / 2


def test_early_stop_fires_on_eos_leaning_model():
    # EOS leads every step by 6 logits: [BOS, EOS] finishes at step 1 with
    # logprob near 0, far above what any live row can still reach
    model = CountingModel(EosLeaningStub(vocab_size=8, levels=2, bias=6))
    max_len = 10
    got = _search(model, None, None, beam=5, max_len=max_len, alpha=1.0)
    assert model.calls < max_len
    assert got == search_to_cap(model, None, None, 8, 5, max_len, 1.0)


class TieStub(StubModel):
    """After BOS, PAD and EOS share the top logit, so [BOS, PAD] and
    [BOS, EOS] tie; after [BOS, PAD], EOS takes all the mass (logprob
    exactly 0). Everything else is far below."""

    def __init__(self):
        super().__init__(vocab_size=4, levels=1)

    def _logits(self, prefix):
        logits = np.full(4, -300.0)
        if list(prefix) == [BOS_ID]:
            logits[[PAD_ID, EOS_ID]] = 0.0
        else:
            logits[EOS_ID] = 0.0
        return logits


def test_early_stop_does_not_stop_on_a_tie():
    # after step 1 the best finished hypothesis, [BOS, EOS], scores exactly
    # the live [BOS, PAD]'s bound (alpha 0: the logprob itself). Its child
    # [BOS, PAD, EOS] scores the same and sorts first, so stopping on the
    # tie would return the wrong hypothesis
    model = CountingModel(TieStub())
    got = _search(model, None, None, beam=2, max_len=6, alpha=0.0)
    assert got.tokens == [BOS_ID, PAD_ID, EOS_ID]
    assert got == search_to_cap(TieStub(), None, None, 4, 2, 6, 0.0)
    assert 2 <= model.calls < 6
