"""Length-normalized beam search over the trained model.

Each step ranks every (hypothesis, token) continuation by cumulative log
probability and keeps the best ``beam``; continuations that pick EOS move
to the finished pool. When the length cap is reached, surviving hypotheses
take EOS with its model log probability and are flagged as forced. The
returned hypothesis maximizes logprob / length^alpha over the finished
pool, ties broken toward the lexicographically smaller token sequence, so
decoding is fully deterministic. With beam 1 this reduces to greedy
decoding; with a beam at least as wide as the expansion tree it is
exhaustive search.

Decoding is incremental: the model keeps each layer's keys and values in
a decoder state, so a step feeds only the newest token of every live
hypothesis and the state's rows follow the surviving hypotheses' parents.
A step runs on plain arrays and records one graph node, its logits.
Continuations are scored as one [live, V] array and only those that can
reach the beam are sorted.

The search stops as soon as no live hypothesis can still beat the best
finished one (the optimality stop of Huang, Zhao and Ma, 2017, "When to
Finish? Optimal Beam Search for Neural Text Generation"). Every
log-softmax term is <= 0, so a descendant's float64 logprob is at most
its live ancestor's; a hypothesis finishing at step s or later has some
length n in [s, max_len], and n ** alpha is monotone in n, so its score
is at most the best live logprob over max(s ** alpha, max_len ** alpha)
(a non-positive number divided by a larger positive one gives a larger
result, and rounding keeps that order). This holds for every alpha
``beam_search`` accepts, negative ones included: it rejects an alpha for
which ``max_len ** alpha`` is not a finite positive float. The comparison
is strict: on a tie the token-order tie-break could still favour a live
hypothesis.
The returned hypothesis is therefore the one the search would return
after running every live row to EOS or the length cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .errors import ConfigError
from .model import MultimodalTranslator
from .text import BOS_ID, EOS_ID, Vocabulary
from .vision import VisualTokens


@dataclass
class Hypothesis:
    tokens: list[int]          # [BOS, ..., EOS] once finished
    logprob: float             # sum over generated tokens, EOS included
    alpha: float = 1.0
    forced: bool = False       # terminated by the length cap

    @property
    def n_generated(self) -> int:
        return len(self.tokens) - 1

    @property
    def score(self) -> float:
        return self.logprob / (self.n_generated ** self.alpha)


def default_max_len(source_len: int) -> int:
    return 2 * source_len + 8


def beam_search(model: MultimodalTranslator, vocab: Vocabulary,
                source_ids: list[int], target_lang: str,
                visual: Optional[VisualTokens] = None, beam: int = 5,
                max_len: Optional[int] = None,
                alpha: float = 1.0) -> Hypothesis:
    """Decode one tag-prefixed source sequence into the target language."""
    check_search_args(model, vocab, target_lang, beam, alpha)
    if len(source_ids) == 0 or source_ids[0] != vocab.tag_id(target_lang):
        raise ConfigError(f"source must be prefixed with the {target_lang!r} "
                          "tag before decoding")
    if max_len is None:
        max_len = default_max_len(len(source_ids))
    check_length_penalty(max_len, alpha)
    with ad.no_grad():
        memory, src_mask = model.prepare_source(source_ids, visual)
        return _search(model, memory, src_mask, beam, max_len, alpha)


def check_search_args(model, vocab, target_lang, beam, alpha):
    """The checks of ``beam_search``'s arguments that hold for any source:
    the beam width, a finite alpha, the vocabulary's size against the
    model's and the target language's tag."""
    if beam < 1:
        raise ConfigError(f"beam must be >= 1, got {beam}")
    if not math.isfinite(alpha):
        raise ConfigError(f"alpha must be a finite number, got {alpha}")
    model.check_vocabulary(vocab)
    vocab.tag_id(target_lang)


def check_length_penalty(max_len: int, alpha: float):
    """Scores divide by n ** alpha for lengths n in 1..max_len, all of which
    are finite and positive when max_len ** alpha is."""
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    try:
        penalty = float(max_len) ** alpha
    except OverflowError:
        penalty = math.inf
    if not 0.0 < penalty < math.inf:
        raise ConfigError(f"alpha={alpha} is out of range for max_len "
                          f"{max_len}: max_len ** alpha = {penalty} is not a "
                          "finite positive number")


def _search(model, memory, src_mask, beam, max_len, alpha) -> Hypothesis:
    state = model.decoder_state(memory)
    alive: list[list[int]] = [[BOS_ID]]    # live prefixes, all one length
    alive_lp = np.zeros(1)                 # their cumulative logprobs
    newest = np.array([[BOS_ID]], dtype=np.int64)   # their last tokens
    best: Optional[Hypothesis] = None      # first under (-score, tokens)
    only_eos = np.array([EOS_ID])
    for step in range(1, max_len + 1):
        if not alive or (best is not None and best.score > alive_lp.max()
                         / max(step ** alpha, max_len ** alpha)):
            break
        logits = model.decode(memory, newest, src_mask, state).data[:, -1]
        logp = ad.log_softmax(logits)
        at_cap = step == max_len
        tokens = only_eos if at_cap else np.arange(logp.shape[1])
        if at_cap:
            logp = logp[:, tokens]
        scores = np.add(alive_lp[:, None], logp, dtype=np.float64).ravel()
        parents, next_alive, next_lp = [], [], []
        for i in _best(scores, beam, alive, tokens):
            row, col = divmod(i, len(tokens))
            toks = alive[row] + [int(tokens[col])]
            lp = float(scores[i])
            if toks[-1] == EOS_ID:
                hyp = Hypothesis(tokens=toks, logprob=lp, alpha=alpha,
                                 forced=at_cap)
                if best is None or ((-hyp.score, hyp.tokens)
                                    < (-best.score, best.tokens)):
                    best = hyp
            else:
                parents.append(row)
                next_alive.append(toks)
                next_lp.append(lp)
        state.reorder(parents)
        alive, alive_lp = next_alive, np.array(next_lp)
        newest = np.array([t[-1] for t in alive], dtype=np.int64)[:, None]
    return best


def _best(scores: np.ndarray, beam: int, alive: list[list[int]],
          tokens: np.ndarray) -> list[int]:
    """Flat indices of the ``beam`` best candidates of a [live, tokens]
    score array, ordered by (-score, prefix, token): the order of a full
    sort of the continued token sequences. A partition finds the beam-th
    best score first; every candidate tied with it stays in the sort, so
    ties break as they would over all candidates."""
    if scores.size > beam:
        kth = np.partition(scores, scores.size - beam)[scores.size - beam]
        pool = np.flatnonzero(scores >= kth).tolist()
    else:
        pool = list(range(scores.size))
    width = len(tokens)
    return sorted(pool, key=lambda i: (-scores[i], alive[i // width],
                                       tokens[i % width]))[:beam]
