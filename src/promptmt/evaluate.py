"""Corpus evaluation: decode requests, unsmoothed cumulative 4-gram BLEU,
per-direction decoding reports, and the masking-ratio sweep.

A decode request is a source's ``[tag, BOS, ..., EOS]`` ids plus the
``VisualTokens`` of its image; ``build_requests`` makes them for
``evaluate``, ``mask_sweep`` and ``promptmt translate``, and only
``visual_tokens_for`` decides which VTOK table a model reads. A sweep
loads its direction once and runs one decode-and-score step per run.

BLEU is computed on whitespace tokens of detokenized text, corpus-level:
geometric mean of modified n-gram precisions for n = 1..4 times the brevity
penalty, with no smoothing, so a corpus without a single matching 4-gram
scores exactly 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .decoding import beam_search
from .errors import ConfigError
from .files import csv_text, write_file
from .model import MultimodalTranslator
from .seeding import derive_seed
from .text import (BOS_ID, EOS_ID, CorpusManifest, Vocabulary, decode,
                   encode_lines, manifest_image_ids, manifest_lines,
                   mask_source, prefix_target_token)
from .vision import read_vtok


def visual_tokens_for(model: MultimodalTranslator,
                      vtok_path) -> Optional[dict]:
    """The image id -> VisualTokens table ``model`` decodes with: None for
    ``text_only`` (no file is read); any other variant needs a VTOK file
    whose width is ``model.config.d_v``, or any width while it is 0 (a train
    config that leaves d_v out). The table is ``read_vtok``'s, so looking
    up an image id it lacks raises ConfigError naming the file."""
    config = model.config
    if config.variant == "text_only":
        return None
    if vtok_path is None:
        raise ConfigError(f"variant {config.variant!r} needs a VTOK table of "
                          "visual tokens: a vtok_path in the manifest, or "
                          "--vtok for translate")
    table = read_vtok(vtok_path)
    if table and config.d_v:
        d_v = next(iter(table.values())).tokens.shape[1]
        if d_v != config.d_v:
            raise ConfigError(
                f"visual feature width mismatch: {vtok_path} has d_v={d_v}, "
                f"model expects d_v={config.d_v}")
    return table


def build_requests(lines: Sequence[str], image_ids: Sequence, tgt_lang: str,
                   vocab: Vocabulary, visual_map: Optional[dict]
                   ) -> list[tuple]:
    """(``[tag, BOS, ..., EOS]`` ids, VisualTokens or None) per source line,
    all lines encoded in one ``encode_lines`` call; ``visual_map`` is what
    ``visual_tokens_for`` gave the model, and it refuses an image id it
    lacks."""
    return [(prefix_target_token([BOS_ID] + src + [EOS_ID], tgt_lang, vocab),
             None if visual_map is None else visual_map[image_id])
            for src, image_id in zip(encode_lines(lines, vocab), image_ids)]


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu4(hypotheses: Sequence[Sequence[str]],
          references: Sequence[Sequence[str]]) -> float:
    """Corpus BLEU in [0, 100] over pre-tokenized sentences."""
    if len(hypotheses) != len(references):
        raise ConfigError(f"bleu4: {len(hypotheses)} hypotheses vs "
                          f"{len(references)} references")
    if not hypotheses:
        raise ConfigError("bleu4: empty corpus")
    log_prec_sum = 0.0
    for n in range(1, 5):
        clipped = total = 0
        for hyp, ref in zip(hypotheses, references):
            hyp_counts = _ngrams(hyp, n)
            ref_counts = _ngrams(ref, n)
            clipped += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
            total += max(len(hyp) - n + 1, 0)
        if clipped == 0 or total == 0:
            return 0.0
        log_prec_sum += np.log(clipped / total)
    c = sum(len(h) for h in hypotheses)
    r = sum(len(ref) for ref in references)
    bp = 1.0 if c > r else float(np.exp(1.0 - r / c))
    return float(100.0 * bp * np.exp(log_prec_sum / 4.0))


@dataclass
class SentenceResult:
    example_id: str
    source: str
    hypothesis: str
    reference: str


@dataclass
class EvalReport:
    direction: str
    bleu: float
    sentences: list[SentenceResult]
    ratio: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if not 0.0 <= self.bleu <= 100.0:
            raise ConfigError(f"BLEU out of range: {self.bleu}")


def parse_direction(direction: str) -> tuple[str, str]:
    for sep in ("->", "→", "-", "2"):
        if sep in direction:
            src, tgt = direction.split(sep, 1)
            return src.strip().lower(), tgt.strip().lower()
    raise ConfigError(f"cannot parse direction {direction!r}; "
                      "expected e.g. 'en-de'")


def _tokens(text: str, lowercase: bool) -> list[str]:
    return (text.lower() if lowercase else text).split()


def _scorer(model, vocab, manifest, direction, beam, alpha, lowercase):
    """Load one direction of the corpus once; return its decode-and-score
    step ``(mask_ratio, mask_seed) -> EvalReport``."""
    src_lang, tgt_lang = parse_direction(direction)
    src_lines = manifest_lines(manifest, src_lang)
    ref_lines = manifest_lines(manifest, tgt_lang)
    image_ids = manifest_image_ids(manifest, len(src_lines))
    requests = build_requests(src_lines, image_ids, tgt_lang, vocab,
                              visual_tokens_for(model, manifest.vtok_path))

    def score(mask_ratio, mask_seed) -> EvalReport:
        sentences, hyp_tok, ref_tok = [], [], []
        for i, ((ids, visual), ref) in enumerate(zip(requests, ref_lines)):
            if mask_ratio:
                ids = mask_source(ids, mask_ratio,
                                  derive_seed(mask_seed or 0, i), vocab)
            hyp = beam_search(model, vocab, ids, tgt_lang, visual,
                              beam=beam, alpha=alpha)
            hyp_text = decode(hyp.tokens, vocab)
            sentences.append(SentenceResult(
                example_id=f"{manifest.split}-{i:06d}-{src_lang}2{tgt_lang}",
                source=decode(ids, vocab), hypothesis=hyp_text,
                reference=ref))
            hyp_tok.append(_tokens(hyp_text, lowercase))
            ref_tok.append(_tokens(ref, lowercase))
        return EvalReport(direction=f"{src_lang}-{tgt_lang}",
                          bleu=bleu4(hyp_tok, ref_tok), sentences=sentences,
                          ratio=mask_ratio, seed=mask_seed)

    return score


def evaluate(model: MultimodalTranslator, vocab: Vocabulary,
             manifest: CorpusManifest, direction: str, beam: int = 5,
             alpha: float = 1.0, mask_ratio: Optional[float] = None,
             mask_seed: Optional[int] = None,
             lowercase: bool = False) -> EvalReport:
    """Decode every source sentence of one direction and score corpus BLEU.

    With ``mask_ratio`` set, each source is masked before decoding using a
    per-sentence seed derived from ``mask_seed``, so results are independent
    of processing order.
    """
    return _scorer(model, vocab, manifest, direction, beam, alpha,
                   lowercase)(mask_ratio, mask_seed)


def mask_sweep(model: MultimodalTranslator, vocab: Vocabulary,
               manifest: CorpusManifest, direction: str,
               ratios: Sequence[float], seeds: Sequence[int], beam: int = 5,
               alpha: float = 1.0, lowercase: bool = False
               ) -> tuple[list[EvalReport], list[dict]]:
    """Evaluate under each masking ratio, averaged over seeds.

    The direction is loaded once for every run. Ratio 0 is a no-op mask,
    so it is decoded once and reused for every seed. Before the direction
    is loaded, an empty ratio or seed list is refused, and so is a ratio
    or a seed given twice: its runs would count twice in a row's mean and
    std, or write the row twice. Returns the individual reports plus
    {ratio, mean_bleu, std} summary rows for plotting.
    """
    for name, values, empty in (
            ("ratio", ratios, "a sweep over no masking ratios has no rows"),
            ("seed", seeds, "a mean over no mask seeds is undefined")):
        if len(values) == 0:
            raise ConfigError(f"mask_sweep: {name}s is empty; {empty}")
        twice = next((v for i, v in enumerate(values) if v in values[:i]),
                     None)
        if twice is not None:
            raise ConfigError(f"mask_sweep: {name} {twice!r} given twice; "
                              "its second run would repeat the first")
    score = _scorer(model, vocab, manifest, direction, beam, alpha, lowercase)
    reports, summary = [], []
    for ratio in ratios:
        if ratio == 0:
            per_seed = [score(0.0, seeds[0])] * len(seeds)
            reports.append(per_seed[0])
        else:
            per_seed = [score(ratio, s) for s in seeds]
            reports.extend(per_seed)
        scores = np.array([r.bleu for r in per_seed])
        summary.append({"ratio": ratio, "mean_bleu": float(scores.mean()),
                        "std": float(scores.std())})
    return reports, summary


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def write_report_csv(path: str | Path, reports: Sequence[EvalReport]):
    write_file(path, "report", csv_text(
        [["direction", "ratio", "seed", "bleu"]]
        + [[r.direction, "" if r.ratio is None else f"{r.ratio:g}",
            "" if r.seed is None else r.seed, f"{r.bleu:.4f}"]
           for r in reports]))


def write_sweep_csv(path: str | Path, summary: Sequence[dict]):
    write_file(path, "sweep report", csv_text(
        [["ratio", "mean_bleu", "std"]]
        + [[f"{row['ratio']:g}", f"{row['mean_bleu']:.4f}",
            f"{row['std']:.4f}"] for row in summary]))


def write_sentences_tsv(path: str | Path, report: EvalReport):
    """Per-sentence dump: id, (possibly masked) source, prediction, truth."""
    rows = [["example_id", "source", "hypothesis", "reference"]] + [
        [s.example_id, s.source, s.hypothesis, s.reference]
        for s in report.sentences]
    write_file(path, "sentence report",
               "".join("\t".join(row) + "\n" for row in rows))
