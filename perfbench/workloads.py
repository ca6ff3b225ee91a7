"""The three closed-loop workloads: one client, one operation at a time.

Each workload has a ``setup`` that the runner times several times, a
``run`` that measures for a given number of seconds and checks every
output, and a ``layers`` method that turns a traced run into per-layer
metrics. The seed generates every input the program receives.

    train      the acceptance toy config trained for whole epochs; forward,
               backward and Adam do the work, decoding is idle and the text
               layer runs only in set-up
    translate  ``promptmt translate`` one request at a time with the frozen
               checkpoint: encode, tag, mask, beam 5, decode, then corpus
               BLEU; beam search and no-grad forward do the work
    tokenize   learn a 500-merge BPE table on a Zipf-like synthetic corpus,
               then encode it one sentence at a time; only the text layer
               works
"""

from __future__ import annotations

import hashlib
import importlib
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import promptmt.autodiff as ad
from promptmt import decoding, model as model_mod, text, toydata, train, \
    vision
from promptmt.seeding import derive_seed, rng_for

from common import FROZEN, BenchSetupError
from speed import SpeedProbe
from tracing import Tracer

# the package re-exports the function ``evaluate`` under the module's name
evaluate = importlib.import_module("promptmt.evaluate")

MODEL_STAGES = ("encode_source", "visual_prompt", "self_fuse", "co_attention",
                "decode")
TOY = dict(n_lines=32, target_langs=("de", "fr", "cs"), seed=0, m_v=4, d_v=32,
           n_images=8)
MASK_RATIOS = (0.0, 0.2, 0.4, 0.6, 0.8)
BEAM = 5


@dataclass
class Sizes:
    """Workload sizes; the defaults are the benchmark, the self-test
    shrinks them."""
    train_epochs: int = 2            # epochs per train_loop pass
    translate_requests: int = 96     # toy sources x 3 directions
    tokenize_lexicon: int = 3000     # pseudo words before de-duplication
    tokenize_lines: int = 1000
    tokenize_merges: int = 500
    replays: int = 3                 # isolated backward replays per stage
    min_ops: int = 100               # so that p90 has ten samples beyond it


@dataclass
class Phase:
    """What one measured phase produced. Times are raw ``(seconds, t0,
    t1)`` triples; the runner scales them with the speed probe over
    ``[t0, t1]``."""
    ops: list = field(default_factory=list)      # one per operation
    op_tokens: list = field(default_factory=list)  # tokens each one made
    passes: list = field(default_factory=list)   # one per fixed pass
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    named: dict = field(default_factory=dict)    # figures besides times
    extra: dict = field(default_factory=dict)    # inputs for layer metrics

    def fail(self, message: str, count: int = 1):
        """Count ``count`` failed operations and keep the first messages."""
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)


def _per(total, n):
    return total / n if n else 0.0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class TrainWorkload:
    name = "train"
    op_name = "step"

    def __init__(self, seed: int, work_dir, sizes: Sizes):
        self.seed, self.work_dir, self.sizes = seed, work_dir, sizes

    def setup(self):
        manifest = text.load_manifest(
            toydata.make_toy_corpus(self.work_dir / "train", **TOY))
        vocab = toydata.train_toy_vocab(self.work_dir / "train",
                                        manifest.languages, vocab_size=360)
        self.examples = text.load_parallel_examples(manifest, vocab,
                                                    pivot="en")
        self.visual = vision.read_vtok(manifest.vtok_path)
        self.config = model_mod.ModelConfig(
            vocab_size=len(vocab), d_model=64, n_heads=4, n_enc_layers=2,
            n_dec_layers=2, d_v=32, variant="full", dropout=0.0, eps_ls=0.0)
        self.reference_losses = None

    def _fresh(self):
        model = model_mod.MultimodalTranslator(
            self.config, seed=derive_seed(self.seed, "bench-train-init"))
        tcfg = train.TrainConfig(
            lr_peak=2e-3, lr_init=1e-7, warmup_steps=30,
            epochs=self.sizes.train_epochs, max_tokens=512,
            seed=derive_seed(self.seed, "bench-train-order") % 2**31)
        return model, train.TrainState.fresh(model, tcfg)

    def _batch_tokens(self, tcfg) -> list[int]:
        return [b.n_target_tokens
                for epoch in range(tcfg.epochs)
                for b in text.make_batches(
                    self.examples, tcfg.max_tokens,
                    seed=derive_seed(tcfg.seed, "epoch", epoch))]

    def run(self, seconds: float, probe: SpeedProbe,
            tracer: Tracer | None = None) -> Phase:
        phase = Phase()
        deadline = time.perf_counter() + seconds
        last_epoch = []
        while True:
            model, state = self._fresh()
            with tracer.pause() if tracer else nullcontext():
                tokens = self._batch_tokens(state.config)
            starts = []

            def zero_grad(_zero_grad=model.zero_grad):
                # train_loop calls this before it starts a step's clock, so
                # the burst stays out of the step time
                probe.tick()
                starts.append(time.perf_counter())
                _zero_grad()

            model.zero_grad = zero_grad
            t0 = time.perf_counter()
            try:
                rows = train.train_loop(model, self.examples, self.visual,
                                        state)
            except Exception:
                phase.fail(traceback.format_exc(limit=3), count=0)
                rows = []
            t1 = time.perf_counter()
            bursts = probe.spent(t0, t1)
            phase.extra["burst_s"] = phase.extra.get("burst_s", 0.0) + bursts
            phase.passes.append((t1 - t0 - bursts, t0, t1))
            losses = [r.loss for r in rows]
            self._check(phase, losses, len(tokens))
            for row, n, start in zip(rows, tokens, starts):
                took = n / row.tokens_per_sec
                phase.ops.append((took, start, start + took))
                phase.op_tokens.append(n)
            last_epoch = [r.loss for r in rows
                          if r.epoch == state.config.epochs - 1]
            if (time.perf_counter() >= deadline
                    and len(phase.ops) >= self.sizes.min_ops):
                break
        phase.named["loss_final"] = float(np.mean(last_epoch)) \
            if last_epoch else float("nan")
        return phase

    def _check(self, phase: Phase, losses, expected_steps: int):
        """Every step's loss is finite, and every pass repeats the first
        pass's losses bit for bit (same seeds, same parameters)."""
        phase.attempted += expected_steps
        if len(losses) != expected_steps:
            phase.fail(f"pass ran {len(losses)} steps, expected "
                       f"{expected_steps}",
                       count=max(expected_steps - len(losses), 0))
        if self.reference_losses is None:
            self.reference_losses = losses
        for i, loss in enumerate(losses):
            if not np.isfinite(loss):
                phase.fail(f"step {i + 1}: non-finite loss {loss}")
            elif (i < len(self.reference_losses)
                  and loss != self.reference_losses[i]):
                phase.fail(f"step {i + 1}: loss {loss!r} differs from the "
                           f"first pass ({self.reference_losses[i]!r})")

    # -- tracing -----------------------------------------------------------

    def install(self, tracer: Tracer):
        Model = model_mod.MultimodalTranslator
        captured = self.captured = []
        fills = self.fills = []

        def step_begins(args, kwargs):
            tracer.op += 1

        def capture(stage):
            def after(args, kwargs, result):
                if tracer.op == 0:
                    captured.append((stage, args, kwargs))
            return after

        def batch_fill(args, kwargs, batches):
            for b in batches:
                src = max(len(e.source_ids) for e in b.examples)
                tgt = max(len(e.target_ids) for e in b.examples)
                used = sum(len(e.source_ids) + len(e.target_ids)
                           for e in b.examples)
                fills.append((used, len(b.examples) * (src + tgt)))

        tracer.span(train, "train_loop", "train.train_loop")
        tracer.span(text, "make_batches", "text.make_batches",
                    after=batch_fill)
        tracer.span(train, "adam_step", "train.adam_step")
        tracer.span(Model, "forward_loss", "model.forward_loss",
                    before=step_begins)
        tracer.span(Model, "prepare_source", "model.prepare_source")
        for stage in MODEL_STAGES:
            tracer.span(Model, stage, f"model.{stage}", after=capture(stage))
        tracer.span(ad, "cross_entropy_label_smoothed", "model.loss")
        tracer.span(ad, "backward", "autodiff.backward")
        tracer.counter(ad, "make_node", "autodiff.graph_nodes")
        return ["train.train_loop", "text.make_batches", "train.adam_step",
                "model.forward_loss", "model.loss", "autodiff.backward"] \
            + [f"model.{s}" for s in MODEL_STAGES]

    def layers(self, phase: Phase, tracer: Tracer, speed: float) -> dict:
        n = len(phase.ops)
        inclusive, self_time = tracer.totals()
        out = {f"model.{s}_bwd_ms": self._replay_backward(tracer, s) / speed
               for s in MODEL_STAGES}
        out["text.batch_fill"] = _per(sum(u for u, _ in self.fills),
                                      sum(b for _, b in self.fills))
        ms = 1e3 / speed
        out["text.make_batches_ms"] = _per(inclusive["text.make_batches"],
                                           n) * ms
        out["train.adam_ms"] = _per(inclusive["train.adam_step"], n) * ms
        # the probe's bursts run inside train_loop, between steps
        out["train.loop_self_ms"] = _per(self_time["train.train_loop"]
                                         - phase.extra["burst_s"], n) * ms
        step_parts = (inclusive["model.forward_loss"]
                      + inclusive["autodiff.backward"]
                      + inclusive["train.adam_step"])
        out["trace.coverage"] = _per(step_parts,
                                     sum(took for took, _, _ in phase.ops))
        out["train.loss_final"] = phase.named["loss_final"]
        return out

    def _replay_backward(self, tracer: Tracer, stage: str) -> float:
        """Backward ms of one stage per step, isolated: re-run the stage on
        detached leaf copies of the inputs it saw in the first traced step,
        then time ``autodiff.backward`` alone on a fixed random cotangent."""
        forward = tracer.original(f"model.{stage}")
        backward = tracer.original("autodiff.backward")
        calls = [(a, k) for s, a, k in self.captured if s == stage]
        if not calls:
            return 0.0
        rng = rng_for("bench-replay", stage)

        def leaf(x):
            if isinstance(x, ad.Tensor):
                return ad.Tensor(x.data.copy(), requires_grad=True)
            return x

        def once():
            total = 0.0
            for args, kwargs in calls:
                outs = forward(*[leaf(a) for a in args], **kwargs)
                outs = outs if isinstance(outs, tuple) else (outs,)
                loss = None
                for o in outs:
                    g = ad.Tensor(rng.standard_normal(o.shape)
                                  .astype(o.data.dtype))
                    term = ad.sum_(ad.mul(o, g))
                    loss = term if loss is None else ad.add(loss, term)
                t0 = time.perf_counter()
                backward(loss)
                total += time.perf_counter() - t0
            return total

        with tracer.pause():
            model = calls[0][0][0]
            seconds = statistics.median(once()
                                        for _ in range(self.sizes.replays))
            model.zero_grad()
        return seconds * 1e3


# ---------------------------------------------------------------------------
# translate
# ---------------------------------------------------------------------------

def verify_frozen():
    """Check every frozen file against SHA256SUMS before it is used."""
    sums = FROZEN / "SHA256SUMS"
    if not sums.is_file():
        raise BenchSetupError(f"missing {sums}")
    for line in sums.read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)
        path = FROZEN / name
        if not path.is_file():
            raise BenchSetupError(f"frozen file {path} is missing")
        if hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            raise BenchSetupError(f"frozen file {path} does not match its "
                                  "SHA-256; rebuild with make_frozen.py")


class TranslateWorkload:
    name = "translate"
    op_name = "request"

    def __init__(self, seed: int, work_dir, sizes: Sizes):
        self.seed, self.work_dir, self.sizes = seed, work_dir, sizes

    def setup(self):
        verify_frozen()
        self.model, _ = model_mod.load_checkpoint(FROZEN / "model.lvpm")
        self.vocab = text.Vocabulary.load(FROZEN / "bpe")
        manifest = text.load_manifest(FROZEN / "train.json")
        self.visual = evaluate.visual_tokens_for(self.model,
                                                 manifest.vtok_path)
        sources = text.manifest_lines(manifest, "en")
        image_ids = text.manifest_image_ids(manifest, len(sources))
        pool = [(src, tgt, ref, image)
                for tgt in manifest.languages if tgt != "en"
                for src, ref, image in zip(
                    sources, text.manifest_lines(manifest, tgt), image_ids)]
        rng = rng_for("bench-translate", self.seed)
        order = rng.permutation(len(pool))[:self.sizes.translate_requests]
        ratios = rng.choice(len(MASK_RATIOS), size=len(pool))
        self.requests = [
            dict(source=pool[i][0], lang=pool[i][1], reference=pool[i][2],
                 image=pool[i][3], ratio=MASK_RATIOS[int(ratios[i])],
                 mask_seed=derive_seed(self.seed, "bench-mask", int(i)))
            for i in order]

    def request(self, req) -> tuple[list[int], decoding.Hypothesis, str]:
        """One ``promptmt translate`` request: encode, tag, mask, beam
        search, decode."""
        vocab = self.vocab
        ids = text.prefix_target_token(
            [text.BOS_ID] + text.encode(req["source"], vocab)
            + [text.EOS_ID], req["lang"], vocab)
        if req["ratio"] > 0:
            ids = text.mask_source(ids, req["ratio"], req["mask_seed"], vocab)
        hyp = decoding.beam_search(self.model, vocab, ids, req["lang"],
                                   self.visual[req["image"]],
                                   beam=BEAM, alpha=1.0)
        return ids, hyp, text.decode(hyp.tokens, vocab)

    def run(self, seconds: float, probe: SpeedProbe,
            tracer: Tracer | None = None) -> Phase:
        phase = Phase()
        deadline = time.perf_counter() + seconds
        first: dict[int, list[int]] = {}
        hyps, refs, clean_hyps, clean_refs = [], [], [], []
        pass_s = 0.0    # first pass: request time plus scoring, no checks
        pass_t0 = time.perf_counter()
        i = 0
        forced = 0
        while (i < max(len(self.requests), self.sizes.min_ops)
               or time.perf_counter() < deadline):
            k = i % len(self.requests)
            req = self.requests[k]
            i += 1
            phase.attempted += 1
            probe.tick()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    ids, hyp, out = self.request(req)
                else:
                    with tracer.operation(self.op_name):
                        ids, hyp, out = self.request(req)
            except Exception:
                phase.fail(traceback.format_exc(limit=3))
                continue
            t1 = time.perf_counter()
            took = t1 - t0
            phase.ops.append((took, t0, t1))
            phase.op_tokens.append(hyp.n_generated)
            forced += hyp.forced
            if k in first:
                if hyp.tokens != first[k]:
                    phase.fail(f"request {k}: repeat decoded differently")
            else:
                first[k] = hyp.tokens
                pass_s += took
                problem = self.check(ids, req, hyp, tracer)
                if problem:
                    phase.fail(f"request {k}: {problem}")
                hyps.append(out.split())
                refs.append(req["reference"].split())
                if req["ratio"] == 0:
                    clean_hyps.append(out.split())
                    clean_refs.append(req["reference"].split())
                if len(first) == len(self.requests):
                    t0 = time.perf_counter()
                    phase.named["bleu"] = evaluate.bleu4(hyps, refs)
                    t1 = time.perf_counter()
                    phase.passes.append((pass_s + t1 - t0, pass_t0, t1))
        if clean_hyps and evaluate.bleu4(clean_hyps, clean_refs) < 95.0:
            phase.fail("unmasked requests score BLEU below 95 with the "
                       "frozen model")
        phase.extra["forced"] = forced
        return phase

    def check(self, ids, req, hyp, tracer: Tracer | None) -> str | None:
        """BOS...EOS, within the length cap, and the logprob re-scored by
        one teacher-forced ``decode`` pass matches ``Hypothesis.logprob``
        within 1e-4."""
        toks = hyp.tokens
        cap = decoding.default_max_len(len(ids))
        if toks[0] != text.BOS_ID or toks[-1] != text.EOS_ID:
            return f"hypothesis {toks} is not BOS...EOS"
        if text.EOS_ID in toks[1:-1] or text.BOS_ID in toks[1:]:
            return f"hypothesis {toks} has BOS or EOS inside"
        if hyp.n_generated > cap:
            return f"hypothesis of {hyp.n_generated} tokens exceeds cap {cap}"
        if any(t < 0 or t >= len(self.vocab) for t in toks):
            return f"hypothesis {toks} has ids outside the vocabulary"
        paused = tracer.pause() if tracer is not None else nullcontext()
        with paused, ad.no_grad():
            memory, mask = self.model.prepare_source(
                ids, self.visual[req["image"]])
            logits = self.model.decode(memory, toks[:-1], mask).data
        logits = logits.astype(np.float64)
        logits -= logits.max(axis=-1, keepdims=True)
        logp = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
        rescored = float(logp[np.arange(len(toks) - 1), toks[1:]].sum())
        if abs(rescored - hyp.logprob) > 1e-4:
            return (f"re-scored logprob {rescored:.6f} differs from "
                    f"{hyp.logprob:.6f}")
        return None

    # -- tracing -----------------------------------------------------------

    def install(self, tracer: Tracer):
        Model = model_mod.MultimodalTranslator
        vocab_size = len(self.vocab)
        search = self.search = {"steps": 0, "positions": 0, "candidates": 0,
                                "cap": 0}

        def search_begins(args, kwargs):
            search["cap"] = decoding.default_max_len(len(args[2]))

        def decoded(args, kwargs, logits):
            ids = np.asarray(args[2])
            rows, width = (1, ids.shape[0]) if ids.ndim == 1 else ids.shape
            search["steps"] += 1
            search["positions"] += rows * width
            search["candidates"] += rows * (1 if width == search["cap"]
                                            else vocab_size)

        tracer.span(text, "encode", "text.encode")
        tracer.span(text, "decode", "text.decode")
        tracer.span(text, "mask_source", "text.mask_source")
        tracer.span(decoding, "beam_search", "decoding.beam_search",
                    before=search_begins)
        tracer.span(Model, "prepare_source", "model.prepare_source")
        tracer.span(Model, "decode", "model.decode", after=decoded)
        for stage in MODEL_STAGES[:-1]:
            tracer.span(Model, stage, f"model.{stage}")
        tracer.span(evaluate, "bleu4", "evaluate.bleu4")
        tracer.counter(ad, "make_node", "autodiff.graph_nodes")
        return ["text.encode", "text.decode", "decoding.beam_search",
                "model.prepare_source", "model.decode", "evaluate.bleu4"] \
            + [f"model.{s}" for s in MODEL_STAGES[:-1]]

    def layers(self, phase: Phase, tracer: Tracer, speed: float) -> dict:
        n = len(phase.ops)
        inclusive, self_time = tracer.totals()
        ms = 1e3 / speed
        steps = self.search["steps"]
        generated = sum(phase.op_tokens)
        return {
            "decoding.search_self_ms": _per(
                self_time["decoding.beam_search"], n) * ms,
            "decoding.steps_per_sent": _per(steps, n),
            "decoding.useful_step_frac": _per(generated, steps),
            "decoding.candidates_per_step": _per(self.search["candidates"],
                                                 steps),
            "decoding.forced_rate": _per(phase.extra["forced"], n),
            "model.dec_positions_per_token": _per(self.search["positions"],
                                                  generated),
            "model.prepare_source_ms": _per(
                inclusive["model.prepare_source"], n) * ms,
            "evaluate.bleu_ms": _per(inclusive["evaluate.bleu4"],
                                     tracer.calls["evaluate.bleu4"]) * ms,
            "evaluate.bleu": phase.named.get("bleu", 0.0),
            "trace.coverage": _per(tracer.child_time([self.op_name]),
                                   inclusive[self.op_name]),
        }


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------

class TokenizeWorkload:
    name = "tokenize"
    op_name = "sentence"

    def __init__(self, seed: int, work_dir, sizes: Sizes):
        self.seed, self.work_dir, self.sizes = seed, work_dir, sizes

    def setup(self):
        """A Zipf-like corpus: a seeded lexicon of pseudo words ranked in a
        seeded order, each line 5-12 words drawn with p(rank r) ~ 1/r, so
        words repeat the way they do in text."""
        sizes = self.sizes
        lexicon = sorted({toydata.pseudo_word(f"bench{self.seed}", i)
                          for i in range(sizes.tokenize_lexicon)})
        rng = rng_for("bench-tokenize", self.seed)
        rng.shuffle(lexicon)
        p = 1.0 / np.arange(1, len(lexicon) + 1)
        p /= p.sum()
        self.lines = []
        for _ in range(sizes.tokenize_lines):
            picks = rng.choice(len(lexicon), size=int(rng.integers(5, 13)),
                               p=p)
            self.lines.append(" ".join(lexicon[int(i)] for i in picks))
        self.corpus = self.work_dir / "tokenize.txt"
        self.corpus.write_text("\n".join(self.lines) + "\n", encoding="utf-8")
        words = " ".join(self.lines).split()
        self.distinct_word_frac = len(set(words)) / len(words)

    def run(self, seconds: float, probe: SpeedProbe,
            tracer: Tracer | None = None) -> Phase:
        phase = Phase()
        vocab_size = len(text.RESERVED_TOKENS) + 256 \
            + self.sizes.tokenize_merges
        merges = None
        # most of the time to learning, whose runs take seconds each; the
        # encodes take milliseconds, so a fifth gives thousands of them
        bpe_deadline = time.perf_counter() + seconds * 0.8
        while True:
            phase.attempted += 1
            probe.burst()
            probe.burst()
            t0 = time.perf_counter()
            vocab = text.train_bpe([self.corpus], vocab_size, min_freq=2)
            t1 = time.perf_counter()
            phase.passes.append((t1 - t0, t0, t1))
            if len(vocab) != vocab_size:
                phase.fail(f"train_bpe stopped at {len(vocab)} tokens, "
                           f"asked for {vocab_size}")
            if merges is not None and vocab.merges != merges:
                phase.fail("train_bpe learned a different table on a repeat")
            merges = vocab.merges
            if time.perf_counter() + (t1 - t0) > bpe_deadline:
                break
        probe.burst()
        probe.burst()
        self.vocab = vocab

        deadline = time.perf_counter() + seconds * 0.2
        i = 0
        while (i < max(len(self.lines), self.sizes.min_ops)
               or time.perf_counter() < deadline):
            line = self.lines[i % len(self.lines)]
            i += 1
            phase.attempted += 1
            probe.tick()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    ids = text.encode(line, vocab)
                else:
                    with tracer.operation(self.op_name):
                        ids = text.encode(line, vocab)
            except Exception:
                phase.fail(traceback.format_exc(limit=3))
                continue
            t1 = time.perf_counter()
            phase.ops.append((t1 - t0, t0, t1))
            phase.op_tokens.append(len(ids))
            problem = check_encoding(line, ids, vocab)
            if problem:
                phase.fail(f"line {i - 1}: {problem}")
        return phase

    def install(self, tracer: Tracer):
        tracer.span(text, "train_bpe", "text.train_bpe")
        tracer.span(text, "encode", "text.encode")
        return ["text.train_bpe", "text.encode"]

    def layers(self, phase: Phase, tracer: Tracer, speed: float) -> dict:
        inclusive, _ = tracer.totals()
        return {
            "text.distinct_word_frac": self.distinct_word_frac,
            "text.train_bpe_merges": len(self.vocab.merges),
            "trace.coverage": _per(tracer.child_time([self.op_name]),
                                   inclusive[self.op_name]),
        }


def check_encoding(line: str, ids, vocab) -> str | None:
    """decode(encode(t)) == t and every id is inside the vocabulary."""
    bad = [i for i in ids if not 0 <= i < len(vocab)]
    if bad:
        return f"ids {bad[:3]} outside the vocabulary of {len(vocab)}"
    back = text.decode(ids, vocab)
    if back != line:
        return f"round trip gave {back!r}"
    return None


WORKLOADS = {w.name: w for w in (TrainWorkload, TranslateWorkload,
                                 TokenizeWorkload)}
