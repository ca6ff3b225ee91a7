"""Optimization: Adam with bias correction, linear warmup into inverse
square-root decay, and the epoch loop over mixed-direction batches.

One epoch is a full pass over every (direction, example) pair, so with six
target languages each sentence pair contributes six training instances per
epoch. Batch order is reshuffled per epoch and dropout is re-seeded per
step, both derived from the run seed, so two runs with equal seeds produce
bitwise-identical parameters.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, asdict, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericError
from .files import append_text, csv_text, write_file
from .model import (MultimodalTranslator, check_fields, config_from_dict,
                    save_checkpoint)
from .seeding import derive_seed, rng_for
from .text import ParallelExample, make_batches
from .vision import VisualTokens


@dataclass
class TrainConfig:
    lr_peak: float = 1e-4
    lr_init: float = 1e-7
    warmup_steps: int = 2000
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-8
    epochs: int = 30
    max_tokens: int = 4096
    seed: int = 1
    grad_clip: Optional[float] = None  # off unless set

    def __post_init__(self):
        check_fields(self, ("lr_peak", "adam_eps"),
                     lambda v: 0 < v < math.inf, "not a finite positive number")
        check_fields(self, ("lr_init",), lambda v: 0 <= v < math.inf,
                     "not a finite non-negative number")
        check_fields(self, ("beta1", "beta2"), lambda v: 0 <= v < 1,
                     "outside [0, 1)")
        # warmup_steps 0 would make every learning rate lr_peak * sqrt(0)
        check_fields(self, ("epochs", "max_tokens", "warmup_steps"),
                     lambda v: v >= 1, "below 1")
        check_fields(self, ("seed",), lambda v: v >= 0, "negative")
        check_fields(self, ("grad_clip",),
                     lambda v: v is None or 0 < v < math.inf,
                     "not None or a finite positive number")


@dataclass
class TrainState:
    config: TrainConfig
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def fresh(cls, model: MultimodalTranslator,
              config: TrainConfig) -> "TrainState":
        state = cls(config=config)
        for name, p in model.params.items():
            state.m[name] = np.zeros(p.shape, dtype=np.float32)
            state.v[name] = np.zeros(p.shape, dtype=np.float32)
        return state

    def to_checkpoint_dict(self) -> dict:
        return {"step": self.step, "seed": self.config.seed,
                "config": asdict(self.config), "m": self.m, "v": self.v}

    @classmethod
    def from_checkpoint_dict(cls, d: Mapping) -> "TrainState":
        """The state ``d`` holds. Its moment arrays are taken over, not
        copied (``load_checkpoint`` returns arrays nothing else holds), and
        ``adam_step`` updates them in place. The seed slot is not read: it
        repeats the trainer config's seed."""
        return cls(config=config_from_dict(TrainConfig, d["config"]),
                   step=d["step"], m=dict(d["m"]), v=dict(d["v"]))


def lr_schedule(step: int, config: TrainConfig) -> float:
    """Linear warmup from lr_init to lr_peak, then lr_peak*sqrt(warmup/step).

    Exact at the published anchor points: lr(1)=lr_init, lr(warmup)=lr_peak,
    and the decay branch is continuous at the boundary.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    warmup = config.warmup_steps
    if step <= warmup:
        if warmup <= 1:
            return config.lr_peak
        frac = (step - 1) / (warmup - 1)
        return config.lr_init + (config.lr_peak - config.lr_init) * frac
    return config.lr_peak * np.sqrt(warmup / step)


def adam_step(params: Mapping[str, ad.Tensor], state: TrainState, lr: float):
    """In-place bias-corrected Adam update at step ``state.step``.

    Parameters with no gradient this step keep decaying moments; a NaN or
    Inf gradient aborts, naming the parameter. Leaves every parameter
    finite or dies trying.

    The float32 moments and the parameters are updated in place, through
    two scratch arrays per parameter, by the same float32 operations in
    the same order as ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    ``p -= lr*(m/c1) / (sqrt(v/c2) + eps)``, so the result is
    bit-identical to evaluating those expressions. ``.grad`` is only read.
    """
    t = state.step
    b1, b2, eps = state.config.beta1, state.config.beta2, state.config.adam_eps
    c1, c2 = 1 - b1 ** t, 1 - b2 ** t
    lr32, eps32 = np.float32(lr), np.float32(eps)
    clip = state.config.grad_clip
    if clip is not None:
        total = 0.0
        for p in params.values():
            if p.grad is not None:
                total += float((p.grad.astype(np.float64) ** 2).sum())
        norm = np.sqrt(total)
        clip_factor = min(1.0, clip / (norm + 1e-12))
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in parameter {name!r} "
                               f"at step {t}")
        g = g.astype(np.float32, copy=False)
        m, v = state.m[name], state.v[name]
        u, d = np.empty(m.shape, np.float32), np.empty(m.shape, np.float32)
        if clip is not None:
            g = np.multiply(g, np.float32(clip_factor), out=d)
        m *= b1
        m += np.multiply(g, 1 - b1, out=u)
        v *= b2
        np.multiply(g, 1 - b2, out=u)
        u *= g
        v += u
        # d held the clipped g, read for the last time above
        np.divide(m, c1, out=u)
        u *= lr32
        np.divide(v, c2, out=d)
        np.sqrt(d, out=d)
        d += eps32
        u /= d
        p.data -= u
        if not np.isfinite(p.data).all():
            raise NumericError(f"non-finite parameter {name!r} after step {t}")


@dataclass
class StepMetrics:
    step: int
    epoch: int
    lr: float
    loss: float
    tokens_per_sec: float


class MetricsLog:
    """Append-only CSV of per-step training metrics."""

    FIELDS = ["step", "epoch", "lr", "loss", "tokens_per_sec"]

    def __init__(self, path: Optional[str | Path]):
        self.path = Path(path) if path else None
        self.rows: list[StepMetrics] = []
        if self.path and not self.path.exists():
            write_file(self.path, "metrics file", csv_text([self.FIELDS]))

    def append(self, row: StepMetrics):
        self.rows.append(row)
        if self.path:
            append_text(self.path, "metrics file", csv_text(
                [[row.step, row.epoch, f"{row.lr:.8g}", f"{row.loss:.6f}",
                  f"{row.tokens_per_sec:.1f}"]]))


def train_loop(model: MultimodalTranslator,
               examples: Sequence[ParallelExample],
               visual_map: Optional[Mapping[str, VisualTokens]],
               state: TrainState,
               out_dir: Optional[str | Path] = None,
               stop_loss: Optional[float] = None,
               max_steps: Optional[int] = None,
               log_every: int = 0) -> list[StepMetrics]:
    """Run the optimization loop for ``state.config.epochs`` epochs;
    returns per-step metrics. An empty ``examples`` is refused, before
    anything is written.

    Checkpoints (parameters + moments) are written per epoch when
    ``out_dir`` is set, and ``checkpoint_last.lvpm`` also on an early stop,
    so it always holds the returned model. ``stop_loss`` stops once the
    mean loss over a full epoch's worth of recent steps falls below it (a
    single lucky batch is not convergence); ``max_steps`` is a hard cap.
    Resuming from a saved state, mid-epoch ones included, reproduces the
    exact continuation. The model is left in eval mode, holding no
    gradients.
    """
    if not examples:
        raise ConfigError("no examples to train on")
    cfg = state.config
    out_dir = Path(out_dir) if out_dir else None
    log = MetricsLog(out_dir / "metrics.csv" if out_dir else None)
    # every epoch holds the same batches, only their order changes
    per_epoch = len(make_batches(examples, cfg.max_tokens))
    start_epoch, done_in_epoch = divmod(state.step, per_epoch)
    recent: deque = deque(maxlen=per_epoch)
    model.train_mode = True
    stopped = False
    try:
        for epoch in range(start_epoch, cfg.epochs):
            batches = make_batches(examples, cfg.max_tokens,
                                   seed=derive_seed(cfg.seed, "epoch", epoch))
            if epoch == start_epoch:
                batches = batches[done_in_epoch:]
            for batch in batches:
                state.step += 1
                lr = lr_schedule(state.step, cfg)
                model.set_dropout_rng(rng_for("dropout", cfg.seed, state.step))
                model.zero_grad()
                t0 = time.perf_counter()
                loss = model.forward_loss(batch, visual_map)
                ad.backward(loss)
                adam_step(model.params, state, lr)
                elapsed = max(time.perf_counter() - t0, 1e-9)
                row = StepMetrics(step=state.step, epoch=epoch, lr=lr,
                                  loss=loss.item(),
                                  tokens_per_sec=batch.n_target_tokens / elapsed)
                # free this step's graph now, not while the next step
                # builds its own (backward already dropped its interior
                # gradients)
                del loss
                log.append(row)
                recent.append(row.loss)
                if log_every and state.step % log_every == 0:
                    print(f"step {row.step} epoch {row.epoch} lr {row.lr:.3g} "
                          f"loss {row.loss:.4f} tok/s {row.tokens_per_sec:.0f}")
                stopped = ((stop_loss is not None
                            and len(recent) == recent.maxlen
                            and sum(recent) / len(recent) < stop_loss)
                           or (max_steps is not None
                               and state.step >= max_steps))
                if stopped:
                    break
            if out_dir and not stopped:
                save_checkpoint(out_dir / f"checkpoint_epoch{epoch + 1}.lvpm",
                                model, state.to_checkpoint_dict())
            if out_dir:
                save_checkpoint(out_dir / "checkpoint_last.lvpm",
                                model, state.to_checkpoint_dict())
            if stopped:
                break
    finally:
        model.train_mode = False
        # the last step's gradients are spent; do not keep them alive
        ad.zero_grad(model.params.values())
    return log.rows
