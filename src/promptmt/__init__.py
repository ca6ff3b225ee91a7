"""Multilingual multimodal translation with language-conditioned visual
prompts: one shared model translates a pivot language into many targets,
steering frozen visual features through per-language mapping parameters
produced by a controller network."""

from .autodiff import Tensor, backward, grad_check, no_grad
from .decoding import Hypothesis, beam_search
from .evaluate import EvalReport, bleu4, evaluate, mask_sweep
from .model import (ModelConfig, MultimodalTranslator, load_checkpoint,
                    save_checkpoint)
from .text import Vocabulary, encode, decode, train_bpe
from .train import TrainConfig, TrainState, lr_schedule, train_loop
from .vision import VisualTokens, pseudo_visual_tokens, read_vtok, write_vtok

__all__ = [
    "Tensor", "backward", "grad_check", "no_grad",
    "Hypothesis", "beam_search",
    "EvalReport", "bleu4", "evaluate", "mask_sweep",
    "ModelConfig", "MultimodalTranslator", "load_checkpoint",
    "save_checkpoint",
    "Vocabulary", "encode", "decode", "train_bpe",
    "TrainConfig", "TrainState", "lr_schedule", "train_loop",
    "VisualTokens", "pseudo_visual_tokens", "read_vtok", "write_vtok",
]

__version__ = "0.1.0"
