"""The translation network: shared text encoder, a controller network that
generates per-target-language parameters for the visual-prompt mapping,
per-modality self-fusion layers, text-queries-vision co-attention, and a
Transformer decoder with the output projection tied to the embedding table.

One shared model serves every translation direction; the target language
enters twice through the same embedding row, as the tag prefixed to the
source sequence and as the controller input that conditions the visual
prompts.

Variants (ablation switches):
    full      controller-generated mapping of visual tokens (the method)
    static    same affine mapping, but with ordinary learned parameters
              shared across target languages
    no_lvpg   visual tokens pass through one learned projection shared
              across target languages, then the same self-fusion and
              co-attention: at equal seeds the function ``static``
              computes, under other parameter names
    text_only vision path skipped entirely; the decoder attends to the
              encoder output
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, field
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError, VariantError
from .files import BinaryReader, BinaryWriter, about, config_from_dict
from .seeding import derive_seed, rng_for
from .text import BOS_ID, PAD_ID, RESERVED_TOKENS
from .vision import VisualTokens

VARIANTS = ("full", "no_lvpg", "static", "text_only")

# the variants whose prompts are one learned affine map of the visual
# tokens, shared by every target language, by parameter prefix
_AFFINE_PROMPTS = {"static": "static", "no_lvpg": "visproj"}

CKPT_MAGIC = b"LVPM"
CKPT_VERSION = 1

_NEG_INF = -1e9


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 96
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_ffn: int = 0          # 0 -> 4 * d_model
    d_v: int = 0            # visual feature width; may be 0 for text_only
    d_ctrl: int = 0         # 0 -> d_model
    n_coattn_layers: int = 1
    variant: str = "full"
    dropout: float = 0.3
    eps_ls: float = 0.1
    n_langs: int = 0        # language tags, the ids after the reserved ones;
                            # 0: not recorded, any non-reserved id may be one
    # the vocabulary trained with: its languages in tag order and its
    # Vocabulary.sha256; None: not recorded, only its size is checked
    vocab_languages: Optional[list] = None
    vocab_sha256: Optional[str] = None

    def __post_init__(self):
        check_fields(self, ("d_model", "n_heads"), lambda v: v >= 1,
                     "below 1")
        check_fields(self, ("n_enc_layers", "n_dec_layers", "d_ffn", "d_v",
                            "d_ctrl", "n_coattn_layers", "n_langs"),
                     lambda v: v >= 0, "negative")
        check_fields(self, ("dropout", "eps_ls"), lambda v: 0.0 <= v < 1.0,
                     "outside [0, 1)")
        ids = len(RESERVED_TOKENS) + self.n_langs
        check_fields(self, ("vocab_size",), lambda v: v > ids,
                     f"not above the {ids} reserved and tag ids")
        if self.d_ffn == 0:
            self.d_ffn = 4 * self.d_model
        if self.d_ctrl == 0:
            self.d_ctrl = self.d_model
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, "
                              f"expected one of {VARIANTS}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by "
                              f"n_heads={self.n_heads}")
        if self.variant != "text_only" and self.d_v <= 0:
            raise ConfigError(f"variant {self.variant!r} requires d_v > 0")


def check_fields(config, names, ok, rule: str):
    """Refuse the first field in ``names`` whose value fails ``ok``."""
    for name in names:
        value = getattr(config, name)
        if not ok(value):
            raise ConfigError(f"{name}={value!r} is {rule}")


def sinusoidal_positions(n: int, d: int, dtype=np.float32,
                         start: int = 0) -> np.ndarray:
    """Encodings of positions ``start`` .. ``start + n - 1``."""
    pos = np.arange(start, start + n, dtype=np.float64)[:, None]
    dim = np.arange((d + 1) // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * dim / d)
    out = np.zeros((n, d), dtype=np.float64)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles[:, :d // 2])
    return out.astype(dtype)


def _zeros(rng, shape):
    return np.zeros(shape)


def _ones(rng, shape):
    return np.ones(shape)


def _affine(name: str, d_in: int, d_out: int, scale=1.0, bias=_zeros):
    """A weight drawn uniformly in +-scale/sqrt(d_in), and a bias that
    ``bias`` draws (zeros by default)."""
    bound = scale / np.sqrt(d_in)
    yield (f"{name}.w", (d_in, d_out),
           lambda rng, shape: rng.uniform(-bound, bound, shape))
    yield f"{name}.b", (d_out,), bias


def _norm(prefix: str, d: int):
    """A layer norm's gain (ones) and bias (zeros)."""
    yield f"{prefix}.gain", (d,), _ones
    yield f"{prefix}.bias", (d,), _zeros


class MultimodalTranslator:
    """Parameter store plus the forward passes of every variant."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self._build(config, seed, None)
        rng = rng_for("init", seed)
        for name, shape, draw in self._init_params():
            self._param(name, draw(rng, shape))

    @classmethod
    def from_arrays(cls, config: ModelConfig,
                    arrays: Mapping[str, np.ndarray], dtype=None
                    ) -> "MultimodalTranslator":
        """A model whose parameters are ``arrays``, by name, nothing drawn.
        An array of the model's dtype becomes the parameter as it is, so the
        caller hands it over; another is cast. A missing or extra name, or a
        wrong shape, raises ``ConfigError``."""
        model = cls.__new__(cls)
        model._build(config, 0, dtype)
        shapes = {name: shape for name, shape, _ in model._init_params()}
        missing = shapes.keys() - arrays.keys()
        extra = arrays.keys() - shapes.keys()
        if missing or extra:
            raise ConfigError(f"parameter names do not match checkpoint "
                              f"(missing {sorted(missing)}, extra "
                              f"{sorted(extra)})")
        for name, arr in arrays.items():
            if arr.shape != shapes[name]:
                raise ConfigError(f"shape mismatch for {name}: checkpoint "
                                  f"{arr.shape} vs model {shapes[name]}")
        for name in shapes:
            model._param(name, arrays[name])
        return model

    def _build(self, config: ModelConfig, seed: int, dtype):
        self.config = config
        self.dtype = np.dtype(dtype or np.float32).type
        self.train_mode = False
        self._rng = rng_for("dropout", seed)
        self.params: dict[str, Tensor] = {}
        self._positions = np.zeros((0, config.d_model), self.dtype)

    # -- parameter construction ------------------------------------------

    def _param(self, name: str, data: np.ndarray):
        self.params[name] = Tensor(data, requires_grad=True, dtype=self.dtype)

    def _layer_params(self, prefix: str, cross: bool = False):
        d, d_ffn = self.config.d_model, self.config.d_ffn
        for proj in ("q", "k", "v", "o"):
            yield from _affine(f"{prefix}.self.{proj}", d, d)
        yield from _norm(f"{prefix}.ln1", d)
        if cross:
            for proj in ("q", "k", "v", "o"):
                yield from _affine(f"{prefix}.cross.{proj}", d, d)
            yield from _norm(f"{prefix}.ln2", d)
        yield from _affine(f"{prefix}.ffn.1", d, d_ffn)
        yield from _affine(f"{prefix}.ffn.2", d_ffn, d)
        yield from _norm(f"{prefix}.{'ln3' if cross else 'ln2'}", d)

    def _init_params(self):
        """Every parameter of the configured variant as ``(name, shape,
        draw)``, in checkpoint order: ``draw(rng, shape)`` gives a fresh
        model's initial values, drawn from ``rng`` in this order."""
        cfg = self.config
        d, d_v = cfg.d_model, cfg.d_v
        yield ("embedding", (cfg.vocab_size, d),
               lambda rng, shape: rng.standard_normal(shape) / np.sqrt(d))
        for i in range(cfg.n_enc_layers):
            yield from self._layer_params(f"enc.{i}")
        for i in range(cfg.n_dec_layers):
            yield from self._layer_params(f"dec.{i}", cross=True)

        if cfg.variant == "full":
            theta_len = d_v * d + d
            yield from _affine("ctrl.1", d, cfg.d_ctrl)
            # output layer starts near zero with an identity-leaning bias, so
            # initial prompts are a mild fixed projection of the visual
            # tokens and the language conditioning grows from small
            yield from _affine(
                "ctrl.2", cfg.d_ctrl, theta_len, scale=0.01,
                bias=lambda rng, shape: np.concatenate(
                    [np.eye(d_v, d).reshape(-1), np.zeros(d)]))
        elif cfg.variant in _AFFINE_PROMPTS:
            yield from _affine(_AFFINE_PROMPTS[cfg.variant], d_v, d)
        if cfg.variant in ("full", "static", "no_lvpg"):
            yield from self._layer_params("fuse_text")
            yield from self._layer_params("fuse_vis")
            for j in range(cfg.n_coattn_layers):
                yield from self._layer_params(f"coattn.{j}")

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def astype(self, dtype) -> "MultimodalTranslator":
        """A copy with parameters cast to ``dtype`` (for gradient checks)."""
        return MultimodalTranslator.from_arrays(
            self.config, {name: p.data.astype(dtype)
                          for name, p in self.params.items()}, dtype)

    def set_dropout_rng(self, rng: np.random.Generator):
        self._rng = rng

    # -- building blocks ---------------------------------------------------

    def _const(self, data) -> Tensor:
        return Tensor(np.asarray(data, dtype=self.dtype), dtype=self.dtype)

    def _dropout(self, x: Tensor) -> Tensor:
        if not self.train_mode:
            return x
        return ad.dropout(x, self.config.dropout, self._rng)

    def _lin(self, prefix: str, x: Tensor) -> Tensor:
        return ad.linear(x, self.params[f"{prefix}.w"], self.params[f"{prefix}.b"])

    def _ln(self, prefix: str, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.params[f"{prefix}.gain"],
                             self.params[f"{prefix}.bias"])

    def _heads(self, prefix: str, x: Tensor) -> Tensor:
        """Project lead + (n, d) through ``prefix`` and split the heads:
        lead + (heads, n, head_dim); lead is () or (B,)."""
        return ad.heads(x, self.params[f"{prefix}.w"],
                        self.params[f"{prefix}.b"], self.config.n_heads)

    def _key_bias(self, key_mask: Optional[np.ndarray],
                  n: int) -> Optional[np.ndarray]:
        """Additive score bias hiding the keys marked (True) in a lead + (m,)
        ``key_mask`` from all ``n`` queries of every head, None when nothing
        is masked: a lead + (heads, n, m) view of one lead + (1, 1, m)
        array, so nothing is copied per head or query."""
        if key_mask is None or not key_mask.any():
            return None
        bias = np.where(key_mask, _NEG_INF, 0.0).astype(self.dtype)
        return np.broadcast_to(bias[..., None, None, :],
                               key_mask.shape[:-1] + (self.config.n_heads, n,
                                                      key_mask.shape[-1]))

    def _causal_bias(self, n: int, start: int) -> Optional[np.ndarray]:
        """Additive [n, start + n] score bias: query i sits at position
        start + i and sees no key after it. None when nothing is hidden."""
        if n == 1:
            return None
        return np.triu(np.full((n, start + n), _NEG_INF, dtype=self.dtype),
                       k=start + 1)

    def _attend(self, prefix: str, qh: Tensor, kh: Tensor, vh: Tensor,
                bias: Optional[np.ndarray]) -> Tensor:
        """Scaled dot-product attention of split-head queries over split-head
        keys and values (which may lack the queries' batch dimension), heads
        merged and projected through ``prefix.o``. ``bias`` broadcasts over
        missing leading dimensions only. At train time the attention
        distributions are dropped out with a mask drawn here, as ``_dropout``
        would draw it."""
        keep = None
        if self.train_mode and self.config.dropout > 0.0:
            keep = ad.dropout_mask(qh.shape[:-1] + (kh.shape[-2],),
                                   self.config.dropout, self._rng,
                                   qh.data.dtype)
        return self._lin(f"{prefix}.o", ad.attention(qh, kh, vh, bias, keep))

    def _mha(self, prefix: str, query: Tensor, memory: Tensor,
             key_mask: Optional[np.ndarray] = None) -> Tensor:
        """Multi-head attention of lead + (n, d) queries over a lead + (m, d)
        memory; ``key_mask`` (lead + (m,)) marks key positions (True) no
        query of that row may attend to."""
        return self._attend(prefix, self._heads(f"{prefix}.q", query),
                            self._heads(f"{prefix}.k", memory),
                            self._heads(f"{prefix}.v", memory),
                            self._key_bias(key_mask, query.shape[-2]))

    def _ffn(self, prefix: str, x: Tensor) -> Tensor:
        h = self._dropout(ad.relu(self._lin(f"{prefix}.1", x)))
        return self._lin(f"{prefix}.2", h)

    def _encoder_layer(self, prefix: str, x: Tensor,
                       key_mask: Optional[np.ndarray],
                       memory: Optional[Tensor] = None) -> Tensor:
        """Post-norm attention and FFN sublayers over ``x``. The keys and
        values are ``memory`` (``key_mask`` marking its hidden positions),
        by default ``x`` itself."""
        a = self._mha(f"{prefix}.self", x, x if memory is None else memory,
                      key_mask=key_mask)
        x = self._ln(f"{prefix}.ln1", ad.add(x, self._dropout(a)))
        f = self._ffn(f"{prefix}.ffn", x)
        return self._ln(f"{prefix}.ln2", ad.add(x, self._dropout(f)))

    def _embed(self, ids) -> Tensor:
        """Scaled embeddings of ``ids`` at positions 0 onwards."""
        ids = np.asarray(ids, dtype=np.int64)
        d = self.config.d_model
        x = ad.scale(ad.embedding_lookup(self.params["embedding"], ids),
                     np.sqrt(d))
        return self._dropout(ad.add(x, self._const(
            self._position_rows(0, ids.shape[-1]))))

    def _position_rows(self, start: int, n: int) -> np.ndarray:
        """``sinusoidal_positions(n, d_model, dtype, start)``, sliced from a
        table that doubles when a position beyond it is asked for (each
        row depends only on its own position, so a slice equals the direct
        computation bit for bit)."""
        end = start + n
        if end > len(self._positions):
            self._positions = sinusoidal_positions(
                max(end, 2 * len(self._positions)), self.config.d_model,
                self.dtype)
        return self._positions[start:end]

    # -- public forward stages ----------------------------------------------

    def encode_source(self, source_ids) -> Tensor:
        """Run tagged source sequences, [S] or [B, S] ids, through the
        Transformer encoder: [S, d_model] or [B, S, d_model]. PAD positions
        are masked out of every attention distribution of their row."""
        ids = np.asarray(source_ids, dtype=np.int64)
        if ids.shape[-1] == 0:
            raise ShapeError("encode_source: empty source sequence")
        key_mask = ids == PAD_ID
        x = self._embed(ids)
        for i in range(self.config.n_enc_layers):
            x = self._encoder_layer(f"enc.{i}", x, key_mask)
        return x

    def controller_forward(self, tag_ids) -> Tensor:
        """Generate the visual-prompt mapping of each target language from
        its tag embedding: two affine layers with ReLU. For tag ids of
        shape lead the result (a graph node) is lead + (d_v + 1, d_model):
        the [d_v, d_model] weight rows of the affine map, then its bias
        row."""
        if self.config.variant != "full":
            raise VariantError("controller_forward requires the 'full' "
                               f"variant, model is {self.config.variant!r}")
        d, d_v = self.config.d_model, self.config.d_v
        ids = np.asarray(tag_ids, dtype=np.int64)
        t = ad.embedding_lookup(self.params["embedding"], ids.reshape(-1))
        flat = self._lin("ctrl.2", ad.relu(self._lin("ctrl.1", t)))
        return ad.reshape(flat, ids.shape + (d_v + 1, d))

    def apply_mapping(self, v: Tensor, theta: Tensor) -> Tensor:
        """Map lead + (M_v, d_v) visual tokens through generated affine maps
        lead + (d_v + 1, d_model) (weight rows, then the bias row): with a
        ones column appended to the tokens this is one matmul."""
        if v.shape[-1] + 1 != theta.shape[-2]:
            raise ShapeError(f"apply_mapping: visual width {v.shape[-1]} vs "
                             f"mapping input {theta.shape[-2] - 1}")
        ones = self._const(np.ones(v.shape[:-1] + (1,)))
        return ad.matmul(ad.concat([v, ones], axis=-1), theta)

    def visual_prompt(self, visual, tag_ids) -> Tensor:
        """Variant dispatch from raw visual tokens to the prompt sequence:
        one ``VisualTokens`` and a tag id give [M_v, d_model], a sequence of
        B of them (one shape) and B tag ids give [B, M_v, d_model]."""
        v = self._const(_stack_visual(visual))
        variant = self.config.variant
        if variant == "full":
            return self.apply_mapping(v, self.controller_forward(tag_ids))
        if variant in _AFFINE_PROMPTS:
            return self._lin(_AFFINE_PROMPTS[variant], v)
        raise VariantError("text_only variant has no visual prompts")

    def self_fuse(self, s0: Tensor, p0: Tensor,
                  src_key_mask: Optional[np.ndarray] = None
                  ) -> tuple[Tensor, Tensor]:
        """One self-attention layer per modality, text and prompts fused
        independently; shapes are preserved."""
        if s0.shape[-2] == 0 or p0.shape[-2] == 0:
            raise ShapeError("self_fuse: empty stream")
        s = self._encoder_layer("fuse_text", s0, src_key_mask)
        p = self._encoder_layer("fuse_vis", p0, None)
        return s, p

    def co_attention(self, s: Tensor, p: Tensor) -> Tensor:
        """Vision-guided tokens: text as query, prompts as key/value, then
        the usual residual/norm/FFN trailer. Output keeps the text length."""
        if self.config.variant == "text_only":
            raise VariantError("co_attention unavailable under text_only")
        if p.shape[-2] == 0:
            raise ShapeError("co_attention: empty prompt sequence")
        for j in range(self.config.n_coattn_layers):
            s = self._encoder_layer(f"coattn.{j}", s, None, memory=p)
        return s

    def check_vocabulary(self, vocab) -> None:
        """Refuse a vocabulary of another size than the embedding table or,
        where the config records ``n_langs``, with another number of
        languages; and, where the config records the vocabulary the model
        was trained with, one whose tags name other languages or another
        order, or whose merges differ."""
        cfg = self.config
        if len(vocab) != cfg.vocab_size:
            raise ConfigError(f"vocabulary of {len(vocab)} tokens does not "
                              f"match the model's {cfg.vocab_size}-token "
                              "embedding table")
        if cfg.n_langs and cfg.n_langs != len(vocab.languages):
            raise ConfigError(f"vocabulary tags {len(vocab.languages)} "
                              f"languages, the model's n_langs is "
                              f"{cfg.n_langs}")
        if (cfg.vocab_languages is not None
                and cfg.vocab_languages != vocab.languages):
            raise ConfigError(f"vocabulary tags the languages "
                              f"{vocab.languages}, the model was trained "
                              f"with {cfg.vocab_languages} in that order")
        # an unrecorded checkpoint's vocabulary is never hashed
        if cfg.vocab_sha256 is not None and cfg.vocab_sha256 != vocab.sha256:
            raise ConfigError("vocabulary's merges differ from those of the "
                              "vocabulary the model was trained with")

    def prepare_source(self, source_ids, visual
                       ) -> tuple[Tensor, np.ndarray]:
        """Everything up to the decoder, per the configured variant: the
        cross-attention memory and the source key mask. [S] ids with one
        ``VisualTokens`` give [S, d_model] and [S]; [B, S] ids with one per
        row give [B, S, d_model] and [B, S]."""
        ids = np.asarray(source_ids, dtype=np.int64)
        tags = ids[..., :1]
        first = len(RESERVED_TOKENS)
        end = first + (self.config.n_langs or self.config.vocab_size)
        untagged = (tags < first) | (tags >= end)
        if untagged.any():
            raise ConfigError(f"source id {int(tags[untagged][0])} at "
                              "position 0 is not a language tag (tags lie in "
                              f"{first}..{end - 1})")
        key_mask = ids == PAD_ID
        s0 = self.encode_source(ids)
        if self.config.variant == "text_only":
            return s0, key_mask
        if visual is None:
            raise ConfigError(f"variant {self.config.variant!r} requires "
                              "visual tokens, none provided")
        p0 = self.visual_prompt(visual, tags[..., 0])
        s, p = self.self_fuse(s0, p0, key_mask)
        return self.co_attention(s, p), key_mask

    def decoder_state(self, memory: Tensor) -> "DecoderState":
        """An empty state for incremental decoding over ``memory``. The
        arrays every step reads are gathered here, once: the embedding
        table and each decoder layer's parameter arrays, paired in
        ``_layer_params`` order as (weight, bias) or (gain, bias); and the
        memory's cross-attention keys and values, projected once for every
        decoder layer. Only valid under ``no_grad`` with ``train_mode``
        off."""
        self._require_inference()
        layers = []
        for i in range(self.config.n_dec_layers):
            arrays = [self.params[name].data for name, _, _ in
                      self._layer_params(f"dec.{i}", cross=True)]
            layers.append(tuple(zip(arrays[::2], arrays[1::2])))
        return DecoderState(self.params["embedding"].data, layers, [
            tuple(ad._heads(memory.data, *pair, self.config.n_heads)[1]
                  for pair in layer[6:8])   # cross.k, cross.v
            for layer in layers])

    def _require_inference(self):
        if ad.grad_enabled() or self.train_mode:
            raise ConfigError("a decoder state is only valid under no_grad "
                              "with train_mode off")

    def decode(self, memory: Tensor, input_ids,
               src_key_mask: Optional[np.ndarray] = None,
               state: Optional["DecoderState"] = None) -> Tensor:
        """Decoder pass over already-shifted inputs.

        Without ``state`` this is the teacher-forcing pass: ``input_ids`` is
        the BOS-led prefix, and row t of the returned [T, vocab] logits
        scores the token following position t and sees only positions <= t
        of the input. A [B, T] id matrix decodes a batch of prefixes,
        returning [B, T, vocab], over a [S, d_model] memory shared by every
        row or over a [B, S, d_model] memory with one source per row.

        With a ``state`` from ``decoder_state`` the [B, n] ids sit at the
        next positions, ``state.length`` onwards: their self-attention keys
        and values join the state's cache, the memory's come from the
        state, and the [B, n, vocab] logits are those the teacher-forcing
        pass gives at these positions. This incremental step records no
        graph: it runs the forward kernels of the ``autodiff`` ops the
        teacher-forcing pass records (``_affine``, ``_heads``,
        ``_attention``, ``_layer_norm``, ``_lookup``), checks included, on
        the parameter arrays the state gathered, and wraps only the logits
        in a node. It builds no parameter name and reads nothing from
        ``params``.
        """
        ids = np.asarray(input_ids, dtype=np.int64)
        if state is not None:
            return self._step(ids, src_key_mask, state)
        causal_bias = self._causal_bias(ids.shape[-1], 0)
        x = self._embed(ids)
        for i in range(self.config.n_dec_layers):
            prefix = f"dec.{i}"
            a = self._attend(f"{prefix}.self",
                             *(self._heads(f"{prefix}.self.{p}", x)
                               for p in "qkv"), causal_bias)
            x = self._ln(f"{prefix}.ln1", ad.add(x, self._dropout(a)))
            a = self._mha(f"{prefix}.cross", x, memory, src_key_mask)
            x = self._ln(f"{prefix}.ln2", ad.add(x, self._dropout(a)))
            f = self._ffn(f"{prefix}.ffn", x)
            x = self._ln(f"{prefix}.ln3", ad.add(x, self._dropout(f)))
        return ad.matmul(x, ad.transpose(self.params["embedding"]))

    def _step(self, ids: np.ndarray, src_key_mask: Optional[np.ndarray],
              state: "DecoderState") -> Tensor:
        """``decode`` with a state: the eval-mode teacher-forcing pass's
        forward arithmetic at the new positions, on plain arrays."""
        self._require_inference()
        if ids.ndim != 2:
            raise ShapeError(f"decode: a decoder state takes [B, n] ids, "
                             f"got shape {ids.shape}")
        h, start, n = self.config.n_heads, state.length, ids.shape[-1]
        causal_bias = self._causal_bias(n, start)
        key_bias = self._key_bias(src_key_mask, n)
        x = ad._lookup(state.embedding, ids)
        x = x * x.dtype.type(np.sqrt(self.config.d_model))
        x = x + self._position_rows(start, n)
        for i, (sq, sk, sv, so, ln1, cq, _, _, co, ln2, f1, f2, ln3) in \
                enumerate(state.layers):
            k, v = state.append(i, ad._heads(x, *sk, h)[1],
                                ad._heads(x, *sv, h)[1])
            a = ad._attention(ad._heads(x, *sq, h)[1], k, v, causal_bias)[-1]
            x = ad._layer_norm(x + ad._affine(a, *so)[1], *ln1)[2]
            a = ad._attention(ad._heads(x, *cq, h)[1], *state.cross[i],
                              key_bias)[-1]
            x = ad._layer_norm(x + ad._affine(a, *co)[1], *ln2)[2]
            f = ad._affine(np.maximum(ad._affine(x, *f1)[1], 0), *f2)[1]
            x = ad._layer_norm(x + f, *ln3)[2]
        state.length += n
        return ad.make_node(np.matmul(x, state.embedding.T), (), None)

    def forward_loss(self, batch,
                     visual_map: Optional[Mapping[str, VisualTokens]] = None
                     ) -> Tensor:
        """Mean label-smoothed cross entropy over all non-pad target tokens
        of a batch; directions may be mixed freely. The batch runs as one
        graph over its padded [B, S] sources and [B, T] targets: PAD keys
        are masked out of every attention, PAD labels out of the loss.
        A vision variant indexes ``visual_map`` by each example's image id,
        so a ``read_vtok`` table refuses an id it lacks naming its file;
        with no map, ``prepare_source`` refuses the batch."""
        if not batch.examples:
            raise ConfigError("forward_loss: empty batch")
        for ex in batch.examples:
            if ex.target_ids[0] != BOS_ID:
                raise ConfigError(f"example {ex.example_id}: target must "
                                  "begin with BOS")
        visual = None
        if self.config.variant != "text_only" and visual_map is not None:
            visual = [visual_map[ex.image_id] for ex in batch.examples]
        memory, key_mask = self.prepare_source(batch.padded("source"), visual)
        target = batch.padded("target")
        logits = self.decode(memory, target[:, :-1], key_mask)
        loss_sum = ad.cross_entropy_label_smoothed(
            ad.reshape(logits, (-1, logits.shape[-1])),
            target[:, 1:].reshape(-1), self.config.eps_ls, PAD_ID)
        return ad.scale(loss_sum, 1.0 / batch.n_target_tokens)


@dataclass
class DecoderState:
    """Incremental decoding over one memory (``MultimodalTranslator.decode``),
    all of it plain arrays.

    ``embedding`` is the embedding table, and ``layers[i]`` holds decoder
    layer i's 13 parameter pairs, (weight, bias) or (gain, bias), in
    ``_layer_params`` order: self q/k/v/o, ln1, cross q/k/v/o, ln2, ffn.1,
    ffn.2, ln3. A step reads these and not the model's parameter store, so
    a state reads the arrays it was made with: an in-place update of them,
    such as Adam's, is seen by its later steps (the cross keys and values
    stay as projected), and a parameter whose ``Tensor`` is replaced is
    not.

    ``length`` positions have been decoded. ``cache[i]`` holds decoder layer
    i's self-attention keys and values of them, [B, heads, length,
    head_dim] for B rows. ``cross[i]`` holds its keys and values of the
    memory: [heads, m, head_dim] for a [m, d_model] memory shared by every
    row, [B, heads, m, head_dim] for a [B, m, d_model] memory with one
    source per row, whose rows ``reorder`` moves with the cache's (the
    caller moves a per-row source key mask itself).
    """
    embedding: np.ndarray
    layers: list[tuple[tuple[np.ndarray, np.ndarray], ...]]
    cross: list[tuple[np.ndarray, np.ndarray]]
    cache: list[Optional[tuple[np.ndarray, np.ndarray]]] = field(init=False)
    length: int = 0

    def __post_init__(self):
        self.cache = [None] * len(self.cross)

    def append(self, layer: int, k: np.ndarray, v: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Add new positions' keys and values to a layer's cache; returns
        the whole cache of that layer."""
        cached = self.cache[layer]
        if cached is not None:
            k = np.concatenate((cached[0], k), axis=-2)
            v = np.concatenate((cached[1], v), axis=-2)
        self.cache[layer] = (k, v)
        return k, v

    def reorder(self, rows) -> None:
        """Keep the cached rows ``rows``, in that order (repeats allowed):
        beam search passes the parent row of every surviving hypothesis.
        Per-row cross keys and values are gathered alike."""
        rows = np.asarray(rows, dtype=np.int64)
        self.cache = [None if kv is None else (kv[0][rows], kv[1][rows])
                      for kv in self.cache]
        self.cross = [kv if kv[0].ndim < 4 else (kv[0][rows], kv[1][rows])
                      for kv in self.cross]


def _stack_visual(visual) -> np.ndarray:
    """The token matrix of one ``VisualTokens``, or the [B, M_v, d_v] stack
    of a sequence of them, which must share one shape."""
    if isinstance(visual, VisualTokens):
        return visual.tokens
    shapes = {vt.tokens.shape for vt in visual}
    if len(shapes) > 1:
        detail = ", ".join(f"{vt.image_id!r} {vt.tokens.shape}"
                           for vt in visual)
        raise ShapeError(f"visual tokens of one batch differ in shape: "
                         f"{detail}")
    return np.stack([vt.tokens for vt in visual])


def check_model_gradients(model: MultimodalTranslator, batch,
                          visual_map: Optional[Mapping[str, VisualTokens]],
                          max_entries: int = 8) -> list[ad.GradCheckReport]:
    """Finite-difference check of the composed loss against every parameter.

    The model is recast to float64 and run in eval mode; for each parameter
    a seeded sample of ``max_entries`` coordinates is perturbed by 1e-4
    (tolerance 1e-3). Covers the whole path, including loss -> co-attention
    -> prompts -> generated parameters -> controller weights under the full
    variant.
    """
    model64 = model.astype(np.float64)
    model64.train_mode = False
    reports = []
    for name in model64.params:
        def f(x, _name=name):
            saved = model64.params[_name]
            model64.params[_name] = x
            try:
                return model64.forward_loss(batch, visual_map)
            finally:
                model64.params[_name] = saved

        reports.append(ad.grad_check(
            f, model64.params[name], h=1e-4, max_entries=max_entries,
            seed=derive_seed(0, name), name=name))
    return reports


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

def save_checkpoint(path: str | Path, model: MultimodalTranslator,
                    train_state: Optional[dict] = None):
    """Write config + parameters (and optionally optimizer state) to disk.

    Layout: magic "LVPM", version u32, config JSON (u32 length prefix),
    param count u32, then per parameter: name (u16 length + utf-8), ndim u8,
    dims u32 each, float32 data little-endian. A trailing flag byte marks an
    optional optimizer section: step u64, seed u64, trainer-config JSON,
    then first/second moments in parameter order.
    """
    names = list(model.params)
    out = BinaryWriter(CKPT_MAGIC, CKPT_VERSION)
    with about(path):   # a name or JSON longer than its length field
        out.json("<I", asdict(model.config), "config")
        out.pack("<I", len(names))
        for i, name in enumerate(names):
            data = model.params[name].data
            out.text("<H", name, f"name {i}")
            out.pack(f"<B{data.ndim}I", data.ndim, *data.shape)
            out.floats(data)
        out.pack("<B", train_state is not None)   # the optimizer flag
        if train_state is not None:
            out.pack("<QQ", train_state["step"], train_state["seed"])
            out.json("<I", train_state["config"], "trainer config")
            for section in ("m", "v"):
                for name in names:
                    out.floats(train_state[section][name])
    out.write(path, "checkpoint")


def load_checkpoint(path: str | Path
                    ) -> tuple[MultimodalTranslator, Optional[dict]]:
    """Rebuild a model (and optimizer state, if stored) from a checkpoint."""
    reader = BinaryReader(path, "checkpoint", CKPT_MAGIC, CKPT_VERSION)
    cfg = reader.json("<I", "config")
    (n_params,) = reader.unpack("<I", "parameter count")
    arrays: dict[str, np.ndarray] = {}
    for i in range(n_params):
        name = reader.text("<H", f"name {i}")
        (ndim,) = reader.unpack("<B", f"ndim of {name}")
        shape = reader.unpack(f"<{ndim}I", f"shape of {name}")
        arrays[name] = reader.floats(shape, f"data of {name}")
    with about(reader.path):
        model = MultimodalTranslator.from_arrays(
            config_from_dict(ModelConfig, cfg), arrays)

    (has_state,) = reader.unpack("<B", "optimizer flag")
    state = None
    if has_state:
        step, seed = reader.unpack("<QQ", "step/seed")
        tcfg = reader.json("<I", "trainer config")
        state = {"step": step, "seed": seed, "config": tcfg, "m": {}, "v": {}}
        for section in ("m", "v"):
            for name, p in model.params.items():
                state[section][name] = reader.floats(
                    p.shape, f"{section} moment of {name}")
    reader.end()
    return model, state

