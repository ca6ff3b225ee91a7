"""Per-image visual tokens: the VTOK binary container and a deterministic
pseudo-feature generator.

The real vision backbone is external and frozen; this package only consumes
its outputs. A VTOK file holds a matrix of M_v token vectors of width d_v
per image id. The pseudo generator stands in for a backbone so the whole
system is testable without one: features are derived from a hash of
(image_id, seed), so the same inputs produce bit-identical matrices on any
platform.

VTOK layout, all integers little-endian:
    magic "VTOK" | version u32 | count u32 | M_v u32 | d_v u32
    then `count` records: id_len u16 | id utf-8 | M_v*d_v float32
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError, FormatError
from .files import BinaryReader, BinaryWriter, about
from .seeding import rng_for

MAGIC = b"VTOK"
VERSION = 1


@dataclass
class VisualTokens:
    image_id: str
    tokens: np.ndarray  # [M_v, d_v] float32

    def __post_init__(self):
        self.tokens = np.ascontiguousarray(self.tokens, dtype=np.float32)
        if self.tokens.ndim != 2 or self.tokens.shape[0] < 1:
            raise FormatError(f"visual tokens for {self.image_id!r} must be a "
                              f"non-empty matrix, got shape {self.tokens.shape}")
        if not np.isfinite(self.tokens).all():
            raise FormatError(f"non-finite visual token for {self.image_id!r}")


def write_vtok(records: Iterable[VisualTokens], path: str | Path):
    """Serialize records to a VTOK file. All records must share one
    (M_v, d_v) shape and ids must be unique."""
    records = list(records)
    if records:
        m_v, d_v = records[0].tokens.shape
    else:
        m_v = d_v = 0
    seen = set()
    for rec in records:
        if rec.tokens.shape != (m_v, d_v):
            raise FormatError(f"record {rec.image_id!r} has shape "
                              f"{rec.tokens.shape}, file uses ({m_v}, {d_v})")
        if rec.image_id in seen:
            raise FormatError(f"duplicate image id {rec.image_id!r}")
        seen.add(rec.image_id)

    out = BinaryWriter(MAGIC, VERSION)
    out.pack("<III", len(records), m_v, d_v)
    with about(path):   # an id longer than its length field
        for i, rec in enumerate(records):
            out.text("<H", rec.image_id, f"id of record {i}")
            out.floats(rec.tokens)
    out.write(path, "VTOK file")


class VisualTable(dict):
    """The image id -> VisualTokens map of the VTOK file ``path``. Looking
    up an id the file lacks raises ConfigError naming the id and the file;
    an id it holds is looked up as in a plain dict."""
    path: Path

    def __missing__(self, image_id):
        raise ConfigError(f"no visual tokens for image id {image_id!r} "
                          f"in {self.path}")


def read_vtok(path: str | Path) -> VisualTable:
    """Parse a VTOK file into its id -> VisualTokens table, which refuses
    an id it lacks by naming the file.

    Structural defects (bad magic, truncation, duplicate ids) raise
    FormatError carrying the byte offset of the problem.
    """
    reader = BinaryReader(path, "VTOK file", MAGIC, VERSION)
    count, m_v, d_v = reader.unpack("<III", "header")
    out = VisualTable()
    out.path = reader.path
    for i in range(count):
        ident = reader.text("<H", f"id of record {i}")
        if ident in out:
            raise reader.error(f"duplicate image id {ident!r}", reader.offset)
        tokens = reader.floats((m_v, d_v), f"tokens of record {i} ({ident!r})")
        with about(reader.path):   # an empty or non-finite matrix
            out[ident] = VisualTokens(image_id=ident, tokens=tokens)
    reader.end()
    return out


def pseudo_visual_tokens(image_id: str, m_v: int, d_v: int,
                         seed: int) -> VisualTokens:
    """Deterministic unit-norm pseudo features for one image id."""
    if m_v < 1 or d_v < 1:
        raise FormatError(f"m_v and d_v must be >= 1, got ({m_v}, {d_v})")
    rng = rng_for("pseudo-vtok", image_id, seed)
    mat = rng.standard_normal((m_v, d_v))
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    return VisualTokens(image_id=image_id, tokens=mat.astype(np.float32))


def make_pseudo_vtok(image_ids: Iterable[str], m_v: int, d_v: int, seed: int,
                     path: str | Path) -> int:
    """Write pseudo features for every id to ``path``; returns the count."""
    records = [pseudo_visual_tokens(i, m_v, d_v, seed) for i in image_ids]
    write_vtok(records, path)
    return len(records)
