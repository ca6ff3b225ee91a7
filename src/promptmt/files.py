"""Reading the files that come from outside the program: text (corpora,
vocabularies, image id lists, translate input), JSON (manifests, train
configs) and the two binary containers (VTOK, LVPM checkpoints); and
writing the files the program makes: those same kinds, plus CSV reports and
the training metrics log.

Each kind of defect has one rule, written here once:

- a file that cannot be read raises ``ConfigError``, ``"<what> not found:
  <path>"`` when it is missing;
- a byte that is not UTF-8 raises ``FormatError`` naming the path and the
  line, with the byte offset;
- malformed JSON raises ``ConfigError`` naming the path, line and column,
  and a top level that is not an object is refused;
- a settings object read from JSON (a train config file, each of its
  sections, a corpus manifest) is a dataclass built by
  ``config_from_dict``, which refuses an unknown key, a missing required
  key and a value of the wrong type, naming the dotted key;
- in a binary file, truncation, a wrong magic or version, a string that is
  not UTF-8, malformed embedded JSON and trailing bytes raise
  ``FormatError`` with the byte offset.

An error raised while building an object from a file's contents (a config,
a vocabulary, a parameter table) names the file through ``about``.

A writer creates the file's missing parent directories, and a path it
cannot write raises ``ConfigError``, ``"cannot write <what> <path>:
<reason>"``. A string longer than its length field in a binary file
raises ``FormatError`` naming the item and its byte length, before the
file is written; the VTOK and checkpoint writers put the path in front
through ``about``. Writes are not atomic: an interrupted one can leave a
partial file.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import struct
import typing
from dataclasses import MISSING
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, PromptMtError


def _read_bytes(path, what: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{what} {path}: {exc.strerror}") from None


def _utf8(data, path, what: str, start: int = 0) -> str:
    """``data`` (bytes or a ``memoryview``), found at byte ``start`` of
    ``path``, as text."""
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError as exc:
        line = bytes(data[:exc.start]).count(b"\n") + 1
        raise FormatError(f"{path}: {what} is not UTF-8 at line {line}",
                          offset=start + exc.start) from None


def read_text(path, what: str) -> str:
    """The UTF-8 text of ``path``; ``what`` names the file in errors."""
    return _utf8(_read_bytes(path, what), path, what)


def read_lines(path, what: str) -> list[str]:
    return read_text(path, what).splitlines()


def read_json(path, what: str) -> dict:
    """The JSON object in ``path``."""
    try:
        value = json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from None
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a JSON object, got "
                          f"{type(value).__name__}")
    return value


@contextlib.contextmanager
def about(path):
    """Put ``path`` in front of a PromptMtError raised inside the block."""
    try:
        yield
    except PromptMtError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def config_from_dict(cls, d: typing.Mapping, prefix: str = ""):
    """``cls(**d)`` for a settings dataclass, refusing a key that names no
    field instead of dropping it, a field without a default that ``d``
    lacks, and a value that does not have its field's annotated type:
    ``bool`` is no ``int``, an ``int`` is a ``float``, ``Optional`` takes
    ``None``, and ``list`` or ``dict`` say nothing of the items. ``prefix``
    (say ``"model."``) is put before each key the error names."""
    fields = cls.__dataclass_fields__
    unknown = sorted(set(d) - set(fields))
    missing = [key for key, f in fields.items() if key not in d
               and f.default is MISSING and f.default_factory is MISSING]
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise ConfigError(f"{problem} {cls.__name__} key(s): "
                              + ", ".join(repr(prefix + k) for k in keys))
    field_kinds = _field_kinds(cls)
    for key, value in d.items():
        kinds = field_kinds[key]
        if isinstance(value, bool) and bool not in kinds \
                or not isinstance(value, kinds):
            expected = " or ".join(k.__name__ for k in kinds)
            raise ConfigError(f"{cls.__name__} key {prefix + key!r} must be "
                              f"{expected}, got {value!r}")
    return cls(**d)


@functools.cache
def _field_kinds(cls) -> dict[str, tuple[type, ...]]:
    """The types each annotated name of ``cls`` accepts, an ``int`` for a
    ``float`` included. Worked out once per class: ``get_type_hints``
    compiles the string annotations again on every call."""
    kinds = {}
    for key, hint in typing.get_type_hints(cls).items():
        kinds[key] = typing.get_args(hint) or (hint,)
        if float in kinds[key]:
            kinds[key] += (int,)
    return kinds


class BinaryReader:
    """Reads a little-endian container front to back: ``magic``, a u32
    version that must equal ``version``, then whatever the caller takes.
    ``what`` names each item in errors, which carry its byte offset.

    The file is read once; ``take`` hands out views of it, and only
    ``floats`` copies, once per array."""

    def __init__(self, path, what: str, magic: bytes, version: int):
        self.path = Path(path)
        self.data = memoryview(_read_bytes(self.path, what))
        self.offset = 0
        if self.take(len(magic), "magic") != magic:
            raise self.error(f"bad magic, not a {what}", 0)
        (found,) = self.unpack("<I", "version")
        if found != version:
            raise self.error(f"unsupported version {found}", len(magic))

    def error(self, message: str, offset: int) -> FormatError:
        return FormatError(f"{self.path}: {message}", offset=offset)

    def take(self, n: int, what: str) -> memoryview:
        if self.offset + n > len(self.data):
            raise self.error(f"truncated while reading {what}", self.offset)
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def floats(self, shape: tuple, what: str) -> np.ndarray:
        """A little-endian float32 array of ``shape``, copied out into an
        aligned, C-contiguous float32 array of its own: a view of the file
        would sit at any byte offset and keep the whole file alive."""
        raw = self.take(4 * math.prod(shape), what)
        return np.frombuffer(raw, dtype="<f4").reshape(shape) \
            .astype(np.float32)

    def text(self, length: str, what: str) -> str:
        """UTF-8 text after its length, a ``struct`` format such as
        ``"<H"``."""
        (n,) = self.unpack(length, f"{what} length")
        start = self.offset
        return _utf8(self.take(n, what), self.path, what, start)

    def json(self, length: str, what: str) -> dict:
        """The JSON object in ``text(length, what)``."""
        text = self.text(length, what)
        start = self.offset - len(text.encode("utf-8"))
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            raise self.error(f"malformed JSON in {what}: {exc.msg}",
                             start + len(text[:exc.pos].encode("utf-8"))) \
                from None
        if not isinstance(value, dict):
            raise self.error(f"{what} is not a JSON object", start)
        return value

    def end(self):
        if self.offset != len(self.data):
            raise self.error(f"{len(self.data) - self.offset} trailing "
                             "bytes", self.offset)


@contextlib.contextmanager
def _writing(path, what: str):
    """Create the parents of ``path``; an ``OSError`` in the block, or in
    creating them, becomes a ``ConfigError`` naming ``what`` and ``path``."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {what} {path}: {exc.strerror}") \
            from None


def write_file(path, what: str, data: str | bytes):
    """Replace ``path`` by ``data``; text is written as UTF-8."""
    with _writing(path, what):
        Path(path).write_bytes(data.encode("utf-8") if isinstance(data, str)
                               else data)


def append_text(path, what: str, text: str):
    with _writing(path, what), open(path, "ab") as f:
        f.write(text.encode("utf-8"))


def csv_text(rows) -> str:
    """``rows`` in the ``csv`` module's default dialect (``\\r\\n`` line
    ends)."""
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


class BinaryWriter:
    """Builds what ``BinaryReader`` reads: ``magic``, the u32 ``version``,
    then whatever the caller packs, little-endian."""

    def __init__(self, magic: bytes, version: int):
        self.data = bytearray(magic)
        self.pack("<I", version)

    def pack(self, fmt: str, *values):
        self.data += struct.pack(fmt, *values)

    def text(self, length: str, s: str, what: str):
        """UTF-8 ``s`` after its length, a ``struct`` format; ``what`` names
        ``s`` in the ``FormatError`` for a length the format cannot hold,
        raised before anything of ``s`` is packed."""
        raw = s.encode("utf-8")
        try:
            self.data += struct.pack(length, len(raw)) + raw
        except struct.error:
            limit = 256 ** struct.calcsize(length) - 1   # unsigned formats
            raise FormatError(f"{what} is {len(raw)} UTF-8 bytes, more than "
                              f"the {limit} its length field holds") from None

    def json(self, length: str, obj: dict, what: str):
        self.text(length, json.dumps(obj), what)

    def floats(self, array):
        self.data += np.ascontiguousarray(array, dtype="<f4").tobytes()

    def write(self, path, what: str):
        write_file(path, what, self.data)
