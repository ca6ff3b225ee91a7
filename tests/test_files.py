"""Files fail by name: the rules of ``promptmt.files``, the defects that
used to escape as bare ``UnicodeDecodeError``/``JSONDecodeError``, writers
that reproduce the frozen artifacts byte for byte, and one seeded property
per reader. A property flips 1-3 bytes of a frozen
benchmark artifact, or truncates it, and requires the reader to either load
the file or raise a ``PromptMtError`` whose message names the mutated file
(or, for a manifest, a file it now points to). ``perfbench/frozen/`` is
copied, never written."""

import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from promptmt.errors import (ConfigError, FormatError, PromptMtError,
                             VocabularyError)
from promptmt.files import (BinaryReader, BinaryWriter, append_text, csv_text,
                            read_json, read_lines, write_file)
from promptmt.model import (ModelConfig, MultimodalTranslator,
                            load_checkpoint, save_checkpoint)
from promptmt.text import (RESERVED_TOKENS, Vocabulary, load_manifest,
                           manifest_image_ids, manifest_lines)
from promptmt.train import MetricsLog, StepMetrics, TrainConfig, TrainState
from promptmt.vision import pseudo_visual_tokens, read_vtok, write_vtok

FROZEN = Path(__file__).resolve().parents[1] / "perfbench" / "frozen"


@pytest.fixture
def frozen(tmp_path):
    """A private copy of the frozen artifacts."""
    for src in FROZEN.iterdir():
        shutil.copy(src, tmp_path / src.name)
    return tmp_path


def corrupt(path: Path, offset: int, data: bytes) -> Path:
    blob = bytearray(path.read_bytes())
    blob[offset:offset + len(data)] = data
    path.write_bytes(bytes(blob))
    return path


# ---------------------------------------------------------------------------
# the module's rules
# ---------------------------------------------------------------------------

def test_missing_file_is_named(tmp_path):
    with pytest.raises(ConfigError, match="corpus file not found: .*nope"):
        read_lines(tmp_path / "nope", "corpus file")
    with pytest.raises(ConfigError, match="corpus file .*: Is a directory"):
        read_lines(tmp_path, "corpus file")


def test_non_utf8_text_names_line_and_offset(tmp_path):
    path = tmp_path / "a.txt"
    path.write_bytes(b"ok\nfine\nbad \xff\n")
    with pytest.raises(FormatError, match=r"a\.txt: text is not UTF-8 at "
                                          r"line 3") as exc:
        read_lines(path, "text")
    assert exc.value.offset == 12


@pytest.mark.parametrize("text, message", [
    ('{"a": 1,\n "b": }', "line 2 column 7"),
    ("[1, 2]", "expected a JSON object, got list"),
])
def test_json_defects_are_config_errors(tmp_path, text, message):
    path = tmp_path / "c.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=message) as exc:
        read_json(path, "config")
    assert str(path) in str(exc.value)


def test_binary_reader_names_every_defect_by_offset(tmp_path):
    path = tmp_path / "x.bin"

    def reader(blob):
        path.write_bytes(blob)
        return BinaryReader(path, "test file", b"TEST", 1)

    head = b"TEST\x01\x00\x00\x00"
    with pytest.raises(FormatError, match="bad magic") as exc:
        reader(b"NOPE\x01\x00\x00\x00")
    assert exc.value.offset == 0
    with pytest.raises(FormatError, match="unsupported version 2") as exc:
        reader(b"TEST\x02\x00\x00\x00")
    assert exc.value.offset == 4
    with pytest.raises(FormatError, match="truncated while reading x") as exc:
        reader(head + b"\x01").unpack("<H", "x")
    assert exc.value.offset == 8
    with pytest.raises(FormatError, match="name length") as exc:
        reader(head + b"\x04").text("<H", "name")
    assert exc.value.offset == 8
    with pytest.raises(FormatError, match="name is not UTF-8") as exc:
        reader(head + b"\x04ab\xffc").text("<B", "name")
    assert exc.value.offset == 11
    with pytest.raises(FormatError, match="malformed JSON in cfg") as exc:
        reader(head + b'\x06{"a":}').json("<B", "cfg")
    assert exc.value.offset == 14
    with pytest.raises(FormatError, match="cfg is not a JSON object"):
        reader(head + b"\x03[1]").json("<B", "cfg")
    assert reader(head + b"\x00\x00\x80\x3f").floats((1,), "f") == 1.0
    r = reader(head + b"xyz")
    assert r.take(1, "x") == b"x"
    with pytest.raises(FormatError, match="2 trailing bytes") as exc:
        r.end()
    assert exc.value.offset == 9


# ---------------------------------------------------------------------------
# the defects that escaped as bare exceptions
# ---------------------------------------------------------------------------

def test_checkpoint_name_byte(frozen):
    # magic, version, config length, 197 config bytes, count, name length
    path = corrupt(frozen / "model.lvpm", 215, b"\xff")
    with pytest.raises(FormatError, match="name 0 is not UTF-8") as exc:
        load_checkpoint(path)
    assert exc.value.offset == 215 and str(path) in str(exc.value)


@pytest.mark.parametrize("anchor, data, error, message", [
    (b"{", b"\xff", FormatError, "config is not UTF-8"),
    (b"{", b"[", FormatError, "malformed JSON in config"),
    (b'"full"', b"\x00", FormatError, "malformed JSON in config"),
    (b" 64,", b'"6"', ConfigError, "'d_model' must be int"),
    (b'"full"', b'"fulx"', ConfigError, "unknown variant"),
])
def test_checkpoint_config_defects(frozen, anchor, data, error, message):
    path = frozen / "model.lvpm"
    path = corrupt(path, path.read_bytes().index(anchor), data)
    with pytest.raises(error, match=message) as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)


def test_checkpoint_parameter_mismatch_names_file(frozen):
    path = frozen / "model.lvpm"
    blob = path.read_bytes()
    at = blob.index(b"embedding")
    path.write_bytes(blob[:at] + b"embeddinx" + blob[at + 9:])
    with pytest.raises(ConfigError, match="parameter names do not match") \
            as exc:
        load_checkpoint(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_vtok_id_byte(frozen):
    path = corrupt(frozen / "train.vtok", 22, b"\xff")
    with pytest.raises(FormatError, match="id of record 0 is not UTF-8") \
            as exc:
        read_vtok(path)
    assert exc.value.offset == 22 and str(path) in str(exc.value)


def test_merges_byte(frozen):
    path = corrupt(frozen / "bpe.merges", 3, b"\xff")
    with pytest.raises(FormatError, match="line 1") as exc:
        Vocabulary.load(frozen / "bpe")
    assert exc.value.offset == 3 and str(path) in str(exc.value)


def test_vocabulary_requires_merges(frozen):
    # without its .merges a .vocab would encode byte by byte, silently
    path = frozen / "bpe.merges"
    path.unlink()
    with pytest.raises(ConfigError, match=f"merges file not found: {path}$"):
        Vocabulary.load(frozen / "bpe")


def test_vocabulary_defect_names_file(frozen):
    path = frozen / "bpe.vocab"
    path.write_text("<pad>\n<s>\n", encoding="utf-8")
    (frozen / "bpe.merges").write_text("", encoding="utf-8")
    with pytest.raises(PromptMtError, match="reserved id 2") as exc:
        Vocabulary.load(frozen / "bpe")
    assert str(path) in str(exc.value)


def test_manifest_json(frozen):
    path = corrupt(frozen / "train.json", 4, b"x")
    with pytest.raises(ConfigError, match="line 2 column 3") as exc:
        load_manifest(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("key, value, message", [
    ("languages", "en", "'languages' missing or not a list"),
    ("text_paths", ["train.en"], "'text_paths' missing or not a dict"),
    ("split", None, "'split' missing or not a str"),
    ("languages", ["en", 2], "must be strings"),
    ("vtok_path", 7, "must be strings"),
    # a misspelled key loaded, ignored: without image_ids_path its lines
    # would take the train-000000 style ids
    ("image_id_path", "train.ids", r"unknown key\(s\) 'image_id_path'"),
])
def test_manifest_field_types(frozen, key, value, message):
    path = frozen / "train.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw[key] = value
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ConfigError, match=message) as exc:
        load_manifest(path)
    assert str(path) in str(exc.value)


def test_image_id_file_of_wrong_length(frozen):
    manifest = load_manifest(frozen / "train.json")
    ids = manifest.image_ids_path
    n = len(manifest_lines(manifest, "en"))
    ids.write_text("".join(ids.read_text(encoding="utf-8")
                           .splitlines(keepends=True)[1:]), encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        manifest_image_ids(manifest, n)
    assert str(exc.value) == \
        f"image id file {ids} has {n - 1} lines, corpus has {n}"


# ---------------------------------------------------------------------------
# the write side
# ---------------------------------------------------------------------------

def test_write_file_creates_parents_and_appends(tmp_path):
    path = tmp_path / "a" / "b" / "out.csv"
    write_file(path, "report", "é\n")
    append_text(path, "report", csv_text([["x", 1], ["y", ""]]))
    assert path.read_bytes() == "é\nx,1\r\ny,\r\n".encode("utf-8")
    write_file(path, "report", b"\x00")
    assert path.read_bytes() == b"\x00"


@pytest.mark.parametrize("write", [write_file, append_text])
def test_unwritable_path_is_named(tmp_path, write):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_bytes(b"")
    for path, reason in ((tmp_path / "dir", "Is a directory"),
                         (tmp_path / "file" / "sub" / "out",
                          "Not a directory")):
        with pytest.raises(ConfigError) as exc:
            write(path, "report", "x")
        assert str(exc.value) == f"cannot write report {path}: {reason}"


def test_binary_writer_mirrors_reader(tmp_path):
    path = tmp_path / "x.bin"
    out = BinaryWriter(b"TEST", 1)
    out.pack("<HB", 7, 2)
    out.text("<B", "né", "name")
    out.json("<I", {"a": [1]}, "cfg")
    out.floats(np.arange(3.0))
    out.write(path, "test file")
    reader = BinaryReader(path, "test file", b"TEST", 1)
    assert reader.unpack("<HB", "x") == (7, 2)
    assert reader.text("<B", "name") == "né"
    assert reader.json("<I", "cfg") == {"a": [1]}
    assert reader.floats((3,), "f").tolist() == [0.0, 1.0, 2.0]
    reader.end()


@pytest.mark.parametrize("length, too_long, longest", [
    ("<B", "x" * 256, "x" * 255),
    ("<B", "é" * 128, "é" * 127),
    ("<H", "x" * 70000, "x" * 65535),
])
def test_binary_writer_refuses_text_longer_than_its_length(length, too_long,
                                                           longest):
    out = BinaryWriter(b"TEST", 1)
    before = bytes(out.data)
    with pytest.raises(FormatError) as exc:
        out.text(length, too_long, "id of record 3")
    size = len(too_long.encode("utf-8"))
    assert str(exc.value).startswith(f"id of record 3 is {size} UTF-8 bytes")
    assert bytes(out.data) == before
    out.text(length, longest, "id of record 3")
    assert len(out.data) == len(before) + struct.calcsize(length) \
        + len(longest.encode("utf-8"))


def _metrics_append(path):
    path.mkdir()   # the header is skipped: the path exists
    MetricsLog(path).append(StepMetrics(step=1, epoch=0, lr=1e-3, loss=1.0,
                                        tokens_per_sec=1.0))


def _small_model():
    return MultimodalTranslator(ModelConfig(
        vocab_size=16, d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1,
        d_v=4), seed=0)


def test_checkpoint_writer_names_its_path_for_a_too_long_name(tmp_path):
    model = _small_model()
    model.params = {"x" * 70000: model.params["embedding"]}
    path = tmp_path / "model.lvpm"
    with pytest.raises(FormatError) as exc:
        save_checkpoint(path, model)
    assert str(exc.value).startswith(f"{path}: name 0 is 70000 UTF-8 bytes")
    assert not path.exists()


@pytest.mark.parametrize("write, what", [
    (lambda path: save_checkpoint(path, _small_model()), "checkpoint"),
    (lambda path: write_vtok([pseudo_visual_tokens("a", 1, 2, seed=0)], path),
     "VTOK file"),
    (lambda path: Vocabulary.load(FROZEN / "bpe").save(path),
     "vocabulary file"),
    (MetricsLog, "metrics file"),
    (_metrics_append, "metrics file"),
], ids=["checkpoint", "vtok", "vocabulary", "metrics_header",
        "metrics_append"])
def test_library_writers_name_unwritable_path(tmp_path, write, what):
    (tmp_path / "file").write_bytes(b"")
    path = (tmp_path / "out" if write is _metrics_append
            else tmp_path / "file" / "out")
    with pytest.raises(ConfigError, match=f"^cannot write {what} ") as exc:
        write(path)
    assert str(path) in str(exc.value)


def test_writers_reproduce_frozen_bytes(tmp_path):
    write_vtok(read_vtok(FROZEN / "train.vtok").values(),
               tmp_path / "train.vtok")
    Vocabulary.load(FROZEN / "bpe").save(tmp_path / "bpe")
    for name in ("train.vtok", "bpe.vocab", "bpe.merges"):
        assert (tmp_path / name).read_bytes() == \
            (FROZEN / name).read_bytes(), name


def test_checkpoint_resave_is_idempotent(tmp_path):
    # model.lvpm predates the n_langs config key, so a re-save of it is
    # compared with the re-save of that, not with the file itself
    model, _ = load_checkpoint(FROZEN / "model.lvpm")
    state = TrainState.fresh(model, TrainConfig(seed=3))
    state.step = 7
    rng = np.random.default_rng(0)
    for moments in (state.m, state.v):
        for name in moments:
            moments[name] = rng.random(moments[name].shape, np.float32)
    for train_state in (None, state.to_checkpoint_dict()):
        first, second = tmp_path / "first.lvpm", tmp_path / "second.lvpm"
        save_checkpoint(first, model, train_state)
        save_checkpoint(second, *load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# one property per reader
# ---------------------------------------------------------------------------

EXAMPLES = settings(max_examples=200, deadline=None, database=None)


def mutations(size: int, hot=()):
    """1-3 ``(offset, byte)`` flips, half of them drawn from ``hot`` when
    given, or an ``int``: the length to truncate to."""
    offsets = st.integers(0, size - 1)
    if hot:
        offsets = st.one_of(offsets, st.sampled_from(sorted(hot)))
    flips = st.lists(st.tuples(offsets, st.integers(0, 255)), min_size=1,
                     max_size=3)
    return st.one_of(flips, st.integers(0, size - 1))


def mutate(blob: bytes, mutation) -> bytes:
    if isinstance(mutation, int):
        return blob[:mutation]
    out = bytearray(blob)
    for offset, value in mutation:
        out[offset] = value
    return bytes(out)


def loads_or_names(load, *names):
    try:
        load()
    except PromptMtError as exc:
        assert any(str(n) in str(exc) for n in names), str(exc)


def check_reader(path: Path, load, hot=(), names=lambda blob: ()):
    blob = path.read_bytes()

    @seed(len(blob))
    @EXAMPLES
    @given(mutations(len(blob), hot))
    def prop(mutation):
        mutated = mutate(blob, mutation)
        path.write_bytes(mutated)
        loads_or_names(load, path, *names(mutated))

    prop()


def test_checkpoint_mutations(frozen):
    path = frozen / "model.lvpm"
    blob = path.read_bytes()
    # the header, the config and every parameter's name, ndim and dims
    hot = set(range(12 + int.from_bytes(blob[8:12], "little") + 4))
    at = 0
    for name, p in load_checkpoint(path)[0].params.items():
        at = blob.index(name.encode(), at)
        hot.update(range(at - 2, at + len(name) + 1 + 4 * p.data.ndim))
    hot.add(len(blob) - 1)   # the optimizer flag
    check_reader(path, lambda: load_checkpoint(path), hot)


def test_vtok_mutations(frozen):
    path = frozen / "train.vtok"
    blob = path.read_bytes()
    hot = set(range(20))
    for ident in read_vtok(path):
        at = blob.index(ident.encode())
        hot.update(range(at - 2, at + len(ident)))
    check_reader(path, lambda: read_vtok(path), hot)


@pytest.mark.parametrize("suffix", [".vocab", ".merges"])
def test_vocabulary_mutations(frozen, suffix):
    check_reader(frozen / f"bpe{suffix}",
                 lambda: Vocabulary.load(frozen / "bpe"))


def test_vocabulary_line_edits(frozen):
    # Dropping, duplicating or appending a line, or swapping two lines, is
    # refused naming the .vocab file. Dropping a tag line or swapping two
    # is not: nothing but the tag block records which languages a
    # vocabulary has or their order, so that gives another valid one.
    path = frozen / "bpe.vocab"
    lines = path.read_text(encoding="utf-8").splitlines()
    first = len(RESERVED_TOKENS)
    n_langs = len(Vocabulary.load(frozen / "bpe").languages)
    tags = range(first, first + n_langs)
    line = st.integers(0, len(lines) - 1)
    one_line = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl",
                                                           "Zp")))

    def swapped(ij):
        out = list(lines)
        out[ij[0]], out[ij[1]] = out[ij[1]], out[ij[0]]
        return out

    edits = st.one_of(
        line.filter(lambda i: i not in tags).map(
            lambda i: lines[:i] + lines[i + 1:]),
        st.tuples(line, st.integers(0, len(lines))).map(
            lambda ij: lines[:ij[1]] + [lines[ij[0]]] + lines[ij[1]:]),
        st.one_of(st.sampled_from(lines), one_line).map(
            lambda t: lines + [t]),
        st.tuples(line, line).filter(
            lambda ij: ij[0] != ij[1] and not set(ij) <= set(tags)
        ).map(swapped))

    def write(tokens):
        path.write_text("".join(f"{t}\n" for t in tokens), encoding="utf-8")

    @seed(len(lines))
    @EXAMPLES
    @given(edits)
    def prop(edited):
        write(edited)
        with pytest.raises(VocabularyError) as exc:
            Vocabulary.load(frozen / "bpe")
        assert str(path) in str(exc.value)

    prop()
    # the tag block's exception, shown once: one language fewer
    write(lines[:first] + lines[first + 1:])
    assert len(Vocabulary.load(frozen / "bpe").languages) == n_langs - 1


def test_manifest_mutations(frozen):
    path = frozen / "train.json"

    def load():
        manifest = load_manifest(path)
        for lang in manifest.languages:
            manifest_lines(manifest, lang)
        manifest_image_ids(manifest, 32)
        if manifest.vtok_path is not None:
            read_vtok(manifest.vtok_path)

    def pointed_to(mutated):
        try:
            raw = json.loads(mutated)
        except ValueError:
            return []
        values = raw.values() if isinstance(raw, dict) else []
        strings = [v for v in values if isinstance(v, str)]
        for v in values:
            strings += v.values() if isinstance(v, dict) else []
        return [frozen / s for s in strings if isinstance(s, str)]

    check_reader(path, load, names=pointed_to)
