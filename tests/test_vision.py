"""Tests for the VTOK container and the pseudo-feature generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from promptmt.errors import ConfigError, FormatError
from promptmt.files import BinaryWriter
from promptmt.vision import (MAGIC, VERSION, VisualTokens, make_pseudo_vtok,
                             pseudo_visual_tokens, read_vtok, write_vtok)


def some_records(n=3, m_v=4, d_v=6, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return [VisualTokens(image_id=f"img{i}",
                         tokens=rng.standard_normal((m_v, d_v)).astype(np.float32))
            for i in range(n)]


def test_roundtrip_bit_identical(tmp_path):
    records = some_records()
    path = tmp_path / "t.vtok"
    write_vtok(records, path)
    loaded = read_vtok(path)
    assert sorted(loaded) == [r.image_id for r in records]
    for rec in records:
        assert np.array_equal(loaded[rec.image_id].tokens, rec.tokens)
        assert loaded[rec.image_id].tokens.dtype == np.float32


def test_table_refuses_unknown_id_naming_its_file(tmp_path):
    # a lookup of an id the file lacks used to raise a bare KeyError, and
    # each caller stated its own refusal
    path = tmp_path / "t.vtok"
    write_vtok(some_records(), path)
    table = read_vtok(path)
    with pytest.raises(ConfigError) as err:
        table["img9"]
    assert str(err.value) == f"no visual tokens for image id 'img9' in {path}"
    assert "img9" not in table and table.get("img9") is None


@settings(max_examples=25, deadline=None)
@given(hnp.arrays(np.float32, (2, 3, 4),
                  elements=st.floats(allow_nan=False, allow_infinity=False,
                                     width=32)))
def test_roundtrip_property_arbitrary_finite_floats(tmp_path_factory, arr):
    path = tmp_path_factory.mktemp("vtok") / "p.vtok"
    records = [VisualTokens(image_id=f"r{i}", tokens=arr[i]) for i in range(2)]
    write_vtok(records, path)
    loaded = read_vtok(path)
    for i in range(2):
        assert np.array_equal(loaded[f"r{i}"].tokens, arr[i])


def test_empty_file_roundtrip(tmp_path):
    path = tmp_path / "empty.vtok"
    write_vtok([], path)
    assert read_vtok(path) == {}


def test_truncated_file_names_offset(tmp_path):
    path = tmp_path / "t.vtok"
    write_vtok(some_records(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 5])
    with pytest.raises(FormatError, match="offset") as exc:
        read_vtok(path)
    assert exc.value.offset is not None


def test_bad_magic(tmp_path):
    path = tmp_path / "t.vtok"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        read_vtok(path)


def test_duplicate_id_rejected_on_write(tmp_path):
    recs = some_records(2)
    recs[1].image_id = recs[0].image_id
    with pytest.raises(FormatError, match="duplicate"):
        write_vtok(recs, tmp_path / "d.vtok")


def test_dimension_mismatch_rejected_on_write(tmp_path):
    recs = some_records(2)
    recs[1] = VisualTokens(image_id="other",
                           tokens=np.zeros((5, 6), dtype=np.float32))
    with pytest.raises(FormatError, match="shape"):
        write_vtok(recs, tmp_path / "d.vtok")


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "t.vtok"
    write_vtok(some_records(1), path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="trailing"):
        read_vtok(path)


def raw_vtok(path, ids, tokens):
    """A VTOK file of ``ids`` and the [count, M_v, d_v] ``tokens``, written
    without ``write_vtok``'s checks."""
    out = BinaryWriter(MAGIC, VERSION)
    out.pack("<III", len(ids), *tokens.shape[1:])
    for i, ident in enumerate(ids):
        out.text("<H", ident, "id")
        out.floats(tokens[i])
    out.write(path, "VTOK file")
    return path


@pytest.mark.parametrize("ids, tokens, message", [
    # the offset just past the repeated id: a 20-byte header, an 11-byte
    # record, then the 3 bytes of the second id
    (["a", "a"], np.zeros((2, 1, 2)),
     "{path}: duplicate image id 'a' (at byte offset 34)"),
    (["a"], np.array([[[0.0, np.nan]]]),
     "{path}: non-finite visual token for 'a'"),
    (["a"], np.zeros((1, 0, 2)),
     "{path}: visual tokens for 'a' must be a non-empty matrix, got shape "
     "(0, 2)"),
], ids=["duplicate id", "non-finite token", "no tokens per image"])
def test_reader_refuses_malformed_records(tmp_path, ids, tokens, message):
    path = raw_vtok(tmp_path / "r.vtok", ids, tokens)
    with pytest.raises(FormatError) as exc:
        read_vtok(path)
    assert str(exc.value) == message.format(path=path)


# ---------------------------------------------------------------------------
# pseudo features
# ---------------------------------------------------------------------------

def test_pseudo_deterministic():
    a = pseudo_visual_tokens("img-7", 4, 8, seed=11)
    b = pseudo_visual_tokens("img-7", 4, 8, seed=11)
    assert np.array_equal(a.tokens, b.tokens)


def test_pseudo_distinct_ids_differ():
    ids = [f"img-{i}" for i in range(50)]
    mats = [pseudo_visual_tokens(i, 3, 5, seed=0).tokens for i in ids]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert np.abs(mats[i] - mats[j]).max() > 0


def test_pseudo_seed_changes_features():
    a = pseudo_visual_tokens("img", 3, 5, seed=1)
    b = pseudo_visual_tokens("img", 3, 5, seed=2)
    assert np.abs(a.tokens - b.tokens).max() > 0


def test_pseudo_rows_unit_norm():
    rec = pseudo_visual_tokens("norm-check", 16, 32, seed=5)
    norms = np.linalg.norm(rec.tokens, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-5)


def test_make_pseudo_vtok_file(tmp_path):
    path = tmp_path / "pseudo.vtok"
    n = make_pseudo_vtok(["a", "b", "c"], 4, 6, seed=3, path=path)
    assert n == 3
    loaded = read_vtok(path)
    assert set(loaded) == {"a", "b", "c"}
    expected = pseudo_visual_tokens("b", 4, 6, seed=3)
    assert np.array_equal(loaded["b"].tokens, expected.tokens)
