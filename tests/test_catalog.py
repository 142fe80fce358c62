import sys

import pytest

from blanchfield.catalog import (CatalogEntry, EntryParseError, builtin,
                                 builtin_catalog, load_entry, random_seifert,
                                 render_entry)
from blanchfield.invariants import alexander_polynomial
from blanchfield.laurent import LaurentPoly
from blanchfield.matrix import ZZ, Matrix
from blanchfield.pairing import (DualSurfaceData, FibredData, InvariantViolation,
                                 SeifertData, from_fibred)

TREFOIL_TEXT = """\
name: trefoil
kind: seifert
A: [[-1, 1], [0, -1]]
"""


def test_load_well_formed_trefoil():
    entry = load_entry(TREFOIL_TEXT)
    assert entry.name == "trefoil"
    assert entry.kind == "seifert"
    assert entry.matrix("A") == Matrix.from_int_rows(ZZ, [[-1, 1], [0, -1]])


def test_load_accepts_bytes_and_messy_whitespace():
    text = "name: x\nkind:seifert\nA:[[ -1 ,1],\n   [0, -1 ]]\n"
    entry = load_entry(text.encode("utf-8"))
    assert entry.matrix("A") == Matrix.from_int_rows(ZZ, [[-1, 1], [0, -1]])


def test_load_unknot_empty_matrix():
    entry = load_entry("name: u\nkind: seifert\nA: []\n")
    data = entry.data()
    assert isinstance(data, SeifertData) and data.size == 0


def test_load_rejects_non_skew_j_with_invariant_name():
    text = "name: bad\nkind: fibred\nP: [[1,0],[0,1]]\nJ: [[0,1],[1,0]]\n"
    with pytest.raises(InvariantViolation, match="J skew-symmetric"):
        load_entry(text)


def test_parse_errors_carry_position():
    with pytest.raises(EntryParseError) as exc:
        load_entry("name: x\nkind: seifert\nA: [[1,2],[3]]\n")
    assert exc.value.line == 3
    with pytest.raises(EntryParseError, match="unknown field"):
        load_entry("name: x\nkind: seifert\nB: [[0]]\nA: []\n")
    with pytest.raises(EntryParseError, match="kind"):
        load_entry("name: x\nkind: torus\nA: []\n")
    with pytest.raises(EntryParseError, match="requires matrix"):
        load_entry("name: x\nkind: fibred\nP: [[1]]\n")


def test_non_ascii_digits_are_parse_errors():
    # integers are written with 0-9 only, though str.isdigit() accepts ² and ٣
    with pytest.raises(EntryParseError) as exc:
        load_entry("name: x\nkind: seifert\nA: [[²]]\n")
    assert (exc.value.line, exc.value.col) == (3, 6)
    with pytest.raises(EntryParseError, match="line 3, column 9: expected an integer"):
        load_entry("name: x\nkind: seifert\nA: [[1, \u0663]]\n")


@pytest.mark.parametrize("text, message, position", [
    ("name: a\nkind: seifert\nkind: fibred\nA: [[-1, 1], [0, -1]]\n", "duplicate field 'kind'", (3, 1)),
    ("name: a\nkind: seifert\nA: [[-1, 1], [0, -1]]\n  name: b\n", "duplicate field 'name'", (4, 3)),
    ("notes: x\nname: a\nkind: seifert\nA: []\nnotes: x\n", "duplicate field 'notes'", (5, 1)),
    (TREFOIL_TEXT + "A: [[-1, 1], [0, -1]]\n", "duplicate matrix 'A'", (4, 3)),
], ids=["kind", "name", "notes", "matrix"])
def test_repeated_field_is_parse_error(text, message, position):
    # the first copy of a field is not silently overridden by a later one
    with pytest.raises(EntryParseError, match=message) as exc:
        load_entry(text)
    assert (exc.value.line, exc.value.col) == position


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() has no digit limit here")
def test_overlong_integer_is_parse_error():
    # int() refuses more than sys.get_int_max_str_digits() digits with a
    # bare ValueError; the reader names the token's position instead
    digits = sys.get_int_max_str_digits() + 700
    with pytest.raises(EntryParseError, match=f"integer of {digits} digits is too long") as exc:
        load_entry("name: x\nkind: seifert\nA: [[0, -" + "1" * digits + "]]\n")
    assert (exc.value.line, exc.value.col) == (3, 9)


def test_data_is_validated_once(monkeypatch):
    built = []
    init = SeifertData.__init__
    monkeypatch.setattr(SeifertData, "__init__",
                        lambda self, m: built.append(m) or init(self, m))
    entry = load_entry(TREFOIL_TEXT)
    assert entry.data() is entry.data()
    assert len(built) == 1
    assert entry == CatalogEntry("trefoil", "seifert", (("A", ((-1, 1), (0, -1))),))
    with pytest.raises(ValueError, match="unknown kind 'torus'"):
        CatalogEntry("x", "torus", ()).data()

def test_round_trip_builtins():
    for entry in builtin_catalog():
        assert load_entry(render_entry(entry)) == entry


def test_round_trip_random_entries():
    for genus, seed in [(0, 0)] + [(2, seed) for seed in range(5)]:
        data = random_seifert(genus, 3, seed)
        entry = CatalogEntry(
            name=f"rnd-{seed}", kind="seifert",
            matrices=(("A", data.matrix.entries),), notes="generated")
        assert load_entry(render_entry(entry)) == entry
        assert entry.matrix("A") == data.matrix
    assert random_seifert(0, 3, 0).matrix == Matrix(ZZ, (), cols=0)


def test_builtin_pins():
    assert builtin("unknot").data().size == 0
    assert alexander_polynomial(builtin("trefoil").data()) == \
        LaurentPoly.parse("t - 1 + t^-1")
    fib = builtin("trefoil-fibred").data()
    assert isinstance(fib, FibredData)
    assert from_fibred(fib).presentation.det() == LaurentPoly.parse("t^2 - t + 1")
    dual = builtin("trefoil-dual").data()
    assert isinstance(dual, DualSurfaceData)
    with pytest.raises(KeyError):
        builtin("granny")


def test_random_seifert_construction():
    assert random_seifert(0, 3, 1).size == 0
    for seed in (1, 2, 3):
        data = random_seifert(3, 3, seed)
        skew = data.matrix - data.matrix.transpose()
        assert skew.det() == 1


def test_random_seifert_deterministic():
    a = random_seifert(2, 3, 42)
    b = random_seifert(2, 3, 42)
    assert a.matrix == b.matrix
    c = random_seifert(2, 3, 43)
    assert a.matrix != c.matrix
