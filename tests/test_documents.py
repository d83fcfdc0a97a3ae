import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import eqss
from eqss.documents import DocumentError, parse_cup_document, parse_document, parse_rational, render_rational
from eqss.library import builtin_names, builtin_text
from eqss.spectral import DeckAction, invariant_filtered_complex

from corpus import render_all, serialize_document

HUGE = "9" * 5000  # past the 4300-digit limit of int() on decimal strings
DEEP = "[" * 200_000 + "]" * 200_000  # deeper than json.loads can recurse


def test_parse_rational_accepts_ints_and_fraction_strings():
    assert parse_rational(3, "x") == Fraction(3)
    assert parse_rational(-2, "x") == Fraction(-2)
    assert parse_rational("5/10", "x") == Fraction(1, 2)
    assert parse_rational("-7", "x") == Fraction(-7)


@pytest.mark.parametrize(
    "bad",
    [
        1.5, True, False, "1.5", "a/b", "1/0", None, [],
        pytest.param(HUGE + "/7", id="huge numerator"),
        pytest.param("1/" + HUGE, id="huge denominator"),
    ],
)
def test_parse_rational_rejects_inexact_and_malformed(bad):
    with pytest.raises(DocumentError):
        parse_rational(bad, "x")


def test_render_rational_is_canonical():
    assert render_rational(Fraction(4, 2)) == 2
    assert isinstance(render_rational(Fraction(4, 2)), int)
    assert render_rational(Fraction(-1, 3)) == "-1/3"


def test_shipped_documents_round_trip_byte_identically():
    for name in ("library", "models"):
        text = builtin_text(name)
        assert serialize_document(parse_document(text)) == text


def test_shipped_data_matches_regeneration():
    rendered = render_all()
    assert sorted(rendered) == [f"{n}.json" for n in builtin_names()]
    for fname, text in rendered.items():
        assert builtin_text(fname[: -len(".json")]) == text


def test_corpus_script_writes_the_shipped_files(tmp_path):
    script = Path(__file__).resolve().parents[1] / "tools" / "corpus.py"
    proc = subprocess.run([sys.executable, str(script), str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    written = sorted(tmp_path.iterdir())
    assert proc.stdout.splitlines() == [str(p) for p in written]
    shipped = Path(eqss.__file__).parent / "data"
    assert {p.name: p.read_bytes() for p in written} == {p.name: p.read_bytes() for p in shipped.iterdir()}


def test_serialization_normalizes_rationals_and_order():
    doc = parse_document(
        json.dumps(
            {
                "lie_algebras": [
                    {"name": "b", "dim": 1, "brackets": []},
                    {"name": "a", "dim": 2, "brackets": [[1, 2, ["2/1", "0/5"]]]},
                ]
            }
        )
    )
    data = json.loads(serialize_document(doc))
    assert [e["name"] for e in data["lie_algebras"]] == ["a", "b"]
    # 2/1 collapses to the integer 2; the zero vector is dropped entirely
    assert data["lie_algebras"][0]["brackets"] == [[1, 2, [2, 0]]]


def minimal(**sections):
    base = {
        "lie_algebras": [],
        "subalgebras": [],
        "automorphisms": [],
        "complexes": [],
        "actions": [],
    }
    base.update(sections)
    return json.dumps(base)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        pytest.param(DEEP, id="deep nesting"),
        pytest.param(
            '{"lie_algebras": [{"name": "g", "dim": 1, "brackets": [[1, 1, [%s]]]}]}' % HUGE,
            id="huge integer",
        ),
        json.dumps({"mystery": []}),
        minimal(lie_algebras=[{"dim": 1, "brackets": []}]),
        minimal(lie_algebras=[{"name": "g", "dim": 1}]),
        minimal(lie_algebras=[{"name": "g", "dim": 1, "brackets": [], "extra": 1}]),
        minimal(lie_algebras=[{"name": "g", "dim": 0, "brackets": []}]),
        minimal(
            lie_algebras=[
                {"name": "g", "dim": 1, "brackets": []},
                {"name": "g", "dim": 1, "brackets": []},
            ]
        ),
        minimal(lie_algebras=[{"name": "g", "dim": 2, "brackets": [[2, 1, [0, 0]]]}]),
        minimal(lie_algebras=[{"name": "g", "dim": 2, "brackets": [[1, 2, [1]]]}]),
        minimal(subalgebras=[{"name": "h", "parent": "ghost", "basis": []}]),
        minimal(automorphisms=[{"name": "f", "algebra": "ghost", "matrix": []}]),
        minimal(complexes=[{"name": "c", "dims": [], "differentials": []}]),
        minimal(complexes=[{"name": "c", "dims": [1, 1], "differentials": []}]),
        minimal(complexes=[{"name": "c", "dims": [1], "differentials": [], "filtration": [[0], [0]]}]),
        minimal(complexes=[{"name": "c", "dims": [1], "differentials": [], "filtration": [[-1]]}]),
        minimal(actions=[{"name": "a", "complex": "ghost", "maps": []}]),
        minimal(
            complexes=[{"name": "c", "dims": [1], "differentials": []}],
            actions=[{"name": "a", "complex": "c", "maps": []}],
        ),
    ],
)
def test_malformed_documents_raise_document_errors(text):
    with pytest.raises(DocumentError):
        parse_document(text)


@pytest.mark.parametrize(
    "bad, message",
    [
        (True, "expected a rational, got a boolean"),
        (False, "expected a rational, got a boolean"),
        (1.0, "expected an integer or 'p/q' string, got float"),
        ("1/0", "'1/0' divides by zero"),
    ],
)
def test_one_bad_entry_in_an_integer_row_is_named(bad, message):
    # every other entry is an int, so only the bad one leaves the one-pass read
    for doc, where in (
        (minimal(lie_algebras=[{"name": "g", "dim": 3, "brackets": [[1, 2, [0, bad, 1]]]}]),
         "lie_algebras[0].brackets[0][2][1]"),
        (minimal(complexes=[{"name": "c", "dims": [1, 2], "differentials": [[[1], [bad]]]}]),
         "complexes[0].differentials[0][1][0]"),
    ):
        with pytest.raises(DocumentError) as err:
            parse_document(doc)
        assert str(err.value) == f"{where}: {message}"


def test_integer_rows_keep_their_int_entries():
    doc = parse_document(minimal(lie_algebras=[{"name": "g", "dim": 3, "brackets": [[1, 2, [0, -5, 1]], [1, 3, [0, "1/2", 0]]]}]))
    table = doc.algebras["g"].table
    assert table == (((1, 2), ((2, -5), (3, 1))), ((1, 3), ((2, Fraction(1, 2)),)))
    assert [type(c) for _, terms in table for _, c in terms] == [int, int, Fraction]


@pytest.mark.parametrize(
    "section, key, entry",
    [
        ("subalgebras", "parent", {"name": "h", "parent": ["g"], "basis": []}),
        ("automorphisms", "algebra", {"name": "f", "algebra": ["g"], "matrix": [[1]]}),
        ("actions", "complex", {"name": "a", "complex": {"x": 1}, "maps": [[[1]]]}),
    ],
)
def test_reference_fields_must_be_strings(section, key, entry):
    text = minimal(
        lie_algebras=[{"name": "g", "dim": 1, "brackets": []}],
        complexes=[{"name": "c", "dims": [1], "differentials": []}],
        **{section: [entry]},
    )
    with pytest.raises(DocumentError, match=rf"{section}\[0\]\.{key}: expected a string"):
        parse_document(text)


def su2_entry():
    return {
        "name": "su2",
        "dim": 3,
        "brackets": [[1, 2, [0, 0, 1]], [1, 3, [0, -1, 0]], [2, 3, [1, 0, 0]]],
    }


def test_math_validation_raises_plain_value_errors():
    # such failures must be distinguishable from malformed documents
    cases = [
        minimal(
            lie_algebras=[su2_entry()],
            subalgebras=[{"name": "h", "parent": "su2", "basis": [[1, 0, 0], [0, 1, 0]]}],
        ),
        minimal(
            lie_algebras=[su2_entry()],
            automorphisms=[
                {"name": "f", "algebra": "su2", "matrix": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]}
            ],
        ),
        minimal(
            complexes=[{"name": "c", "dims": [1, 1, 1], "differentials": [[[1]], [[1]]]}]
        ),
    ]
    for text in cases:
        with pytest.raises(ValueError) as info:
            parse_document(text)
        assert not isinstance(info.value, DocumentError)


def test_filtered_accessor_requires_a_filtration():
    doc = parse_document(minimal(complexes=[{"name": "c", "dims": [1], "differentials": []}]))
    with pytest.raises(ValueError, match="filtration"):
        doc.complex_entry("c").filtered()


def test_lookup_errors_name_the_available_entries():
    doc = parse_document(minimal(lie_algebras=[su2_entry()]))
    with pytest.raises(DocumentError, match="su2"):
        doc.algebra("so3")
    with pytest.raises(DocumentError, match="none"):
        doc.complex_entry("c")


def test_shipped_action_rebuilds_the_twisted_model():
    doc = parse_document(builtin_text("models"))
    act = doc.action("antipodal_deck")
    fc = doc.complex_entry(act.complex_name).filtered()
    deck = DeckAction.create(fc, [act.maps])
    rebuilt, _ = invariant_filtered_complex(fc, deck)
    shipped = doc.complex_entry("antipodal_twisted")
    assert rebuilt.complex.dims == shipped.complex.dims
    assert rebuilt.weights == tuple(shipped.weights)
    for n in range(rebuilt.complex.top):
        assert rebuilt.complex.differential(n) == shipped.complex.differential(n)


def test_cup_documents_parse_and_validate():
    cup = parse_cup_document(builtin_text("cup_hyperbolic"))
    assert cup.b2 == 2 and cup.b4 == 1
    for text in ("{}", "[]", DEEP, '{"b2": 1, "matrices": [[[%s]]]}' % HUGE):
        with pytest.raises(DocumentError):
            parse_cup_document(text)
    with pytest.raises(DocumentError):
        parse_cup_document(json.dumps({"b2": 2, "matrices": [[[1]]]}))
    with pytest.raises(ValueError, match="symmetric") as info:
        parse_cup_document(json.dumps({"b2": 2, "matrices": [[[0, 1], [0, 0]]]}))
    assert not isinstance(info.value, DocumentError)
