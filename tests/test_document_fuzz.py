"""Property-based fuzzing of input documents with hypothesis.

Generated documents are valid: every parse succeeds, with rationals written
in canonical and non-canonical forms ("6", "-4/2", "2/6").  Their canonical
serialization by the corpus writer (tools/corpus.py) must be a fixed point
of parse-then-serialize.  Mutated
documents (a node replaced by junk or deleted, or the text cut short) go
through `eqss cohomology` and `eqss specseq`, which must exit 0, 2 or 3,
never raise, and write to stdout only on success.  Cup documents get the
same two tests: a round trip through `cup_to_dict`, and mutated documents
through `eqss obstruct s3-5m`.

The runs are derandomized, so every run tests the same examples.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from eqss import cli
from eqss.documents import parse_cup_document, parse_document

from corpus import cup_to_dict, serialize_document

FUZZ = settings(
    derandomize=True, database=None, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# wrong types, inexact and out-of-range values, bad rational strings and
# numbers past every size limit
JUNK = [None, True, 1.5, -1, 0, 2, 10**6, 10**400, "", "x", "1/0", "1/2/3", "1.5", [], [1], {}, {"a": 1}]


# canonical and non-canonical spellings of rationals; "-4/2" and "6/3" parse
# to integers, "2/6" to 1/3
NONZERO = [1, -1, 2, -3, "5", "1/2", "-2/3", "2/6", "-4/2", "6/3", "7/3"]
RATIONALS = st.sampled_from([0, "-0", "0/4"] + NONZERO)


def vectors(n):
    return st.lists(RATIONALS, min_size=n, max_size=n)


def matrices(nrows, ncols):
    return st.lists(vectors(ncols), min_size=nrows, max_size=nrows)


NAMES = st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=2, unique=True)


@st.composite
def algebra_entries(draw, name):
    """An algebra of dim <= 3, a subalgebra closed under its bracket and an
    automorphism: any of each when the bracket is zero, else the whole
    algebra and the identity."""
    dim = draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    brackets = [[i, j, draw(vectors(dim))] for i, j in chosen]
    abelian = not any(Fraction(c) for *_, cs in brackets for c in cs)
    units = [[int(i == j) for i in range(dim)] for j in range(dim)]
    basis, matrix = units + draw(st.lists(vectors(dim), max_size=1)), units
    if abelian:  # upper triangular with a nonzero diagonal is invertible
        basis = draw(st.lists(vectors(dim), max_size=dim))
        diagonal = draw(st.lists(st.sampled_from(NONZERO), min_size=dim, max_size=dim))
        matrix = [
            [diagonal[i] if i == j else draw(RATIONALS) if i < j else 0 for j in range(dim)] for i in range(dim)
        ]
    return (
        {"name": name, "dim": dim, "brackets": brackets},
        {"name": name, "parent": name, "basis": basis},
        {"name": name, "algebra": name, "matrix": matrix},
    )


@st.composite
def complex_entries(draw, name):
    """A complex with d^2 = 0 (no two adjacent differentials are nonzero),
    maybe filtered, and an action on it."""
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    diffs, last_zero = [], True
    for n in range(len(dims) - 1):
        random_d = last_zero and draw(st.booleans())
        diffs.append(draw(matrices(dims[n + 1], dims[n])) if random_d else [[0] * dims[n]] * dims[n + 1])
        last_zero = not random_d
    entry = {"name": name, "dims": dims, "differentials": diffs}
    if draw(st.booleans()):  # weight n in degree n is always a filtration
        by_degree = draw(st.booleans())
        entry["filtration"] = [
            [n] * d if by_degree else draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
            for n, d in enumerate(dims)
        ]
    action = {"name": name, "complex": name, "maps": [draw(matrices(d, d)) for d in dims]}
    return entry, action


@st.composite
def documents(draw):
    doc = {}
    if draw(st.booleans()):
        parts = [draw(algebra_entries(name)) for name in draw(NAMES)]
        for section, k in (("lie_algebras", 0), ("subalgebras", 1), ("automorphisms", 2)):
            if k == 0 or draw(st.booleans()):
                doc[section] = [p[k] for p in parts]
    if draw(st.booleans()):
        parts = [draw(complex_entries(name)) for name in draw(NAMES)]
        doc["complexes"] = [p[0] for p in parts]
        if draw(st.booleans()):
            doc["actions"] = [p[1] for p in parts]
    return doc


def paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, path + (key,))


@st.composite
def cup_documents(draw):
    """A cup document with b2 <= 3 and up to three symmetric matrices, each
    entry above the diagonal spelled once and mirrored."""
    b2 = draw(st.integers(0, 3))
    matrices = []
    for _ in range(draw(st.integers(0, 3))):
        upper = {(i, j): draw(RATIONALS) for i in range(b2) for j in range(i, b2)}
        matrices.append([[upper[min(i, j), max(i, j)] for j in range(b2)] for i in range(b2)])
    return {"b2": b2, "matrices": matrices}


def mutate(draw, doc):
    """The text of doc, in two of three cases with one node replaced or
    deleted, and in one of ten cut."""
    targets = list(paths(doc))[1:]
    if targets and draw(st.integers(0, 2)):
        *parent, key = draw(st.sampled_from(targets))
        node = doc
        for k in parent:
            node = node[k]
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(st.sampled_from(JUNK))
    text = json.dumps(doc)
    if not draw(st.integers(0, 9)):
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@st.composite
def mutated_texts(draw):
    doc = draw(documents())
    return doc, mutate(draw, doc)


@st.composite
def mutated_cup_texts(draw):
    return mutate(draw, draw(cup_documents()))


def run_cli(argv):
    """Exit code, stdout and stderr of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def names(doc, section):
    entries = doc.get(section)
    found = [e.get("name") for e in entries if isinstance(e, dict)] if isinstance(entries, list) else []
    return [n for n in found if isinstance(n, str) and n] or ["missing"]


@FUZZ
@given(documents())
def test_serialization_is_a_fixed_point(doc):
    once = serialize_document(parse_document(json.dumps(doc)))
    assert serialize_document(parse_document(once)) == once


@FUZZ
@given(mutated_texts(), st.data())
def test_mutated_documents_exit_cleanly(tmp_path_factory, case, data):
    doc, text = case
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text)
    # names are passed as --option=NAME, since a name may begin with "-"
    if "complexes" not in doc or "lie_algebras" in doc and data.draw(st.booleans()):
        algebra = data.draw(st.sampled_from(names(doc, "lie_algebras")))
        argv = ["cohomology", str(path), "--algebra=" + algebra]
        if data.draw(st.booleans()):
            argv.append("--relative=" + data.draw(st.sampled_from(names(doc, "subalgebras"))))
        if data.draw(st.booleans()):
            argv.append("--invariants=" + data.draw(st.sampled_from(names(doc, "automorphisms"))))
    else:
        argv = ["specseq", str(path), "--complex=" + data.draw(st.sampled_from(names(doc, "complexes")))]
        if data.draw(st.booleans()):
            argv.append(f"--max-page={data.draw(st.sampled_from([0, 3, 10**9]))}")
    code, out, err = run_cli(argv)
    assert code in (0, 2, 3) and "Traceback" not in err
    assert (out == "") == (code != 0)


@FUZZ
@given(cup_documents())
def test_cup_documents_round_trip(doc):
    cup = parse_cup_document(json.dumps(doc))
    once = cup_to_dict(cup)
    assert parse_cup_document(json.dumps(once)) == cup
    assert cup_to_dict(parse_cup_document(json.dumps(once))) == once


@FUZZ
@given(mutated_cup_texts(), st.integers(0, 3), st.sampled_from([[], ["--sphere-hyperplane"], ["--json"]]))
def test_mutated_cup_documents_exit_cleanly(tmp_path_factory, text, b2, flags):
    path = tmp_path_factory.getbasetemp() / "cup.json"
    path.write_text(text)
    code, out, err = run_cli(["obstruct", "s3-5m", "--b2", str(b2), "--cup", str(path), *flags])
    assert code in (0, 2, 3) and "Traceback" not in err
    assert (out == "") == (code != 0)
