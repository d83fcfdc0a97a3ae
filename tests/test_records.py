"""The value semantics of every engine record, whatever builds its methods.

Each case gives a record class, the keyword arguments of one instance, and
for each compared field a second valid value.  Equal fields give equal
records with equal hashes; changing any compared field breaks ==; records
of different classes never compare equal; records refuse assignment and
deletion; copy and pickle keep every record and leave its cached hash behind.
"""

import copy
import itertools
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import eqss
from eqss.cohomology import CohomologyResult, InvariantCohomology, RelativeModel, cohomology, relative_model
from eqss.documents import ActionEntry, ComplexEntry, InputDocument
from eqss.library import circle_base
from eqss.liealg import (
    LieAlgebra,
    LieAutomorphism,
    Subalgebra,
    coordinate_subalgebra,
    su2,
)
from eqss.linalg import GradedComplex, RationalMatrix, SubspaceBasis
from eqss.obstructions import (
    CupForm,
    LesProblem,
    LesSolution,
    NullSearchResult,
    Verdict,
)
from eqss.spectral import (
    DeckAction,
    FilteredComplex,
    FilteredComplexError,
    Page,
    PageTable,
    ProductComplex,
    product_model,
    run_to_stabilization,
)

from form_oracles import abelian
from orbit_table import OrbitType

def zero_complex(dims):
    return GradedComplex.create(dims, [RationalMatrix.zeros(b, a) for a, b in zip(dims, dims[1:])])


def cases():
    """(class, fields, other value of each compared field, other value of each field left out)."""
    one, zero = RationalMatrix.identity(2), RationalMatrix.zeros(2, 2)
    cx = GradedComplex.create((1, 1), (RationalMatrix.identity(1),))
    cx0 = zero_complex((1, 1))
    g, a3 = su2(), abelian(3)
    h, k = coordinate_subalgebra(g, [1], "h"), coordinate_subalgebra(a3, [2], "k")
    full, none = SubspaceBasis.full(2), SubspaceBasis.zero(2)
    res, res0 = cohomology(cx), cohomology(cx0)
    model = relative_model(g, h)
    fc = FilteredComplex(cx, ((0,), (0,)))
    table = run_to_stabilization(fc)
    pc = product_model(circle_base(), g)
    flat = tuple(tuple(0 for _ in ws) for ws in pc.weights)
    terms = ("A", 3)
    problem = LesProblem(terms)
    aut = LieAutomorphism.create(g, RationalMatrix.identity(3), "id")
    orbit = OrbitType("S^2", "circle subgroup", 2, 1, (1, 0, 1))
    entry, action = ComplexEntry("c", cx), ActionEntry("a", "c", (one,))
    return [
        (RationalMatrix, dict(nrows=2, entries=one.entries), dict(nrows=3, entries=zero.entries), {}),
        (SubspaceBasis, dict(matrix=one), dict(matrix=zero), {}),
        (GradedComplex, dict(dims=(1, 1), differentials=cx.differentials),
         dict(dims=(2, 2), differentials=cx0.differentials), {}),
        (LieAlgebra, dict(name="su2", dim=3, table=g.table), dict(name="x", dim=4, table=()), {}),
        (Subalgebra, dict(algebra=g, basis=h.basis, name="h"), dict(algebra=a3, basis=k.basis, name="k"), {}),
        (LieAutomorphism, dict(algebra=g, matrix=aut.matrix, name="id"),
         dict(algebra=a3, matrix=RationalMatrix.zeros(3, 3), name="x"), {}),
        (CohomologyResult, dict(complex=cx, classes=res.classes, echelons=res.echelons),
         dict(complex=cx0, classes=res0.classes), dict(echelons=res0.echelons)),
        (RelativeModel, dict(algebra=g, subalgebra=h, complex=model.complex, bases=model.bases),
         dict(algebra=a3, subalgebra=k, complex=cx0, bases=(none,)), {}),
        (InvariantCohomology, dict(dims=(2,), bases=(full,)), dict(dims=(0,), bases=(none,)), {}),
        (FilteredComplex, dict(complex=cx, weights=((0,), (0,))),
         dict(complex=cx0, weights=((0,), (1,))), {}),
        (Page, dict(r=1, entries=((0, 0, 1),)), dict(r=2, entries=()), {}),
        (PageTable, dict(filtered=fc, pages=table.pages, stabilized_at=table.stabilized_at,
                         einf=table.einf, total_cohomology=table.total_cohomology),
         dict(filtered=FilteredComplex(cx0, ((0,), (0,))), pages=(), stabilized_at=7,
              einf={(0, 0): 1}, total_cohomology=(1, 1)), {}),
        (ProductComplex, dict(complex=pc.complex, weights=pc.weights, base=pc.base, fiber=pc.fiber,
                              blocks=pc.blocks),
         dict(complex=zero_complex(pc.complex.dims), weights=flat, base=cx, fiber=model, blocks=()), {}),
        (DeckAction, dict(generators=((one,),)), dict(generators=()), {}),
        (ComplexEntry, dict(name="c", complex=cx, weights=None),
         dict(name="d", complex=cx0, weights=((0,), (0,))), {}),
        (ActionEntry, dict(name="a", complex_name="c", maps=(one,)),
         dict(name="b", complex_name="d", maps=()), {}),
        (InputDocument, dict(algebras={"su2": g}, subalgebras={}, automorphisms={}, complexes={}, actions={}),
         dict(algebras={}, subalgebras={"h": h}, automorphisms={"id": aut}, complexes={"c": entry},
              actions={"a": action}), {}),
        (LesProblem, dict(terms=terms, period=1, degree_range=(0, 0), forced_zero_ranks=(), description=""),
         dict(terms=terms + (1,), period=2, degree_range=(1, 2), forced_zero_ranks=(0,),
              description="x"), {}),
        (LesSolution, dict(assignments={"A": 1}, map_ranks=(0, 1)), dict(assignments={}, map_ranks=()), {}),
        (Verdict, dict(excluded=True, verdict="v", reason="r", citation="", completeness="", problem=None,
                       witness=None),
         dict(excluded=False, verdict="w", reason="s", citation="c", completeness="exact", problem=problem,
              witness=full), {}),
        (CupForm, dict(b2=2, b4=1, matrices=(one,)), dict(b2=1, b4=0, matrices=()), {}),
        (NullSearchResult, dict(found=True, hyperplane=full, completeness="exact", note=""),
         dict(found=False, hyperplane=None, completeness="bounded-search", note="n"), {}),
        (OrbitType, dict(orbit=orbit.orbit, isotropy=orbit.isotropy, orbit_dim=2, isotropy_dim=1,
                         cohomology=(1, 0, 1), antipodal_invariants=False),
         dict(orbit="RP^2", isotropy="x", orbit_dim=3, isotropy_dim=0, cohomology=(1,),
              antipodal_invariants=True), {}),
    ]


CASES = cases()
IDS = [cls.__name__ for cls, *_ in CASES]


def test_every_record_class_has_a_case():
    assert len(CASES) == len(set(IDS)) == 23


def hashable(values) -> bool:
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, fields, other, hidden", CASES, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(cls, fields, other, hidden):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    if hashable(fields[name] for name in other):
        assert hash(a) == hash(b)
    else:  # a dict field: the record cannot be hashed
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


@pytest.mark.parametrize("cls, fields, other, hidden", CASES, ids=IDS)
def test_changing_a_compared_field_breaks_equality(cls, fields, other, hidden):
    base = cls(**fields)
    assert set(other) | set(hidden) == set(fields)
    for name, value in other.items():
        changed = cls(**{**fields, name: value})
        assert changed != base and not changed == base, name
    for name, value in hidden.items():
        same = cls(**{**fields, name: value})
        assert same == base and hash(same) == hash(base), name
        assert f"{name}=" not in repr(same)


@pytest.mark.parametrize("cls, fields, other, hidden", CASES, ids=IDS)
def test_frozen_records_refuse_assignment_and_deletion(cls, fields, other, hidden):
    rec = cls(**fields)
    for name, value in {**other, **hidden}.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert getattr(rec, name) is fields[name]


@pytest.mark.parametrize("cls, fields, other, hidden", CASES, ids=IDS)
def test_records_survive_copy_and_pickle(cls, fields, other, hidden):
    rec = cls(**fields)
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is cls and twin == rec
        assert all(getattr(twin, name) == value for name, value in fields.items())


@pytest.mark.parametrize("cls, fields, other, hidden", CASES, ids=IDS)
def test_the_hash_is_cached_once_and_left_behind_by_copy_and_pickle(cls, fields, other, hidden):
    rec, fresh = cls(**fields), cls(**fields)
    if not hashable(fields[name] for name in other):  # a dict field: nothing to cache
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)
        assert not hasattr(rec, "_hash")
        return
    assert not hasattr(rec, "_hash")
    h = hash(rec)
    assert rec._hash == h == hash(rec) == hash(fresh)
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert not hasattr(twin, "_hash")
        assert twin == fresh and hash(twin) == hash(fresh)


UNPICKLE = (
    "import pickle, sys\n"
    "from eqss.liealg import su2\n"
    "g = pickle.loads(sys.stdin.buffer.read())\n"
    "print(hasattr(g, '_hash'), hash(g) == hash(su2()), hash(su2()))\n"
)


def test_an_unpickled_record_hashes_under_the_reading_interpreters_seed():
    # the name "su2" is a str, whose hash depends on PYTHONHASHSEED: a hash carried
    # through the pickle would disagree with a fresh su2() in the reading interpreter
    g = su2()
    hash(g)
    data = pickle.dumps(g)
    env = {**os.environ, "PYTHONPATH": str(Path(eqss.__file__).parents[1])}
    fresh = set()
    for seed in ("1", "2"):
        out = subprocess.run([sys.executable, "-c", UNPICKLE], input=data, capture_output=True,
                             env={**env, "PYTHONHASHSEED": seed}, check=True).stdout.split()
        assert out[:2] == [b"False", b"True"]
        fresh.add(int(out[2]))
    assert len(fresh) == 2  # the seeds hash su2() apart, so one carried hash could not match both


def test_records_of_different_classes_are_never_equal():
    records = [cls(**fields) for cls, fields, _, _ in CASES]
    for a, b in itertools.combinations(records, 2):
        assert a != b and b != a and not a == b
    pc = product_model(circle_base(), su2())
    plain = FilteredComplex(pc.complex, pc.weights)
    assert plain != pc and pc != plain
    assert LesSolution({"A": 1}, (0, 1)) != ({"A": 1}, (0, 1))


def test_repr_names_the_compared_fields_in_order():
    assert repr(LesSolution({}, (0, 1, 2))) == "LesSolution(assignments={}, map_ranks=(0, 1, 2))"
    assert repr(LesSolution({"A": 1}, (0,))) == "LesSolution(assignments={'A': 1}, map_ranks=(0,))"
    res = cohomology(GradedComplex.create((1,), ()))
    assert repr(res) == (
        "CohomologyResult(complex=GradedComplex(dims=(1,), differentials=()), "
        "classes=(SubspaceBasis(matrix=RationalMatrix(nrows=1, entries=(((0, 1),),))),))"
    )


def test_cohomology_dims_are_stored_once_and_kept_by_copy_and_pickle():
    res = cohomology(GradedComplex.create((1, 2, 1, 0), [RationalMatrix.zeros(2, 1), RationalMatrix.from_rows([[1, 0]]),
                                                          RationalMatrix.zeros(0, 1)]))
    assert res.dims == (1, 1, 0, 0) and res.dims is res.dims
    assert "dims" in CohomologyResult.__slots__ and CohomologyResult._fields == ("complex", "classes")
    for twin in (copy.copy(res), copy.deepcopy(res), pickle.loads(pickle.dumps(res))):
        assert type(twin) is CohomologyResult and twin == res and hash(twin) == hash(res)
        assert twin.dims == res.dims == tuple(c.dim for c in twin.classes)
        cocycle = RationalMatrix.from_columns([[0, 3]])
        assert twin.express_columns(1, cocycle) == res.express_columns(1, cocycle) == RationalMatrix.from_rows([[3]])
        assert repr(twin) == repr(res) == f"CohomologyResult(complex={res.complex!r}, classes={res.classes!r})"


def test_constructor_checks_run_on_every_construction():
    with pytest.raises(ValueError, match="at least one term"):
        LesProblem(())
    with pytest.raises(ValueError, match="forced arrow index 1 out of range"):
        LesProblem((1, 1), forced_zero_ranks=(1,))
    cx = GradedComplex.create((1, 1), (RationalMatrix.identity(1),))
    with pytest.raises(FilteredComplexError, match="differential lowers filtration"):
        FilteredComplex(cx, ((1,), (0,)))
    pc = product_model(circle_base(), su2())
    with pytest.raises(ValueError, match=re.escape("filtration weights[0][0] must be an int >= 0, got -1")):
        ProductComplex(pc.complex, tuple(tuple(-1 for _ in ws) for ws in pc.weights), pc.base, pc.fiber,
                       pc.blocks)


@pytest.mark.parametrize("term", [True, -1, "", None, 1.0, Fraction(1)], ids=repr)
def test_les_problem_admits_only_dimensions_and_labels(term):
    # an int >= 0 is a known dimension and a nonempty str a label; nothing else,
    # not even a value equal to one of them
    assert LesProblem((1, "A")).terms == (1, "A")
    for terms in ((term,), ("A", term), (term, 3)):
        with pytest.raises(ValueError, match="a dimension >= 0 or a nonempty label, got " + re.escape(repr(term))):
            LesProblem(terms)


@pytest.mark.parametrize("terms, at", [
    (("A", "B"), "'B' at term 1"),
    ((1, "A", "B", 1), "'B' at term 2"),
    (("A", 1, "A"), "'A' at term 2"),
    (("A", 1, "B", 0, "A", 2), "'A' at term 4"),
], ids=repr)
def test_les_problem_refuses_adjacent_and_repeated_labels(terms, at):
    # so every unknown is followed by a known dimension or ends the sequence
    with pytest.raises(ValueError, match=re.escape("a label appears once and not right after another, got " + at)):
        LesProblem(terms)
    assert LesProblem(("A", 1, "B")).labels() == ("A", "B")


def test_the_bracket_lookup_stays_out_of_equality_and_hash():
    g, fresh = su2(), su2()
    assert g._lookup and g == fresh and hash(g) == hash(fresh)
    assert "_lookup" not in repr(g)
