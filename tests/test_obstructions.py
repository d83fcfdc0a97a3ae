"""Exact-sequence solver and exclusion checkers.

Solver oracles are worked by hand from the rank bookkeeping; the Gysin and
Wang membership examples are cross-checked against Kunneth dimensions of
the corresponding product models.
"""

import random
import re
from ast import literal_eval
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from eqss import obstructions
from eqss.cohomology import GradedComplex
from eqss.liealg import coordinate_subalgebra, su2, u_algebra
from eqss.linalg import RationalMatrix, kernel_basis, rank
from eqss.obstructions import (
    CupForm,
    LesProblem,
    NullSearchResult,
    gysin_assemble,
    null_hyperplane_search,
    s3_check_4manifold,
    s3_check_5manifold,
    solve_les,
    verify_exactness,
    wang_check,
)
from eqss.obstructions import _pivot_columns, _vanishes_on
from eqss.spectral import product_model, run_to_stabilization

from form_oracles import WALK_HEIGHT, apply, cube_normals, form_vanishes_on_hyperplane, primitive_normals, walk_search
from orbit_table import OrbitType, orbit_table_verify, su2_orbit_table
from randgen import form_null_on, random_rational, random_symmetric


def seq(*entries):
    return LesProblem(tuple(entries))


def test_isomorphism_forced():
    sols = solve_les(seq("A", 3))
    assert len(sols) == 1
    assert sols[0].assignments == {"A": 3}
    assert sols[0].map_ranks == (3,)


def test_four_term_sequence_two_solutions():
    # 0 -> A -> Q -> Q -> A' -> 0: middle arrow rank 1 or 0
    sols = solve_les(seq("A", 1, 1, "B"))
    assert [s.assignments for s in sols] == [{"A": 0, "B": 0}, {"A": 1, "B": 1}]


def test_inconsistent_dims_give_no_solutions():
    # 0 -> 1 -> 0 -> 1 -> 0 cannot be exact
    assert solve_les(seq(1, 0, 1)) == []


def test_repeated_label_used_consistently():
    # a label names one term: 0 -> A -> 2 -> A -> 0 is refused, and with two
    # labels the outer ranks split the middle, A + B = 2
    with pytest.raises(ValueError, match="a label appears once and not right after another, got 'A' at term 2"):
        seq("A", 2, "A")
    sols = solve_les(seq("A", 2, "B"))
    assert [s.assignments for s in sols] == [{"A": 0, "B": 2}, {"A": 1, "B": 1}, {"A": 2, "B": 0}]


def test_solver_respects_cap():
    # no cap: the known term after an unknown bounds it
    (only,) = solve_les(seq("A", 60))
    assert only.assignments == {"A": 60} and only.map_ranks == (60,)


def test_solver_label_bound():
    prob = seq(*[t for i in range(13) for t in (f"L{i}", 1)])
    with pytest.raises(ValueError, match="solver bound exceeded: 13 unknown labels"):
        solve_les(prob)


def test_solver_lists_at_most_max_solutions(monkeypatch):
    # 6 basic 9s over a circle: exactly the limit; a 7th 9 has more, refused at the next one found
    at_limit = gysin_assemble(l=1, basic_dims=[9] * 6)
    assert len(solve_les(at_limit)) == obstructions.MAX_SOLUTIONS == 10_000
    monkeypatch.setattr(obstructions, "verify_exactness", lambda problem, solution: False)
    monkeypatch.setattr(obstructions, "LesSolution", None)
    with pytest.raises(ValueError, match="solver bound exceeded: more than 10000 solutions"):
        solve_les(gysin_assemble(l=1, basic_dims=[9] * 7))  # refused before any solution is built
    monkeypatch.undo()
    monkeypatch.setattr(obstructions, "MAX_SOLUTIONS", 2)
    assert len(solve_les(seq("A", 1, 1, "B"))) == 2
    monkeypatch.setattr(obstructions, "MAX_SOLUTIONS", 1)
    with pytest.raises(ValueError, match="more than 1 solutions"):
        solve_les(seq("A", 1, 1, "B"))


def test_relabeling_permutes_solutions():
    base = seq("X", 1, 1, "Y")
    renamed = seq("Y", 1, 1, "X")
    sols = solve_les(base)
    swapped = solve_les(renamed)
    assert [{"Y": s.assignments["X"], "X": s.assignments["Y"]} for s in sols] == [
        s.assignments for s in swapped
    ]


def test_exactness_reverification():
    prob = seq("A", 1, 1, "B")
    for sol in solve_les(prob):
        assert verify_exactness(prob, sol)
        bad = type(sol)(dict(sol.assignments), tuple(r + 1 for r in sol.map_ranks))
        assert not verify_exactness(prob, bad)


def test_solver_walks_thousands_of_known_terms():
    # 0 -> 1 -> 1 -> ... -> 0: the ranks alternate 1, 0 along the whole sequence
    ones = [1] * 3000
    (only,) = solve_les(seq(*ones))
    assert only.assignments == {} and only.map_ranks == (1, 0) * 1499 + (1,)
    # unknowns at both ends of a long known stretch, as in test_four_term_sequence_two_solutions
    sols = solve_les(seq("A", *ones[:2998], "B"))
    assert [s.assignments for s in sols] == [{"A": 0, "B": 0}, {"A": 1, "B": 1}]


def admissible(terms):
    """Whether LesProblem admits these terms: no label twice, none right after another."""
    labels = [t for t in terms if type(t) is str]
    return len(set(labels)) == len(labels) and not any(
        type(a) is str and type(b) is str for a, b in zip(terms, terms[1:]))


def oracle_cap(problem):
    """A value is a rank in plus a rank out, each at most a neighbouring known
    dimension, so twice the largest known dimension bounds every unknown."""
    return 2 * max((t for t in problem.terms if type(t) is int), default=0)


def admissible_terms(rng, top, names, p_forced):
    """The terms and forced arrows of a problem of 1..10 terms whose labels are
    distinct, from names, and each followed by a dimension in 0..top or last."""
    terms, free = [], list(names)
    for _ in range(rng.randint(1, 10)):
        if free and not (terms and type(terms[-1]) is str) and rng.random() < 0.4:
            terms.append(free.pop(rng.randrange(len(free))))
        else:
            terms.append(rng.randint(0, top))
    return tuple(terms), tuple(i for i in range(len(terms) - 1) if rng.random() < p_forced)


def matches_oracle(terms, forced, oracle):
    """Inadmissible terms are refused; an admissible problem's solutions are
    the oracle's.  Returns whether there are any."""
    if not admissible(terms):
        with pytest.raises(ValueError, match="a label appears once and not right after another"):
            LesProblem(terms, forced_zero_ranks=forced)
        return False
    problem = LesProblem(terms, forced_zero_ranks=forced)
    sols = solve_les(problem)
    assert [(s.assignments, s.map_ranks) for s in sols] == oracle(problem, oracle_cap(problem)), problem.render()
    return bool(sols)


def brute_force_les(problem, cap):
    """Every assignment of the labels in [0, cap] whose forced ranks are exact, sorted."""
    labels = problem.labels()
    out = []
    for values in product(range(cap + 1), repeat=len(labels)):
        assign = dict(zip(labels, values))
        ranks, incoming = [], 0
        for i, t in enumerate(problem.terms):
            incoming = assign.get(t, t) - incoming
            if incoming < 0 or (incoming and i in problem.forced_zero_ranks):
                break
            ranks.append(incoming)
        else:
            if incoming == 0:
                out.append((assign, tuple(ranks[:-1])))
    return out


def test_solver_matches_brute_force_on_random_problems():
    rng = random.Random(2202)
    for _ in range(300):
        m = rng.randint(1, 9)
        terms = tuple(
            rng.randint(0, 3) if rng.random() < 0.5 else rng.choice("ABC")
            for _ in range(m)
        )
        forced = tuple(i for i in range(m - 1) if rng.random() < 0.25)
        rng.randint(0, 4)  # the cap the solver once took, drawn so the seed keeps its problems
        matches_oracle(terms, forced, brute_force_les)
    found = 0
    for _ in range(300):
        found += matches_oracle(*admissible_terms(rng, 3, "ABC", 0.25), brute_force_les)
    assert found >= 100


def test_gysin_s1_times_s3_membership():
    prob = gysin_assemble(l=3, basic_dims=[1, 1])
    sols = solve_les(prob)
    expected = {f"M{k}": d for k, d in enumerate([1, 1, 0, 1, 1])}
    assert expected in [s.assignments for s in sols]


def test_gysin_consistency_with_product_model():
    circle = GradedComplex.create((1, 1), [RationalMatrix.zeros(1, 1)])
    table = run_to_stabilization(product_model(circle, su2()))
    totals = list(table.total_cohomology)
    prob = gysin_assemble(l=3, basic_dims=[1, 1], total_dims=totals)
    assert len(solve_les(prob)) == 1


def test_gysin_s2_base_consistent():
    prob = gysin_assemble(l=2, basic_dims=[1, 0, 1], total_dims=[1, 0, 2, 0, 1])
    assert len(solve_les(prob)) == 1


def test_gysin_split_forces_kunneth():
    # base dims [1,1,1,1] leave room for a nonzero connecting map; the
    # even-gap splitting kills it and pins every total to the Kunneth value
    plain = solve_les(gysin_assemble(l=2, basic_dims=[1, 1, 1, 1]))
    split = solve_les(gysin_assemble(l=2, basic_dims=[1, 1, 1, 1], split=True))
    assert len(split) < len(plain)
    assignments = [s.assignments for s in plain]
    for s in split:
        assert s.assignments in assignments
    kunneth = {f"M{k}": d for k, d in enumerate([1, 1, 2, 2, 1, 1])}
    assert [s.assignments for s in split] == [kunneth]


def test_gysin_pair_input():
    prob = gysin_assemble(pair=(su2(), None), basic_dims=[1, 1])
    assert prob.description == "Gysin sequence, gap 3"
    sphere_pair = gysin_assemble(
        pair=(su2(), coordinate_subalgebra(su2(), [3])), basic_dims=[1, 0, 1]
    )
    assert sphere_pair.description == "Gysin sequence, gap 2"
    with pytest.raises(ValueError, match="gap"):
        gysin_assemble(l=2, pair=(su2(), None), basic_dims=[1, 1])
    with pytest.raises(ValueError, match="two one-dimensional rows"):
        gysin_assemble(pair=(u_algebra(2), None), basic_dims=[1, 1])


def test_gysin_validation():
    with pytest.raises(ValueError, match="top basic dimension"):
        gysin_assemble(l=3, basic_dims=[1, 0], oriented=True)
    with pytest.raises(ValueError, match="even"):
        gysin_assemble(l=3, basic_dims=[1, 1], split=True)
    with pytest.raises(ValueError, match="total dims"):
        gysin_assemble(l=3, basic_dims=[1, 1], total_dims=[1, 1, 0, 1])
    with pytest.raises(ValueError, match="malformed"):
        gysin_assemble(l=3, basic_dims=[1, -1])


NON_INTEGER_CALLS = [
    (lambda: gysin_assemble(l=1.7, basic_dims=[1, 1]), "the gap l must be an int, got 1.7"),
    (lambda: gysin_assemble(l=True, basic_dims=[1, 1]), "the gap l must be an int, got True"),
    (lambda: gysin_assemble(l=1, basic_dims=[1.9, True]), "malformed basic dims: [1.9, True]"),
    (lambda: gysin_assemble(l=1, basic_dims=[1, 1], total_dims=[1, 2.0, 1]), "malformed total dims: [1, 2.0, 1]"),
    (lambda: wang_check(2, True, True, [1.0, 0.5, 1]), "malformed pair cohomology dims: [1.0, 0.5, 1]"),
    (lambda: s3_check_4manifold(["1", "0", "3", "0", "1"]), "malformed Betti numbers: ['1', '0', '3', '0', '1']"),
    (lambda: s3_check_4manifold(5), "malformed Betti numbers: 5"),
    (lambda: CupForm.create(2.0, []), "inconsistent cup data: b2 must be an int >= 0, got 2.0"),
    (lambda: CupForm.create(-1, []), "inconsistent cup data: b2 must be an int >= 0, got -1"),
    (lambda: s3_check_5manifold(1.5, CupForm.create(1, []), False), "b2 must be an int, got 1.5"),
    (lambda: s3_check_5manifold(True, CupForm.create(1, []), False), "b2 must be an int, got True"),
]


@pytest.mark.parametrize("call, message", NON_INTEGER_CALLS, ids=[message for _, message in NON_INTEGER_CALLS])
def test_non_integer_dimensions_gaps_and_b2_are_refused(call, message):
    # a library caller's 1.7, 1.9, True or 0.5 is refused, not truncated
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_wang_codim1():
    verdict = wang_check(1, True, True, [1, 0, 0, 1])
    assert verdict.excluded
    assert verdict.verdict == "excluded"
    soft = wang_check(1, False, True, [1, 0, 0, 1])
    assert not soft.excluded
    assert soft.verdict == "not excluded by this criterion"


def test_wang_codim2_s2_times_s3():
    verdict = wang_check(2, True, True, [1, 0, 0, 1])
    assert verdict.problem is not None
    sols = solve_les(verdict.problem)
    expected = {f"M{k}": d for k, d in enumerate([1, 0, 1, 1, 0, 1])}
    assert expected in [s.assignments for s in sols]


def test_wang_codim3_s3_times_s3():
    verdict = wang_check(3, True, True, [1, 0, 0, 1], total_dims=[1, 0, 0, 2, 0, 0, 1])
    assert verdict.problem is not None
    assert len(solve_les(verdict.problem)) == 1


def test_wang_codim3_inconsistent_hypothesis():
    verdict = wang_check(3, True, True, [1, 1, 0, 1])
    assert verdict.verdict == "inconsistent hypothesis"
    assert verdict.problem is None
    assert not verdict.excluded


def test_wang_validation():
    with pytest.raises(ValueError, match="unsupported codim"):
        wang_check(4, True, True, [1, 0, 1])
    with pytest.raises(ValueError, match="simply connected"):
        wang_check(2, False, True, [1, 0, 0, 1])
    with pytest.raises(ValueError, match="H\\^0"):
        wang_check(2, True, True, [2, 0, 0, 1])


def test_4manifold_thresholds():
    assert s3_check_4manifold([1, 0, 3, 0, 1]).excluded
    assert not s3_check_4manifold([1, 0, 2, 0, 1]).excluded
    assert not s3_check_4manifold([1, 0, 0, 0, 1]).excluded
    with pytest.raises(ValueError, match="connected"):
        s3_check_4manifold([2, 0, 3, 0, 1])
    with pytest.raises(ValueError, match="five"):
        s3_check_4manifold([1, 0, 3, 0])


def test_4manifold_monotone():
    state = False
    for b2 in range(8):
        verdict = s3_check_4manifold([1, 0, b2, 0, 1])
        assert verdict.excluded or not state  # once excluded, stays excluded
        state = verdict.excluded
    assert state


def q22(rows):
    return CupForm.create(2, [rows])


def test_null_search_line():
    result = null_hyperplane_search(CupForm.create(1, [[[5]]]))
    assert result.found and result.hyperplane.dim == 0
    assert result.completeness == "exact"


def test_null_search_hyperbolic():
    result = null_hyperplane_search(q22([[0, 1], [1, 0]]))
    assert result.found
    assert result.hyperplane.vectors == ((Fraction(1), Fraction(0)),)


def test_null_search_definite():
    result = null_hyperplane_search(q22([[1, 0], [0, 1]]))
    assert not result.found
    assert result.completeness == "exact"


def assert_null_witness(cup, result):
    assert result.found and result.completeness == "exact"
    vecs = result.hyperplane.vectors
    assert len(vecs) == cup.b2 - 1
    for mat in cup.matrices:
        for v in vecs:
            for w in vecs:
                assert sum(a * b for a, b in zip(v, apply(mat, w))) == 0


def test_null_search_irrational_line():
    # x^2 - 2 y^2 factors over R but not over Q
    pell = [[1, 0], [0, -2]]
    result = null_hyperplane_search(q22(pell))
    assert result.found
    assert result.hyperplane is None
    assert "irrational" in result.note
    # a multiple of the form keeps both irrational null lines
    scaled = [[Fraction(-3, 2) * x for x in row] for row in pell]
    result = null_hyperplane_search(CupForm.create(2, [pell, scaled]))
    assert result.found and result.hyperplane is None
    assert "irrational" in result.note
    # 2xy is null only on the axes, which are not null for x^2 - 2 y^2
    result = null_hyperplane_search(CupForm.create(2, [pell, [[0, 1], [1, 0]]]))
    assert not result.found and result.completeness == "exact"


def test_null_search_two_forms():
    cup = CupForm.create(2, [[[0, 1], [1, 0]], [[1, 0], [0, 0]]])
    result = null_hyperplane_search(cup)
    assert result.found
    assert result.hyperplane.vectors == ((Fraction(0), Fraction(1)),)
    blocked = CupForm.create(
        2, [[[0, 1], [1, 0]], [[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    )
    result = null_hyperplane_search(blocked)
    assert not result.found and result.completeness == "exact"
    # the first form's discriminant is a rational square (1, then 0)
    for mats, line in (
        ([[[-4, -3], [-3, -2]], [[1, 0], [0, -1]]], (1, -1)),
        ([[[1, -1], [-1, 1]], [[-1, -1], [-1, 3]]], (1, 1)),
    ):
        cup = CupForm.create(2, mats)
        result = null_hyperplane_search(cup)
        assert_null_witness(cup, result)
        assert result.hyperplane.vectors == (line,)


def test_vanishes_on_matches_the_kernel_oracle():
    rng = random.Random(14)
    seen = set()
    for b2 in range(2, 6):
        normals = list(primitive_normals(b2, 2))
        for fractions in (False, True):
            mats = [random_symmetric(rng, b2, fractions) for _ in range(2)]
            mats.append(form_null_on(rng, rng.choice(normals), fractions))
            for rows in mats:
                m = RationalMatrix.from_rows(rows)
                for normal in normals:
                    expected = form_vanishes_on_hyperplane(m, normal)
                    assert _vanishes_on(m.rows, normal) is expected, (rows, normal)
                    seen.add(expected)
    assert seen == {True, False}


def test_null_search_bounded():
    found = null_hyperplane_search(CupForm.create(3, []))
    assert found.found and found.hyperplane.dim == 2
    definite = CupForm.create(3, [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    result = null_hyperplane_search(definite)
    assert not result.found
    assert result.completeness == "bounded-search"


def test_null_search_candidate_and_reverify():
    cup = CupForm.create(3, [[[0, 0, 0], [0, 0, 0], [0, 0, 1]]])
    result = null_hyperplane_search(cup)
    assert result.found and result.note == "normal (0, 0, 1)"
    vecs = result.hyperplane.vectors
    for i, v in enumerate(vecs):
        for w in vecs[i:]:
            for mat in cup.matrices:
                img = apply(mat, w)
                assert sum(a * b for a, b in zip(v, img)) == 0


def test_cupform_validation():
    with pytest.raises(ValueError, match="symmetric"):
        CupForm.create(2, [[[0, 1], [0, 0]]])
    with pytest.raises(ValueError, match="shape"):
        CupForm.create(2, [[[1]]])


def test_5manifold_verdicts():
    hyper = q22([[0, 1], [1, 0]])
    definite = q22([[1, 0], [0, 1]])
    assert not s3_check_5manifold(2, hyper, False).excluded
    verdict = s3_check_5manifold(2, definite, False)
    assert verdict.excluded and verdict.completeness == "exact"
    assert not s3_check_5manifold(2, definite, True).excluded
    assert not s3_check_5manifold(1, CupForm.create(1, [[[3]]]), False).excluded
    assert not s3_check_5manifold(0, CupForm.create(0, []), False).excluded
    bounded = s3_check_5manifold(
        3, CupForm.create(3, [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]), False
    )
    assert not bounded.excluded
    assert bounded.completeness == "bounded-search"
    with pytest.raises(ValueError, match="cup"):
        s3_check_5manifold(3, hyper, False)


def test_orbit_table_ok():
    verdict = orbit_table_verify()
    assert verdict.verdict == "ok"


def test_orbit_table_tampered():
    table = list(su2_orbit_table())
    table[1] = OrbitType("S^2", "circle subgroup", 2, 1, (1, 1, 1))
    verdict = orbit_table_verify(table)
    assert verdict.verdict == "mismatch"
    assert "S^2" in verdict.reason


def test_orbit_table_dimension_check():
    bad = [OrbitType("S^2", "circle subgroup", 1, 1, (1, 0))]
    verdict = orbit_table_verify(bad)
    assert verdict.verdict == "mismatch"
    assert "dimension" in verdict.reason


def test_orbit_table_empty():
    verdict = orbit_table_verify([])
    assert verdict.verdict == "ok"
    assert "vacuous" in verdict.reason


def test_verdict_serialization():
    verdict = wang_check(2, True, True, [1, 0, 0, 1])
    data = verdict.as_dict()
    assert data["verdict"] == "not excluded by this criterion"
    assert data["problem"]["period"] == 3
    hyper = s3_check_5manifold(2, q22([[0, 1], [1, 0]]), False)
    assert hyper.as_dict()["witness"] == [["1", "0"]]


def test_problem_render():
    prob = seq("A", 2, "B")
    assert prob.render() == "0 -> ?A -> 2 -> ?B -> 0"


def test_shell_walk_yields_the_cube_filter_sequence():
    # the oracle walk's normals, in the same order as filtering the whole cube
    counts = []
    for b2 in range(1, 6):
        normals = list(primitive_normals(b2, WALK_HEIGHT))
        assert normals == list(cube_normals(b2, WALK_HEIGHT)), b2
        counts.append(len(normals))
    assert counts == [1, 40, 577, 6928, 78721]


def test_labels_are_sorted_and_distinct_in_linear_time():
    terms = [t for i in range(50000) for t in (f"x{i * 7919 % 50000}", 1)]
    labels = LesProblem(tuple(terms)).labels()
    assert len(labels) == len(set(labels)) == 50000 and list(labels) == sorted(labels)


def random_cup_matrices(rng, b2):
    """(kind, matrices) per kind of form: definite, generic, c l l^T, n l^T + l n^T
    with normals of height <= 5 and > 5, zero, none, mixed lists and Fraction
    entries (only those at b2 = 5, where each walk takes about 0.25 s)."""
    def vector(low, high):  # a nonzero vector of height low..high
        while True:
            v = [rng.randint(-high, high) for _ in range(b2)]
            if low <= max(map(abs, v)):
                return v

    def definite(fractions):
        m = random_symmetric(rng, b2, fractions)
        for i in range(b2):
            m[i][i] = sum(abs(x) for x in m[i]) + rng.randint(1, 3)
        return m

    def rank1(low, high, fractions):
        c, l = random_rational(rng, fractions) or 1, vector(low, high)
        return [[c * x * y for y in l] for x in l]

    def rank2(low, high):
        n, l = vector(low, high), vector(low, high)
        return [[a * y + x * b for b, y in zip(n, l)] for a, x in zip(n, l)]

    for fractions in (False, True) if b2 < 5 else (True,):
        yield "definite", [definite(fractions)]
        yield "generic", [random_symmetric(rng, b2, fractions)]
        yield "rank-1, height <= 5", [rank1(1, 5, fractions)]
        yield "rank-1, height > 5", [rank1(6, 9, fractions)]
        yield "mixed", [rank1(1, 3, fractions), definite(fractions)]
    yield "rank-2, height <= 5", [rank2(1, 5)]
    yield "rank-2, height > 5", [rank2(6, 9)]
    yield "rank-2, Fraction", [form_null_on(rng, vector(1, 2), True)]
    n = vector(1, 2)
    yield "two forms null on one normal", [form_null_on(rng, n), [[x * y for y in n] for x in n]]
    yield "zero", [[[0] * b2 for _ in range(b2)]]
    yield "none", []
    yield "zero and generic", [[[0] * b2 for _ in range(b2)], random_symmetric(rng, b2)]


def named_normal(cup, result):
    """The normal that a found answer names, checked against the kernel
    oracle on every matrix and against the witness."""
    assert result.found and result.completeness == "exact", result
    normal = literal_eval(result.note.removeprefix("normal "))
    assert result.hyperplane == kernel_basis(RationalMatrix.from_rows([normal]))
    assert all(form_vanishes_on_hyperplane(m, normal) for m in cup.matrices), (cup, normal)
    return normal


def primitive(v):
    g = gcd(*v) * (1 if next(x for x in v if x) > 0 else -1)
    return tuple(x // g for x in v)


def walk_first(normals):
    """The normal the walk over integer normals reaches first: by height, then lexicographically."""
    return min(normals, key=lambda n: (max(map(abs, n)), n))


def test_null_search_equals_the_walk_on_every_kind_of_form():
    # equal where the walk finds a hyperplane or a matrix has rank >= 3; the
    # walk misses only the planted normals of height > 5, which are found
    rng = random.Random(34)
    kinds = set()
    for b2 in range(3, 6):
        for kind, rows in random_cup_matrices(rng, b2):
            cup = CupForm.create(b2, rows)
            ranks = [rank(m) for m in cup.matrices]
            assert [len(_pivot_columns(m)) for m in cup.matrices] == [min(r, 3) for r in ranks], (b2, kind, rows)
            expected, result = walk_search(cup), null_hyperplane_search(cup)
            if expected.found or max(ranks, default=0) > 2:
                assert result == expected, (b2, kind, rows)
            else:
                assert "height > 5" in kind and max(map(abs, named_normal(cup, result))) > 5, (b2, kind, rows)
            kinds.add((expected.found, result.found, max(ranks, default=0) > 2))
    assert kinds == {(True, True, False), (False, True, False), (False, False, True)}


BOUNDED = NullSearchResult(False, None, "bounded-search",
                           "no rational null hyperplane with integer normal of height <= 5")


def test_a_matrix_of_rank_3_keeps_the_bounded_search_answer_at_every_b2():
    definite = CupForm.create(4, [[[7 if i == j else 1 for j in range(4)] for i in range(4)]])
    assert null_hyperplane_search(definite) == BOUNDED
    for b2 in range(3, 9):
        zero, rank3 = [[0] * b2 for _ in range(b2)], [[int(i == j < 3) for j in range(b2)] for i in range(b2)]
        line = [[int(i == j == b2 - 1) for j in range(b2)] for i in range(b2)]
        for mats in ([rank3], [zero, rank3], [line, rank3], [rank3, line]):
            assert null_hyperplane_search(CupForm.create(b2, mats)) == BOUNDED, (b2, mats)
        verdict = s3_check_5manifold(b2, CupForm.create(b2, [zero, rank3]), False)
        assert not verdict.excluded and verdict.completeness == "bounded-search"
    # rank 2 is decided: diag(1, 1, 0, 0) is semidefinite
    result = null_hyperplane_search(CupForm.create(4, [[[int(i == j < 2) for j in range(4)] for i in range(4)]]))
    assert not result.found and result.completeness == "exact"


def test_planted_normals_of_height_6_to_50_are_found_at_b2_3_to_8():
    rng = random.Random(3650)

    def vector(b2):  # primitive, of height 6..50
        while True:
            v = primitive([rng.randint(-50, 50) or 1 for _ in range(b2)])
            if max(map(abs, v)) >= 6:
                return v

    heights = set()
    for b2 in range(3, 9):
        for _ in range(4):
            n, l = vector(b2), vector(b2)
            c = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
            rank1 = CupForm.create(b2, [[[c * x * y for y in l] for x in l]])
            assert named_normal(rank1, null_hyperplane_search(rank1)) == l
            rows = [[c * (a * y + x * b) for b, y in zip(n, l)] for a, x in zip(n, l)]
            rank2 = CupForm.create(b2, [rows])
            assert rank(rank2.matrices[0]) == 2
            assert named_normal(rank2, null_hyperplane_search(rank2)) == walk_first([n, l])
            # a second matrix null only on n.x = 0 leaves that one
            both = CupForm.create(b2, [rows, [[x * y for y in n] for x in n]])
            assert named_normal(both, null_hyperplane_search(both)) == n
            heights.update(max(map(abs, v)) for v in (n, l))
    assert min(heights) >= 6 and max(heights) >= 40


def test_semidefinite_rank_2_forms_are_excluded_exactly():
    rng = random.Random(3651)
    note = "the first nonzero form is semidefinite of rank 2 (negative discriminant)"
    for b2 in range(3, 7):
        diag = [[int(i == j < 2) for j in range(b2)] for i in range(b2)]
        last = [[-int(i == j >= b2 - 2) for j in range(b2)] for i in range(b2)]
        u, v = (rng.choices([0, 1, -2, Fraction(1, 3), 4], k=b2) for _ in range(2))
        sign = rng.choice([-1, 1])
        gram = [[sign * (x * y + w * z) for y, z in zip(u, v)] for x, w in zip(u, v)]  # +-(u u^T + v v^T)
        for rows in (diag, last, gram):
            cup = CupForm.create(b2, [[[0] * b2 for _ in range(b2)], rows])
            if rank(cup.matrices[1]) < 2:
                continue
            assert null_hyperplane_search(cup) == NullSearchResult(False, None, "exact", note), rows
            verdict = s3_check_5manifold(b2, cup, False)
            assert verdict.excluded and verdict.completeness == "exact"


def test_an_irrational_pair_is_found_without_a_witness_at_b2_4():
    # x^2 - 2 y^2 in coordinates (0, 1) and (1, 3), and u u^T - 2 v v^T, each
    # with x^2 + y^2 (u u^T + v v^T): rank 2 and not a multiple of it
    u, v = (1, 2, 0, -1), (0, 1, 3, 1)

    def on(p, r, c):
        return [[{(p, p): 1, (r, r): c}.get((i, j), 0) for j in range(4)] for i in range(4)]

    def uv(c):
        return [[a * b + c * w * z for b, z in zip(u, v)] for a, w in zip(u, v)]

    for pell, other in ((on(0, 1, -2), on(0, 1, 1)), (on(1, 3, -2), on(1, 3, 1)), (uv(-2), uv(1))):
        result = null_hyperplane_search(CupForm.create(4, [pell]))
        assert result.found and result.completeness == "exact" and result.hyperplane is None, pell
        assert result.note.startswith("a real null hyperplane exists but its coordinates are irrational")
        scaled = [[Fraction(-3, 7) * x for x in row] for row in pell]
        assert null_hyperplane_search(CupForm.create(4, [[[0] * 4] * 4, pell, scaled])) == result
        assert rank(RationalMatrix.from_rows(other)) == 2
        assert null_hyperplane_search(CupForm.create(4, [pell, other])) == NullSearchResult(
            False, None, "exact", "every null hyperplane of the first form fails another cup matrix"
        ), pell
    first = null_hyperplane_search(CupForm.create(4, [on(0, 1, -2)]))
    assert first.note.endswith("(discriminant 2 is not a rational square)")


def test_mixed_lists_and_fraction_entries():
    b2 = 5
    n, l, m, k = (2, -7, 0, 3, 9), (0, 1, Fraction(1, 2), -4, 6), (1, 1, 1, 1, 1), (3, 0, -1, 1, 2)
    zero = [[0] * b2 for _ in range(b2)]

    def sym(a, b, c=1):
        return [[c * (x * z + y * w) for w, z in zip(a, b)] for x, y in zip(a, b)]  # c (a b^T + b a^T)

    found = [
        ([zero, sym(n, l, Fraction(3, 7)), sym(n, n, Fraction(-1, 2)), zero], n),
        ([sym(l, l, Fraction(5, 3)), sym(n, l), sym(l, m)], (0, 2, 1, -8, 12)),
        ([sym(n, l), sym(l, m, Fraction(-2, 9)), zero], (0, 2, 1, -8, 12)),
        ([sym(m, m, Fraction(1, 3))], m),
    ]
    for mats, normal in found:
        cup = CupForm.create(b2, mats)
        assert named_normal(cup, null_hyperplane_search(cup)) == normal, mats
    for mats in ([sym(l, l), sym(n, n)], [sym(n, l), sym(m, m), zero], [zero, sym(n, l), sym(m, k, Fraction(1, 2))]):
        result = null_hyperplane_search(CupForm.create(b2, mats))
        assert result == NullSearchResult(
            False, None, "exact", "every null hyperplane of the first form fails another cup matrix"
        ), mats


# each branch at b2 = 2: (matrices, (found, witness, note)); every answer is exact
B2_TWO = [
    ([], (True, [["1", "0"]], "all cup matrices vanish")),
    ([[[0, 0], [0, 0]]], (True, [["1", "0"]], "all cup matrices vanish")),
    ([[[4, -6], [-6, 9]]], (True, [["1", "2/3"]], "")),
    ([[[0, 0], [0, 3]]], (True, [["1", "0"]], "")),
    ([[[1, 1], [1, 1]], [[0, 1], [1, 0]]], (False, None, "every null line of the first form fails another cup matrix")),
    ([[[0, 1], [1, 0]]], (True, [["1", "0"]], "")),
    ([[[0, 2], [2, 3]]], (True, [["1", "0"]], "")),
    ([[[0, 2], [2, 3]], [[16, 12], [12, 9]]], (True, [["1", "-4/3"]], "")),
    ([[[-1, 0], [0, 1]]], (True, [["1", "-1"]], "")),  # both lines pass: (-b + root, a) comes first
    ([[[-1, 0], [0, 1]], [[1, -1], [-1, 1]]], (True, [["1", "1"]], "")),
    ([[["1/2", "1/3"], ["1/3", 0]]], (True, [["0", "1"]], "")),
    ([[["1/2", "-1/3"], ["-1/3", "-1/6"]]], (True, None, "a real null line exists but its coordinates are"
                                                      " irrational (discriminant 7/36 is not a rational square)")),
    ([[[2, 1], [1, 3]]], (False, None, "the first nonzero form is definite (negative discriminant)")),
    ([[[1, 0], [0, -2]], [[-3, 0], [0, 6]]], (True, None, "a real null line exists but its coordinates are"
                                                      " irrational (discriminant 2 is not a rational square)")),
    ([[[1, 0], [0, -2]], [[1, 0], [0, 0]]], (False, None, "every null line of the first form fails another cup matrix")),
    ([[[0, 1], [1, 0]], [[1, 0], [0, 0]], [[0, 0], [0, 1]]],
     (False, None, "every null line of the first form fails another cup matrix")),
]


@pytest.mark.parametrize("mats, expected", B2_TWO)
def test_each_b2_2_branch_keeps_its_answer(mats, expected):
    cup = CupForm.create(2, [[[Fraction(x) for x in row] for row in m] for m in mats])
    result = null_hyperplane_search(cup)
    witness = result.hyperplane and [[str(x) for x in v] for v in result.hyperplane.vectors]
    assert (result.found, witness, result.note) == expected
    assert result.completeness == "exact"
    if witness:
        assert_null_witness(cup, result)


def test_witness_limit_refuses_before_any_normal_is_built(monkeypatch):
    # b2 = 4 builds a 3 x 4 witness: 12 entries
    monkeypatch.setattr(obstructions, "MAX_WITNESS_ENTRIES", 12)
    found = null_hyperplane_search(CupForm.create(4, []))
    assert found.found and found.note == "normal (0, 0, 0, 1)"
    monkeypatch.setattr(obstructions, "MAX_WITNESS_ENTRIES", 11)
    with pytest.raises(ValueError, match="b2 = 4 could build a witness of 12 entries, past the limit of 11"):
        null_hyperplane_search(CupForm.create(4, []))
    # a matrix of rank >= 3 builds no witness, so the limit does not apply
    definite = CupForm.create(4, [[[int(i == j) for j in range(4)] for i in range(4)]])
    assert null_hyperplane_search(definite).completeness == "bounded-search"


def unbounded_walk_les(problem, cap):
    """The solver's walk before it bounded a fresh unknown by the next known
    term: every value in [incoming, cap], sorted as solve_les sorts."""
    terms, m = problem.terms, len(problem.terms)
    forced = frozenset(problem.forced_zero_ranks)
    out, assign = [], {}

    def walk(i, incoming, ranks):
        while i < m and (type(terms[i]) is int or terms[i] in assign):
            t = terms[i]
            incoming = assign.get(t, t) - incoming
            if incoming < 0 or (incoming and i in forced):
                return
            ranks.append(incoming)
            i += 1
        if i == m:
            if incoming == 0:
                out.append((dict(assign), tuple(ranks[:-1])))
            return
        label = terms[i]
        for v in range(incoming, (min(cap, incoming) if i in forced else cap) + 1):
            assign[label] = v
            walk(i + 1, v - incoming, ranks + [v - incoming])
        assign.pop(label, None)

    walk(0, 0, [])
    return sorted(out, key=lambda s: tuple(s[0][name] for name in problem.labels()))


def test_bounded_walk_matches_the_unbounded_walk_on_random_problems():
    rng = random.Random(3652)
    for _ in range(1500):
        m = rng.randint(1, 10)
        terms = tuple(
            rng.randint(0, 4) if rng.random() < 0.5 else rng.choice("ABCD")
            for _ in range(m)
        )
        forced = tuple(i for i in range(m - 1) if rng.random() < 0.2)
        rng.randint(0, 9)  # the cap the solver once took, drawn so the seed keeps its problems
        matches_oracle(terms, forced, unbounded_walk_les)
    found = 0
    for _ in range(1500):
        found += matches_oracle(*admissible_terms(rng, 4, "ABCD", 0.2), unbounded_walk_les)
    assert found >= 500
    # Gysin and Wang problems from the command line's assemblers, open totals
    for problem in (gysin_assemble(l=2, basic_dims=[1, 1, 1]), gysin_assemble(l=3, basic_dims=[1, 2, 1]),
                    wang_check(2, True, True, [1, 0, 1]).problem, wang_check(3, True, True, [1, 0, 0, 1]).problem):
        sols = solve_les(problem)
        assert [(s.assignments, s.map_ranks) for s in sols] == unbounded_walk_les(problem, oracle_cap(problem))
