"""Exact-sequence solver and exclusion checkers.

Solver oracles are worked by hand from the rank bookkeeping; the Gysin and
Wang membership examples are cross-checked against Kunneth dimensions of
the corresponding product models.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

import pytest

from eqss import obstructions
from eqss.cohomology import GradedComplex
from eqss.liealg import coordinate_subalgebra, su2, u_algebra
from eqss.linalg import RationalMatrix, kernel_basis, rank
from eqss.obstructions import (
    NORMAL_HEIGHT,
    CupForm,
    LesProblem,
    NullSearchResult,
    Term,
    gysin_assemble,
    null_hyperplane_search,
    s3_check_4manifold,
    s3_check_5manifold,
    solve_les,
    verify_exactness,
    wang_check,
)
from eqss.obstructions import _normal_count, _primitive_normals, _rank_exceeds_2, _vanishes_on
from eqss.spectral import product_model, run_to_stabilization

from form_oracles import apply, cube_normals, form_vanishes_on_hyperplane
from orbit_table import OrbitType, orbit_table_verify, su2_orbit_table
from randgen import form_null_on, random_rational, random_symmetric


def seq(*entries):
    terms = []
    for e in entries:
        terms.append(Term.unknown(e) if isinstance(e, str) else Term.known(e))
    return LesProblem(tuple(terms))


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
    # 0 -> A -> A -> 0 forces nothing beyond A = A; 0 -> A -> 2 -> A -> 0
    # forces the outer ranks to split the middle: A + A = 2.
    sols = solve_les(seq("A", 2, "A"))
    assert [s.assignments for s in sols] == [{"A": 1}]


def test_solver_respects_cap():
    prob = seq("A", 60)
    assert solve_les(prob) == []
    assert len(solve_les(prob, cap=60)) == 1


def test_solver_label_bound():
    prob = seq(*[f"L{i}" for i in range(13)])
    with pytest.raises(ValueError, match="solver bound"):
        solve_les(prob)


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


def brute_force_les(problem, cap):
    """Every assignment of the labels in [0, cap] whose forced ranks are exact, sorted."""
    labels = problem.labels()
    out = []
    for values in product(range(cap + 1), repeat=len(labels)):
        assign = dict(zip(labels, values))
        ranks, incoming = [], 0
        for i, t in enumerate(problem.terms):
            incoming = (t.dim if t.is_known else assign[t.label]) - incoming
            if incoming < 0 or (incoming and i in problem.forced_zero_ranks):
                break
            ranks.append(incoming)
        else:
            if incoming == 0:
                out.append((assign, tuple(ranks[:-1])))
    return out


def test_solver_matches_brute_force_on_random_problems():
    rng = random.Random(2202)
    found = 0
    for _ in range(300):
        m = rng.randint(1, 9)
        terms = tuple(
            Term.known(rng.randint(0, 3)) if rng.random() < 0.5 else Term.unknown(rng.choice("ABC"))
            for _ in range(m)
        )
        forced = tuple(i for i in range(m - 1) if rng.random() < 0.25)
        problem, cap = LesProblem(terms, forced_zero_ranks=forced), rng.randint(0, 4)
        sols = solve_les(problem, cap=cap)
        assert [(s.assignments, s.map_ranks) for s in sols] == brute_force_les(problem, cap), problem.render()
        found += bool(sols)
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
        normals = list(_primitive_normals(b2, 2))
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
    prob = seq("A", 2, "A")
    assert prob.render() == "0 -> ?A -> 2 -> ?A -> 0"


def test_normal_limit_covers_every_normal_at_b2_5():
    # answers for b2 <= 5 search every normal of the default height
    from eqss.obstructions import MAX_NORMALS, NORMAL_HEIGHT

    assert sum(1 for _ in _primitive_normals(5, NORMAL_HEIGHT)) == 78721 <= MAX_NORMALS


def test_shell_walk_yields_the_cube_filter_sequence():
    # the same normals in the same order as filtering the whole cube
    from eqss.obstructions import NORMAL_HEIGHT

    counts = []
    for b2 in range(1, 6):
        normals = list(_primitive_normals(b2, NORMAL_HEIGHT))
        assert normals == list(cube_normals(b2, NORMAL_HEIGHT)), b2
        counts.append(len(normals))
    assert counts == [1, 40, 577, 6928, 78721]


def test_labels_are_sorted_and_distinct_in_linear_time():
    terms = [Term.unknown(f"x{i % 50000}") for i in range(100000)] + [Term.known(1)]
    labels = LesProblem(tuple(terms)).labels()
    assert len(labels) == 50000 and list(labels) == sorted(labels)


@lru_cache(maxsize=None)
def walked_normals(b2):
    return tuple(_primitive_normals(b2, NORMAL_HEIGHT))


def walk_search(cup):
    """The b2 >= 3 search as a plain walk over every normal: the first that
    passes, the limit's message past MAX_NORMALS, or none found.  Each form
    is scaled to integer entries first, which keeps its null hyperplanes."""
    forms = []
    for m in cup.matrices:
        den = lcm(*(Fraction(x).denominator for row in m.rows for x in row))
        forms.append([[int(x * den) for x in row] for row in m.rows])
    for count, normal in enumerate(walked_normals(cup.b2)):
        if count == obstructions.MAX_NORMALS:
            return f"the null hyperplane search for b2 = {cup.b2} passed the limit of {count} normals"
        if all(_vanishes_on(f, normal) for f in forms):
            return NullSearchResult(True, kernel_basis(RationalMatrix.from_rows([normal])), "exact",
                                    f"normal {normal}")
    note = f"no rational null hyperplane with integer normal of height <= {NORMAL_HEIGHT}"
    return NullSearchResult(False, None, "bounded-search", note)


def searched(cup):
    try:
        return null_hyperplane_search(cup)
    except ValueError as exc:
        return str(exc)


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


def test_null_search_equals_the_walk_on_every_kind_of_form():
    rng = random.Random(34)
    kinds = set()
    for b2 in range(3, 6):
        for kind, rows in random_cup_matrices(rng, b2):
            cup = CupForm.create(b2, rows)
            for m in cup.matrices:
                assert _rank_exceeds_2(m) is (rank(m) > 2), (b2, kind, rows)
            expected = walk_search(cup)
            assert searched(cup) == expected, (b2, kind, rows)
            kinds.add((expected.found, any(rank(m) > 2 for m in cup.matrices)))
    assert kinds == {(True, False), (False, False), (False, True)}


def test_null_search_equals_the_walk_at_the_normal_limit(monkeypatch):
    # b2 = 4 has 6,928 normals: a limit of 6,927 is passed and one of 6,928 is not
    definite = CupForm.create(4, [[[5 if i == j else 1 for j in range(4)] for i in range(4)]])
    line = CupForm.create(4, [[[9 if i == j == 3 else 0 for j in range(4)] for i in range(4)]])
    rank2 = CupForm.create(4, [[[int({i, j} == {0, 3}) * 6 for j in range(4)] for i in range(4)]])
    outcomes = []
    for limit in (6927, 6928, 1):
        monkeypatch.setattr(obstructions, "MAX_NORMALS", limit)
        for cup in (definite, line, rank2):
            outcomes.append(searched(cup))
            assert outcomes[-1] == walk_search(cup), (limit, cup)
    assert "passed the limit of 6927 normals" in outcomes[0]
    assert not outcomes[3].found and outcomes[3].completeness == "bounded-search"
    assert outcomes[1].found and outcomes[2].found and outcomes[8].found  # x4 = 0 is the first normal
    assert "passed the limit of 1 normals" in outcomes[6]


def test_a_matrix_of_rank_3_answers_without_walking_the_normals(monkeypatch):
    def no_walk(b2, height):
        raise AssertionError(f"walked the normals at b2 = {b2}")

    monkeypatch.setattr(obstructions, "_primitive_normals", no_walk)
    definite = CupForm.create(4, [[[7 if i == j else 1 for j in range(4)] for i in range(4)]])
    result = null_hyperplane_search(definite)
    assert not result.found and result.completeness == "bounded-search"
    rank3 = [[int(i == j < 3) for j in range(6)] for i in range(6)]
    with pytest.raises(ValueError, match="b2 = 6 passed the limit of 80000 normals"):
        null_hyperplane_search(CupForm.create(6, [[[0] * 6 for _ in range(6)], rank3]))
    with pytest.raises(AssertionError, match="walked the normals at b2 = 4"):  # rank 2 walks
        null_hyperplane_search(CupForm.create(4, [[[int(i == j < 2) for j in range(4)] for i in range(4)]]))


def test_normal_count_is_the_number_of_walked_normals():
    for b2 in range(1, 6):
        for height in range(1, 6):
            assert _normal_count(b2, height) == sum(1 for _ in _primitive_normals(b2, height)), (b2, height)
    assert _normal_count(6, NORMAL_HEIGHT) == 877240 > obstructions.MAX_NORMALS


def test_witness_limit_refuses_before_any_normal_is_built(monkeypatch):
    # b2 = 4 builds a 3 x 4 witness: 12 entries
    monkeypatch.setattr(obstructions, "MAX_WITNESS_ENTRIES", 12)
    found = null_hyperplane_search(CupForm.create(4, []))
    assert found.found and found.note == "normal (0, 0, 0, 1)"
    monkeypatch.setattr(obstructions, "MAX_WITNESS_ENTRIES", 11)
    monkeypatch.setattr(obstructions, "_primitive_normals", None)
    with pytest.raises(ValueError, match="b2 = 4 could build a witness of 12 entries, past the limit of 11"):
        null_hyperplane_search(CupForm.create(4, []))
    # a matrix of rank >= 3 builds no witness, so the limit does not apply
    definite = CupForm.create(4, [[[int(i == j) for j in range(4)] for i in range(4)]])
    assert null_hyperplane_search(definite).completeness == "bounded-search"
