"""Degrees of dimension zero cost nothing, and change nothing.

The kernels answer an operand with no rows or columns, or a zero basis,
directly; `check_chain_map` skips the commute products where d_k = 0; and
`invariant_cohomology` gives a degree with H^k = 0 the trivial group
without enumerating it.  Each test holds such an early return against the
general path it replaces, written out here as it was before: the loops of
`linalg`, and the degree loop of `invariant_cohomology` that enumerated the
group in every degree.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from eqss.cohomology import cohomology, invariant_cohomology, relative_model, restricted_action
from eqss.forms import pull_back, relative_subcomplex
from eqss.documents import parse_document
from eqss.library import builtin_text
from eqss.liealg import LieAutomorphism
from eqss.linalg import (
    GROUP_BOUND,
    GradedComplex,
    GroupBoundError,
    RationalMatrix,
    SubspaceBasis,
    check_chain_map,
    enumerate_group,
    fixed_subspace,
)

from randgen import change_basis, random_unimodular


def general_mul(a, b):
    """The product column by column, as `RationalMatrix.mul` computes a nonempty one."""
    cols = []
    for col in b.entries:
        acc = {}
        for k, y in col:
            for i, x in a.entries[k]:
                acc[i] = acc.get(i, 0) + x * y
        cols.append(acc.items())
    return RationalMatrix.from_entries(a.nrows, cols)


def general_at_pivots(s, m):
    index = {p: i for i, p in enumerate(s.pivots)}
    return RationalMatrix(s.dim, tuple(tuple((index[i], x) for i, x in c if i in index) for c in m.entries))


def general_reduce(s, m):
    return m.sub(general_mul(s.matrix, general_at_pivots(s, m)))


def general_coordinate_matrix(s, m):
    coords = general_at_pivots(s, m)
    return coords if general_mul(s.matrix, coords) == m else None


def random_matrix(rng, nrows, ncols, density=0.6):
    return RationalMatrix.from_entries(nrows, [
        [(i, Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))) for i in range(nrows) if rng.random() < density]
        for _ in range(ncols)
    ])


def test_empty_products_equal_the_general_product():
    rng = random.Random(81)
    for a_rows, inner, b_cols in [(0, 3, 2), (3, 0, 2), (0, 0, 0), (2, 3, 0), (0, 2, 0), (3, 0, 0), (0, 0, 4)]:
        a, b = random_matrix(rng, a_rows, inner), random_matrix(rng, inner, b_cols)
        got = a.mul(b)
        assert got == general_mul(a, b) == RationalMatrix.zeros(a_rows, b_cols), (a_rows, inner, b_cols)
        assert got.shape == (a_rows, b_cols) and got.is_zero()
    # a nonempty product still takes the general path
    a, b = random_matrix(rng, 3, 4), random_matrix(rng, 4, 2)
    assert a.mul(b) == general_mul(a, b)


@pytest.mark.parametrize("a, b", [((0, 3), (2, 1)), ((3, 0), (1, 0)), ((0, 0), (1, 0)), ((2, 1), (0, 0))])
def test_empty_products_still_refuse_a_shape_mismatch(a, b):
    with pytest.raises(ValueError, match="shape mismatch"):
        RationalMatrix.zeros(*a).mul(RationalMatrix.zeros(*b))


def subspace_cases(rng):
    """(basis, m) pairs: zero, full and random bases of Q^n for n = 0..4,
    against m with no columns, zero columns, columns inside the basis and
    random columns."""
    for n in range(5):
        spans = [SubspaceBasis.zero(n), SubspaceBasis.full(n)]
        spans += [SubspaceBasis.span(random_matrix(rng, n, rng.randint(1, 3)).columns(), n) for _ in range(2)]
        for s in spans:
            inside = general_mul(s.matrix, random_matrix(rng, s.dim, 2))
            for m in (RationalMatrix.zeros(n, 0), RationalMatrix.zeros(n, 2), inside, random_matrix(rng, n, 3)):
                yield s, m


def test_reduce_and_coordinates_equal_the_general_path():
    rng = random.Random(82)
    seen = {"zero basis": 0, "no columns": 0, "zero m": 0, "nonzero m": 0, "outside": 0}
    for s, m in subspace_cases(rng):
        reduced, coords = s.reduce(m), s.coordinate_matrix(m)
        assert reduced == general_reduce(s, m), (s, m)
        assert coords == general_coordinate_matrix(s, m), (s, m)
        assert reduced.shape == m.shape
        if coords is not None:
            assert coords.shape == (s.dim, m.ncols)
        seen["zero basis"] += s.dim == 0
        seen["no columns"] += m.ncols == 0
        seen["zero m"] += m.ncols > 0 and m.is_zero()
        seen["nonzero m"] += not m.is_zero()
        seen["outside"] += coords is None
    assert all(seen.values()), seen
    # a nonzero column over the zero basis lies outside it
    nonzero = RationalMatrix.from_columns([[0, 1, 0]])
    assert SubspaceBasis.zero(3).coordinate_matrix(nonzero) is None
    assert SubspaceBasis.zero(3).reduce(nonzero) == nonzero


@pytest.mark.parametrize("s", [SubspaceBasis.zero(3), SubspaceBasis.zero(0), SubspaceBasis.full(2),
                               SubspaceBasis.span([[1, 0, 1], [0, 1, 1]], 3)])
@pytest.mark.parametrize("m", [RationalMatrix.zeros(4, 0), RationalMatrix.zeros(1, 2), RationalMatrix.identity(1)])
def test_empty_operands_still_refuse_an_ambient_mismatch(s, m):
    for op in (s.reduce, s.coordinate_matrix):
        with pytest.raises(ValueError, match="ambient dimension"):
            op(m)


def test_forms_without_columns_map_to_the_empty_forms():
    doc = parse_document(builtin_text("library"))
    g, aut = doc.algebras["so4"], doc.automorphisms["so4_reflection"]
    n = g.dim
    empty = [RationalMatrix.zeros(comb(n, k), 0) for k in range(n + 1)]
    # the relative d of so4/so3 maps out of and into degrees without basis forms
    spaces, diffs = relative_subcomplex(g, doc.subalgebras["so3_in_so4"])
    assert [s.dim for s in spaces] == [1, 0, 0, 1, 0, 0, 0]
    assert diffs == [RationalMatrix.zeros(b.dim, a.dim) for a, b in zip(spaces, spaces[1:])]
    assert pull_back(aut, empty) == empty
    # a degree without columns next to ones with columns
    mixed = [SubspaceBasis.full(comb(n, k)).matrix if k % 2 else empty[k] for k in range(n + 1)]
    images = pull_back(aut, mixed)
    assert [m.shape for m in images] == [m.shape for m in mixed]
    assert all(images[k] == empty[k] for k in range(0, n + 1, 2))


def test_chain_maps_skip_only_the_products_that_are_zero():
    # d_0 = 0 and d_1 = 0: any square maps commute, as the products the check skips show
    zero = GradedComplex.create((1, 0, 2), [RationalMatrix.zeros(0, 1), RationalMatrix.zeros(2, 0)])
    maps = [RationalMatrix.from_rows([[2]]), RationalMatrix.zeros(0, 0), RationalMatrix.from_rows([[1, 5], [0, 3]])]
    check_chain_map(zero, maps)
    for k in range(zero.top):
        d_k = zero.differential(k)
        assert maps[k + 1].mul(d_k) == d_k.mul(maps[k]) == general_mul(d_k, maps[k])
    # every shape is still checked, also at an empty degree and next to a zero d_k
    wrong = [maps[0], RationalMatrix.identity(1), maps[2]]
    with pytest.raises(ValueError, match=r"degree-1 map has shape \(1, 1\), expected square 0"):
        check_chain_map(zero, wrong)
    with pytest.raises(ValueError, match="expected 3 degree maps"):
        check_chain_map(zero, maps[:2])
    # a nonzero d_k still refuses a map that does not commute with it
    line = GradedComplex.create((1, 1, 1), [RationalMatrix.identity(1), RationalMatrix.zeros(1, 1)])
    check_chain_map(line, [RationalMatrix.from_rows([[2]])] * 2 + [RationalMatrix.from_rows([[7]])])
    with pytest.raises(ValueError, match="commute with the differential at degree 0"):
        check_chain_map(line, [RationalMatrix.identity(1), RationalMatrix.from_rows([[2]]), RationalMatrix.identity(1)])


def enumerated_invariants(result, generators, bound=GROUP_BOUND):
    """Invariant dimensions with the group of every degree enumerated, H^k = 0 too."""
    acts = [[result.express_columns(k, m.mul(reps.matrix)) for k, (m, reps) in enumerate(zip(maps, result.classes))]
            for maps in generators]
    dims = []
    for k, dim in enumerate(result.dims):
        gens = [a[k] for a in acts]
        if gens:
            enumerate_group(gens, bound=bound)
        dims.append(fixed_subspace(gens).dim if gens else dim)
    return tuple(dims)


def outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except GroupBoundError:
        return GroupBoundError


# (algebra, subalgebra, automorphism or None, l): H(g, h) = H(S^l)
LIBRARY_PAIRS = [
    ("su2", "e3", "su2_reflection", 2),
    ("so3", "so2", "so3_reflection", 2),
    ("so4", "so3_in_so4", "so4_reflection", 3),
    ("so5", "so4_in_so5", "so5_reflection", 4),
    ("u2", "u1", None, 3),
]


def library_pairs_in_both_bases():
    doc, rng = parse_document(builtin_text("library")), random.Random(83)
    for alg, sub, aut, l in LIBRARY_PAIRS:
        g, h = doc.algebras[alg], doc.subalgebras[sub]
        a = doc.automorphisms[aut] if aut else LieAutomorphism.create(g, RationalMatrix.identity(g.dim), "id")
        # the identity keeps every class, a reflection the top one for odd l only
        want = tuple(int(k == 0 or (k == l and (l % 2 == 1 or aut is None))) for k in range(g.dim + 1))
        yield g, h, a, want
        for v in range(2):
            yield change_basis(g, h, a, random_unimodular(rng, g.dim), f"{alg}~{v}") + (want,)


def test_invariants_of_the_library_pairs_are_unchanged():
    """The reflections act on H^l(S^l) by (-1)^(l+1), the identity by 1; with
    bound=0 the degree loop refuses exactly when the old one did: when some
    nonzero H^k carries a nontrivial action."""
    refused = 0
    for g, h, aut, want in library_pairs_in_both_bases():
        model = relative_model(g, h)
        res = cohomology(model.complex)
        maps = restricted_action(model, aut)
        for gens in ([maps], [maps, maps], []):
            inv = invariant_cohomology(res, gens)
            assert inv.dims == enumerated_invariants(res, gens) == (want if gens else res.dims), (g.name, len(gens))
            assert tuple(b.dim for b in inv.bases) == inv.dims
            strict = outcome(invariant_cohomology, res, gens, bound=0)
            assert (strict is GroupBoundError) == (outcome(enumerated_invariants, res, gens, bound=0) is GroupBoundError)
            refused += strict is GroupBoundError
            if strict is not GroupBoundError:
                assert strict == inv
    # su2/e3, so3/so2 and so5/so4 in three bases, each with [maps] and [maps, maps]
    assert refused == 18


def test_a_zero_degree_carries_the_trivial_group_under_any_bound():
    # H = (1, 0, 1): the generator acts by -1 on H^2 only
    cx = GradedComplex.create((1, 0, 1), [RationalMatrix.zeros(0, 1), RationalMatrix.zeros(1, 0)])
    res = cohomology(cx)
    flip = [RationalMatrix.identity(1), RationalMatrix.zeros(0, 0), RationalMatrix.from_rows([[-1]])]
    same = [RationalMatrix.identity(1), RationalMatrix.zeros(0, 0), RationalMatrix.identity(1)]
    assert invariant_cohomology(res, [same], bound=0).dims == enumerated_invariants(res, [same], bound=0) == (1, 0, 1)
    with pytest.raises(GroupBoundError):
        invariant_cohomology(res, [flip], bound=0)
    with pytest.raises(GroupBoundError):
        enumerated_invariants(res, [flip], bound=0)
    assert invariant_cohomology(res, [flip], bound=2).dims == enumerated_invariants(res, [flip], bound=2) == (1, 0, 0)
