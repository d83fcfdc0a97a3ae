import random
from fractions import Fraction

import pytest

from eqss.linalg import (
    GroupBoundError,
    RationalMatrix,
    SubspaceBasis,
    complement_in,
    enumerate_group,
    fixed_subspace,
    image_basis,
    kernel_basis,
    rank,
    solve,
    subspace_sum,
)


def M(rows, ncols=None):
    return RationalMatrix.from_rows(rows, ncols)


def test_rank_dependent_rows():
    assert rank(M([[1, 2], [2, 4]])) == 1


def test_rank_empty_and_zero():
    assert rank(RationalMatrix.zeros(3, 4)) == 0
    assert rank(M([], ncols=5)) == 0


def test_rref_is_canonical():
    s1 = SubspaceBasis.span([[2, 4], [1, 3]], 2)
    s2 = SubspaceBasis.span([[1, 3], [2, 4]], 2)
    assert s1 == s2 == SubspaceBasis.full(2)


def test_kernel_of_sum_constraint():
    k = kernel_basis(M([[1, 1, 0]]))
    expect = SubspaceBasis.span([[1, -1, 0], [0, 0, 1]], 3)
    assert k == expect
    assert k.dim == 2


def test_kernel_rank_nullity_randomized():
    rng = random.Random(7)
    for _ in range(150):
        nr = rng.randrange(1, 6)
        nc = rng.randrange(1, 6)
        m = M([[Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(nc)]
               for _ in range(nr)])
        assert rank(m) + kernel_basis(m).dim == nc
        for v in kernel_basis(m).vectors:
            assert not any(m.apply(v))


def test_solve_and_inverse():
    m = M([[1, 2], [3, 5]])
    x = solve(m, [5, 13])
    assert x is not None and m.apply(x) == (Fraction(5), Fraction(13))
    inv = m.inverse()
    assert m.mul(inv) == RationalMatrix.identity(2)
    assert solve(M([[1, 1], [1, 1]]), [0, 1]) is None
    with pytest.raises(ValueError):
        M([[1, 1], [1, 1]]).inverse()


def test_subspace_equality_is_representation_free():
    a = SubspaceBasis.span([[1, 1], [1, -1]], 2)
    b = SubspaceBasis.span([[2, 0], [0, 3]], 2)
    assert a == b == SubspaceBasis.full(2)
    assert SubspaceBasis.span([[2, 4]], 2) == SubspaceBasis.span([[1, 2]], 2)


def test_sum_and_quotient():
    a = SubspaceBasis.span([[1, 0, 0]], 3)
    b = SubspaceBasis.span([[0, 1, 0]], 3)
    s = subspace_sum(a, b)
    assert s.dim == 2


def test_complement_is_canonical_and_spanning():
    space = SubspaceBasis.full(3)
    sub = SubspaceBasis.span([[1, 2, 0]], 3)
    comp = complement_in(space, sub)
    assert comp.dim == 2
    assert subspace_sum(comp, sub) == space
    assert subspace_sum(comp, sub).dim == comp.dim + sub.dim


def test_fixed_subspace_minus_identity_is_zero():
    minus = M([[-1]])
    assert fixed_subspace([minus]).dim == 0


def test_fixed_subspace_swap():
    swap = M([[0, 1], [1, 0]])
    assert fixed_subspace([swap]) == SubspaceBasis.span([[1, 1]], 2)


def test_fixed_subspace_matches_generator_kernel_randomized():
    # fixed space of the generated group equals the simultaneous fixed space
    # of the generators; exercised on random involutions P D P^-1
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(1, 4)
        while True:
            p = M([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if rank(p) == n:
                break
        d = RationalMatrix.from_rows(
            [[(1 if i == j else 0) * rng.choice([1, -1]) for j in range(n)] for i in range(n)]
        )
        g = p.mul(d).mul(p.inverse())
        ident = RationalMatrix.identity(n)
        expect = kernel_basis(g.sub(ident))
        assert fixed_subspace([g]) == expect


def test_fixed_subspace_needs_only_the_generators():
    # the shear generates an infinite group; its fixed line is found without enumerating it
    assert fixed_subspace([M([[1, 1], [0, 1]])]) == SubspaceBasis.span([[1, 0]], 2)
    with pytest.raises(ValueError, match="square"):
        fixed_subspace([M([[1, 0]])])
    with pytest.raises(ValueError, match="equal size"):
        fixed_subspace([M([[1]]), RationalMatrix.identity(2)])


def test_enumerate_group_and_bound():
    rot4 = M([[0, -1], [1, 0]])
    assert len(enumerate_group([rot4])) == 4
    with pytest.raises(GroupBoundError):
        enumerate_group([rot4], bound=3)
    shear = M([[1, 1], [0, 1]])  # infinite cyclic
    with pytest.raises(GroupBoundError):
        enumerate_group([shear], bound=50)


def test_image_basis():
    m = M([[1, 2], [2, 4], [0, 0]])
    assert image_basis(m) == SubspaceBasis.span([[1, 2, 0]], 3)


def test_matrix_parse_rational_strings():
    m = M([["1/2", "-3"], ["0", "7/3"]])
    assert m.rows[0][0] == Fraction(1, 2)
    assert m.rows[1][1] == Fraction(7, 3)
    with pytest.raises(TypeError):
        M([[0.5]])


def test_coordinates_in_basis():
    b = SubspaceBasis.span([[1, 0, 1], [0, 1, 1]], 3)
    c = b.coordinates([2, 3, 5])
    assert c is not None
    recon = [sum(ci * vi for ci, vi in zip(c, col)) for col in zip(*b.vectors)]
    assert recon == [2, 3, 5]
    assert b.coordinates([1, 0, 0]) is None


def test_coordinates_reject_ragged_vectors():
    b = SubspaceBasis.span([[1, 0, 1], [0, 1, 1]], 3)
    for basis in (b, SubspaceBasis.zero(3)):
        with pytest.raises(ValueError, match="length"):
            basis.coordinates([1, 0])
        with pytest.raises(ValueError, match="length"):
            basis.coordinates([0, 0, 0, 0])


def test_coordinate_subspace_matches_span_randomized():
    rng = random.Random(12)
    for n in range(13):
        units = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        assert SubspaceBasis.full(n) == SubspaceBasis.span(units, n)
        for k in range(n + 1):
            for _ in range(3):
                idx = sorted(rng.sample(range(n), k))
                want = SubspaceBasis.span([units[i] for i in idx], n)
                assert SubspaceBasis.coordinate(n, idx) == want


@pytest.mark.parametrize("idx", [[1, 0], [0, 0], [3], [-1]])
def test_coordinate_subspace_rejects_unordered_or_out_of_range(idx):
    with pytest.raises(ValueError, match="increasing"):
        SubspaceBasis.coordinate(3, idx)
