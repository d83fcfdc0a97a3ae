import random
from fractions import Fraction
from math import comb

import pytest

from eqss.cohomology import (
    GradedComplex,
    action_on_cohomology,
    cohomology,
    cup_product,
    invariant_cohomology,
    lie_cohomology,
    relative_model,
    restricted_action,
)
from eqss.forms import ce_complex
from eqss.liealg import (
    LieAutomorphism,
    abelian,
    coordinate_subalgebra,
    so_algebra,
    su2,
    u_algebra,
)
from eqss.library import so_pair
from eqss.linalg import (
    GroupBoundError,
    RationalMatrix,
    SubspaceBasis,
    image_basis,
)
from eqss.spectral import DeckAction, FilteredComplex, invariant_filtered_complex
from form_oracles import ExteriorForm, apply, complement_in, dense_wedge, restricted_kernel, solve
from randgen import random_filtered_complex, random_two_step_nilpotent, transported_algebra


def test_absolute_cohomology_su2():
    res = lie_cohomology(su2())
    assert res.dims == (1, 0, 0, 1)
    assert res.representatives[3] == ((Fraction(1),),)


def test_absolute_cohomology_abelian():
    assert lie_cohomology(abelian(3)).dims == (1, 3, 3, 1)
    assert lie_cohomology(abelian(4)).dims == (1, 4, 6, 4, 1)


def test_absolute_cohomology_u2():
    res = lie_cohomology(u_algebra(2))
    assert res.dims == (1, 1, 0, 1, 1)
    assert sum((-1) ** k * d for k, d in enumerate(res.complex.dims)) == 0


def test_relative_cohomology_su2_axis():
    g = su2()
    res = lie_cohomology(g, coordinate_subalgebra(g, [3]))
    assert res.dims == (1, 0, 1, 0)


def test_relative_cohomology_so4_so3():
    g = so_algebra(4)
    res = lie_cohomology(g, coordinate_subalgebra(g, [1, 2, 4]))
    assert res.dims == (1, 0, 0, 1, 0, 0, 0)


def test_relative_cohomology_u2_u1():
    g = u_algebra(2)
    res = lie_cohomology(g, coordinate_subalgebra(g, [1]))
    assert res.dims == (1, 0, 0, 1, 0)


def test_euler_characteristic_matches_cohomology():
    for g in (su2(), abelian(4), u_algebra(2), so_algebra(3)):
        res = lie_cohomology(g)
        chi = sum(d if k % 2 == 0 else -d for k, d in enumerate(res.dims))
        assert chi == sum(d if k % 2 == 0 else -d for k, d in enumerate(res.complex.dims))


def test_trivial_subalgebra_matches_absolute():
    g = u_algebra(2)
    assert lie_cohomology(g, None).dims == cohomology(ce_complex(g)).dims


@pytest.mark.parametrize(
    "make, rank, betti",
    [
        (su2, 1, (1, 0, 0, 1)),
        (lambda: so_algebra(3), 1, (1, 0, 0, 1)),
        (lambda: so_algebra(4), 2, (1, 0, 0, 2, 0, 0, 1)),
        (lambda: u_algebra(2), 2, (1, 1, 0, 1, 1)),
        (lambda: u_algebra(3), 3, (1, 1, 0, 1, 1, 1, 1, 0, 1, 1)),
        (lambda: so_algebra(5), 2, (1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1)),
    ],
    ids=["su2", "so3", "so4", "u2", "u3", "so5"],
)
def test_hopf_absolute_cohomology(make, rank, betti):
    # H(g) of a compact Lie algebra is an exterior algebra on rank-many odd generators
    dims = lie_cohomology(make()).dims
    assert dims == betti
    assert sum(dims) == 2**rank
    assert dims == dims[::-1]


def test_so6_absolute_cohomology_is_exterior_on_degrees_3_5_7():
    # relative_model refuses so6 absolute by its dense size, so the complex is built directly
    dims = cohomology(ce_complex(so_algebra(6))).dims
    assert dims == tuple(int(k in (0, 3, 5, 7, 8, 10, 12, 15)) for k in range(16))
    assert all(dims[k] == dims[15 - k] for k in range(16))


def test_invariants_check_that_the_group_is_finite():
    shear = RationalMatrix.from_rows([[1, 1], [0, 1]])
    cx = GradedComplex.create((2,), [])
    with pytest.raises(GroupBoundError):
        invariant_cohomology(cohomology(cx), [[shear]], bound=50)
    with pytest.raises(GroupBoundError):
        DeckAction.create(FilteredComplex.create(cx, [[0, 0]]), [[shear]])


def column(vec):
    return RationalMatrix.from_columns([vec])


def express(res, k, vec):
    """The class coordinates of one cocycle of degree k, by `express_columns`."""
    return res.express_columns(k, column(vec)).column(0)


def test_express_classes():
    res = lie_cohomology(su2())
    assert express(res, 3, [1]) == (Fraction(1),)
    assert express(res, 0, [Fraction(5)]) == (Fraction(5),)
    with pytest.raises(ValueError, match="not a cocycle"):
        express(res, 1, [1, 0, 0])  # d e1 = -e2^e3 != 0


def test_graded_complex_validation():
    with pytest.raises(ValueError, match="shape"):
        GradedComplex.create((1, 2), [RationalMatrix.from_rows([[1]])])
    d0 = RationalMatrix.from_rows([[1], [0]])
    d1 = RationalMatrix.from_rows([[1, 0]])
    with pytest.raises(ValueError, match="d\\^2"):
        GradedComplex.create((1, 2, 1), [d0, d1])


def test_two_step_complex():
    cx = GradedComplex.create((1, 1), [RationalMatrix.from_rows([[1]])])
    assert cohomology(cx).dims == (0, 0)
    cx0 = GradedComplex.create((1, 1), [RationalMatrix.from_rows([[0]])])
    assert cohomology(cx0).dims == (1, 1)


def test_reflection_action_on_absolute_su2():
    g = su2()
    model = relative_model(g)
    res = cohomology(model.complex)
    aut = LieAutomorphism.create(g, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    maps = restricted_action(model, aut)
    acts = action_on_cohomology(res, maps)
    assert acts[0] == RationalMatrix.from_rows([[1]])
    assert acts[3] == RationalMatrix.from_rows([[1]])  # det of the reflection is +1


def test_reflection_action_on_relative_su2():
    g = su2()
    model = relative_model(g, coordinate_subalgebra(g, [3]))
    res = cohomology(model.complex)
    aut = LieAutomorphism.create(g, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    maps = restricted_action(model, aut)
    acts = action_on_cohomology(res, maps)
    assert acts[2] == RationalMatrix.from_rows([[-1]])
    inv = invariant_cohomology(res, [maps])
    assert inv.dims == (1, 0, 0, 0)


def test_invariants_agree_with_fixed_subcomplex():
    # restrict-then-compute equals compute-then-restrict over the rationals
    g = su2()
    model = relative_model(g, coordinate_subalgebra(g, [3]))
    res = cohomology(model.complex)
    aut = LieAutomorphism.create(g, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    maps = restricted_action(model, aut)
    fc = FilteredComplex.create(model.complex, [[0] * d for d in model.complex.dims])
    fixed, _ = invariant_filtered_complex(fc, DeckAction.create(fc, [maps]))
    assert cohomology(fixed.complex).dims == invariant_cohomology(res, [maps]).dims


def test_invariants_without_generators_are_everything():
    res = lie_cohomology(su2())
    assert invariant_cohomology(res, []).dims == res.dims


def test_restricted_action_rejects_nonpreserving_automorphism():
    g = su2()
    model = relative_model(g, coordinate_subalgebra(g, [3]))
    cycle = LieAutomorphism.create(g, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="preserve"):
        restricted_action(model, cycle)


def test_action_on_cohomology_rejects_non_chain_map():
    g = abelian(2)
    res = lie_cohomology(g)
    bad = [
        RationalMatrix.identity(1),
        RationalMatrix.from_rows([[1, 1], [0, 1]]),
        RationalMatrix.identity(1),
    ]
    # d = 0 here so any maps commute; break the shape instead
    with pytest.raises(ValueError, match="degree maps"):
        action_on_cohomology(res, bad[:2])
    g2 = su2()
    res2 = lie_cohomology(g2)
    skew = [
        RationalMatrix.identity(1),
        RationalMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        RationalMatrix.identity(3),
        RationalMatrix.identity(1),
    ]
    with pytest.raises(ValueError, match="commute"):
        action_on_cohomology(res2, skew)


def test_cup_product_abelian():
    g = abelian(3)
    res = lie_cohomology(g)
    assert cup_product(g, res, 1, (1, 0, 0), 1, (0, 1, 0)) == (Fraction(1), Fraction(0), Fraction(0))
    rng = random.Random(3)
    for _ in range(20):
        u = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        uv = cup_product(g, res, 1, u, 1, v)
        vu = cup_product(g, res, 1, v, 1, u)
        assert uv == tuple(-x for x in vu)


def test_cup_product_unit():
    g = su2()
    res = lie_cohomology(g)
    assert cup_product(g, res, 0, (1,), 3, (1,)) == (Fraction(1),)
    assert cup_product(g, res, 3, (1,), 3, (1,)) == ()


def test_cup_product_rejects_negative_degrees():
    g = su2()
    res = lie_cohomology(g)
    with pytest.raises(ValueError, match="negative degree -1"):
        cup_product(g, res, -1, [1], 3, [1])
    with pytest.raises(ValueError, match="negative degree -1"):
        cup_product(g, res, -1, [], 3, [1])
    with pytest.raises(ValueError, match="negative degree -2"):
        cup_product(g, res, 0, [1], -2, [1])


def test_cup_product_representative_independence():
    g = u_algebra(2)
    res = lie_cohomology(g)
    assert res.coboundaries[3].dim == 3
    u = res.representatives[1][0]
    w = res.representatives[3][0]
    shifted = tuple(a + b for a, b in zip(w, res.coboundaries[3].vectors[0]))
    prod = dense_wedge(ExteriorForm(4, 1, u), ExteriorForm(4, 3, w))
    prod_shifted = dense_wedge(ExteriorForm(4, 1, u), ExteriorForm(4, 3, shifted))
    assert express(res, 4, prod.coeffs) == express(res, 4, prod_shifted.coeffs)


def test_cup_product_matches_the_dense_route():
    rng = random.Random(53)
    for g in (su2(), so_algebra(4), u_algebra(2), abelian(4)):
        g = transported_algebra(rng, g)
        res = lie_cohomology(g)
        n = g.dim
        for p in range(n + 1):
            for q in range(n + 1):
                u, v = ([Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(res.dims[k])] for k in (p, q))
                dense = [ExteriorForm(n, k, apply(res.classes[k].matrix, c)) for k, c in ((p, u), (q, v))]
                # the product of degree p + q > n is the empty vector of H^{p+q} = 0
                want = express(res, p + q, dense_wedge(*dense).coeffs) if p + q <= n else ()
                got = cup_product(g, res, p, u, q, v)
                assert got == want and list(map(type, got)) == list(map(type, want)), (g.name, p, q)


def test_cup_product_rejects_relative_complex():
    g = su2()
    res = lie_cohomology(g, coordinate_subalgebra(g, [3]))
    with pytest.raises(ValueError, match="absolute"):
        cup_product(g, res, 0, (1,), 2, (1,))


def complement_cohomology(cx):
    """Per degree (Z, B, representatives) as they were built before the
    restricted kernel: Z = ker d_k by the row-elimination oracle, B = im d_{k-1},
    reps = complement_in(Z, B)."""
    out = []
    for k in range(cx.top + 1):
        z = restricted_kernel(cx.differential(k), range(cx.dims[k]))
        b = image_basis(cx.differential(k - 1))
        out.append((z, b, complement_in(z, b)))
    return out


def solve_express(z, b, reps, v):
    """Class coordinates by solving [reps | B] x = v, as express did before."""
    if z.coordinate_matrix(column(v)) is None:
        raise ValueError("not a cocycle")
    cols = list(reps.vectors) + list(b.vectors)
    if not cols:
        return ()
    return solve(RationalMatrix.from_columns(cols, z.ambient), v)[: reps.dim]


def test_restricted_kernel_classes_match_the_cocycle_complement():
    rng = random.Random(41)
    cases = [random_filtered_complex(rng)[0].complex for _ in range(60)]
    algebras = [su2(), so_algebra(4), so_algebra(5), u_algebra(2), u_algebra(3)]
    algebras += [transported_algebra(rng, so_algebra(4)) for _ in range(3)]
    algebras += [random_two_step_nilpotent(rng) for _ in range(5)]
    cases += [relative_model(g).complex for g in algebras]
    cases += [relative_model(*so_pair(l)).complex for l in (2, 3, 4)]
    for cx in cases:
        res = cohomology(cx)
        for k, (z, b, reps) in enumerate(complement_cohomology(cx)):
            assert res.representatives[k] == reps.vectors
            assert res.coboundaries[k] == b
            for _ in range(3):
                cs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in z.vectors]
                v = apply(z.matrix, cs)
                assert express(res, k, v) == solve_express(z, b, reps, v)
            units = SubspaceBasis.full(cx.dims[k]).vectors
            outside = next((e for e in units if z.coordinate_matrix(column(e)) is None), None)
            if outside is not None:
                with pytest.raises(ValueError, match="not a cocycle"):
                    express(res, k, outside)


def test_form_entry_limit_is_exact_at_the_boundary(monkeypatch):
    from eqss import cohomology as module

    # so(7)/so(6) indexes 2^21 monomials and must stay within the limit
    assert 2**21 <= module.MAX_FORM_ENTRIES
    g = so_algebra(5)  # its dense differentials hold 167,960 entries
    assert sum(d.nrows * d.ncols for d in ce_complex(g).differentials) == 167960
    monkeypatch.setattr(module, "MAX_FORM_ENTRIES", 167960)
    relative_model(g)
    monkeypatch.setattr(module, "MAX_FORM_ENTRIES", 167959)
    with pytest.raises(ValueError, match="absolute complex of so5 \\(dim 10\\) needs 167960 form entries"):
        relative_model(g)
    pair = so_pair(4)  # dim 10: 1024 monomials (and C(14, 4) = 1001 kernel and lift entries)
    monkeypatch.setattr(module, "MAX_FORM_ENTRIES", 1024)
    relative_model(*pair)
    monkeypatch.setattr(module, "MAX_FORM_ENTRIES", 1023)
    with pytest.raises(ValueError, match="relative complex of so5 \\(dim 10\\) needs 1024 form entries"):
        relative_model(*pair)


def test_relative_lift_limit_is_exact_at_the_boundary(monkeypatch):
    from eqss import cohomology as module

    # with m = dim g - dim h, the kernel vectors and their lifts hold at most
    # sum_k C(m,k) C(n,k) entries, which is C(n+m, m) by Vandermonde
    for n in range(10):
        for m in range(n + 1):
            assert sum(comb(m, k) * comb(n, k) for k in range(m + 1)) == comb(n + m, m)
    # so(7)/so(6) has codimension 6 in dim 21 and must stay within the limit
    assert comb(27, 6) == 296010 <= module.MAX_FORM_ENTRIES
    pair = so_pair(3)  # dim 6, codimension 3: 2^6 = 64 monomials, C(9, 3) = 84 entries
    monkeypatch.setattr(module, "MAX_FORM_ENTRIES", 84)
    relative_model(*pair)
    monkeypatch.setattr(module, "MAX_FORM_ENTRIES", 83)
    with pytest.raises(
        ValueError,
        match="relative complex of so4 \\(dim 6\\) over a subalgebra of codimension 3"
        " needs 84 kernel and lift entries, more than the limit of 83",
    ):
        relative_model(*pair)
    # the 2^n check comes first, with its own message
    monkeypatch.setattr(module, "MAX_FORM_ENTRIES", 63)
    with pytest.raises(ValueError, match="relative complex of so4 \\(dim 6\\) needs 64 form entries"):
        relative_model(*pair)
