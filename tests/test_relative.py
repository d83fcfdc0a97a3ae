"""The relative complex C(g, h) = (Lambda(g/h)*)^h against its definition.

The oracle is the defining condition taken over the whole exterior algebra:
the kernel of the stacked rows of iota_X and iota_X o d for the basis
vectors X of h.  The engine never forms these rows; it builds the complex
from the horizontal monomials of a basis adapted to h.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from eqss import cohomology as cohomology_module, forms
from eqss.cohomology import action_on_cohomology, cohomology, relative_model, restricted_action
from eqss.forms import ce_complex, pull_back, relative_subcomplex
from eqss.documents import parse_document
from eqss.library import builtin_text, so_pair, so_pair_reflection
from eqss.liealg import (
    LieAlgebra, LieAutomorphism, Subalgebra, coordinate_subalgebra, so_algebra, so_pairs, su2, u_algebra,
)
from eqss.linalg import RationalMatrix, SubspaceBasis, kernel_basis

from form_oracles import (
    ExteriorForm,
    contract,
    contract_matrix,
    multi_indices,
    slot_differential_images,
    slot_differentials,
    slot_relative_subcomplex,
    sorted_pull_back,
)
from randgen import change_basis, random_two_step_nilpotent, random_unimodular, transported_pair


def oracle_subcomplex(g, h):
    n = g.dim
    ce = ce_complex(g)
    spaces = []
    for k in range(n + 1):
        size = len(multi_indices(n, k))
        rows = []
        for x in h.basis.vectors:
            if k > 0:
                rows.extend(contract_matrix(n, x, k).rows)
            if k < n:
                d_cols = ce.differential(k).columns()
                cols = [contract(x, ExteriorForm(n, k + 1, c)).coeffs for c in d_cols]
                rows.extend(RationalMatrix.from_columns(cols, size).rows)
        spaces.append(kernel_basis(RationalMatrix.from_rows(tuple(rows), size)) if rows else SubspaceBasis.full(size))
    return spaces


def shipped_pairs():
    doc = parse_document(builtin_text("library"))
    return [(sub.algebra, sub) for sub in doc.subalgebras.values()]


def in_random_basis(rng, g, h):
    g2, vectors = transported_pair(rng, g, h.basis.vectors)
    return g2, Subalgebra.span(g2, vectors, f"{h.name}-transported")


def test_shipped_pairs_match_oracle_in_coordinate_basis():
    pairs = shipped_pairs()
    assert {(g.name, h.name) for g, h in pairs} == {
        ("su2", "e3"), ("so3", "so2"), ("so4", "so3_in_so4"), ("so5", "so4_in_so5"), ("u2", "u1")
    }
    for g, h in pairs:
        assert relative_subcomplex(g, h)[0] == oracle_subcomplex(g, h), (g.name, h.name)


def test_shipped_pairs_match_oracle_in_random_bases():
    # (so5, so4) is left to the next test: its oracle in a dense basis takes ~20 s
    rng = random.Random(61)
    for g, h in shipped_pairs():
        if g.dim > 6:
            continue
        for _ in range(2):
            g2, h2 = in_random_basis(rng, g, h)
            assert relative_subcomplex(g2, h2)[0] == oracle_subcomplex(g2, h2), (g.name, h.name)


def test_so5_so4_in_random_bases_is_the_4_sphere():
    rng = random.Random(67)
    g, h = so_pair(4)
    for _ in range(2):
        g2, h2 = in_random_basis(rng, g, h)
        assert cohomology(relative_model(g2, h2).complex).dims == (1, 0, 0, 0, 1) + (0,) * 6


def test_random_lines_match_oracle():
    # every line is a subalgebra; a random one is in no special position, and
    # in a two-step nilpotent algebra the pair is not reductive
    rng = random.Random(71)
    nilpotent = [random_two_step_nilpotent(random.Random(seed)) for seed in (3, 5, 7)]
    for g in (su2(), u_algebra(2), so_algebra(4), *nilpotent):
        for _ in range(3):
            x = [0] * g.dim
            while not any(x):
                x = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(g.dim)]
            h = Subalgebra.span(g, [x], "line")
            spaces = relative_subcomplex(g, h)[0]
            assert spaces == oracle_subcomplex(g, h), (g.name, x)
            assert spaces == slot_relative_subcomplex(g, h), (g.name, x)


def test_relative_model_rejects_non_jacobi():
    bad = LieAlgebra.from_brackets(
        "bad", 3, {(1, 2): [0, 0, 1], (1, 3): [0, 0, 1], (2, 3): [1, 0, 0]}
    )
    h = Subalgebra.span(bad, [[0, 0, 1]], "line")
    with pytest.raises(ValueError, match="Jacobi"):
        relative_model(bad, h)


def test_so6_so5_is_the_5_sphere_with_reflection_acting_trivially():
    # the normalizer reflection acts on H^l(S^l) by (-1)^(l+1), here +1
    g, h = so_pair(5)
    model = relative_model(g, h)
    res = cohomology(model.complex)
    assert res.dims == (1, 0, 0, 0, 0, 1) + (0,) * 10
    acts = action_on_cohomology(res, restricted_action(model, so_pair_reflection(5)))
    assert acts[5] == RationalMatrix.from_rows([[1]])


def test_sphere_ladder_sign_law_from_l5_to_l8(monkeypatch):
    # (so(l+1), so(l)) is the l-sphere, and the normalizer reflection acts on
    # H^l by (-1)^(l+1); so8/so7 (dim 28) and so9/so8 (dim 36) pass the 2^n
    # check only with the limit raised
    budget, start = 10.0, time.perf_counter()
    for l in (5, 6, 7, 8):
        if l >= 7:
            monkeypatch.setattr(cohomology_module, "MAX_FORM_ENTRIES", 2 ** (l * (l + 1) // 2))
        g, h = so_pair(l)
        model = relative_model(g, h)
        res = cohomology(model.complex)
        assert res.dims == tuple(int(k in (0, l)) for k in range(g.dim + 1)), l
        acts = action_on_cohomology(res, restricted_action(model, so_pair_reflection(l)))
        assert acts[l] == RationalMatrix.from_rows([[(-1) ** (l + 1)]]), l
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"the l = 5..8 ladder took {elapsed:.2f}s, budget {budget}s"


def test_relative_route_never_enumerates_the_forms_on_g(monkeypatch):
    g, h = so_pair(6)  # so7/so6: Lambda(g) has 2^21 monomials
    aut = so_pair_reflection(6)

    def refuse(*args):
        raise AssertionError(f"a table of monomials was built: {args}")

    monkeypatch.setattr(forms, "_positions", refuse)
    model = relative_model(g, h)
    assert cohomology(model.complex).dims == (1, 0, 0, 0, 0, 0, 1) + (0,) * 15
    assert [m.shape for m in restricted_action(model, aut)] == [(d, d) for d in model.complex.dims]


def test_relative_d_reads_only_the_free_part_of_the_bracket(monkeypatch):
    # d on C(g, h) is built from the bracket of g/h: the table names free indices only, and
    # _d_column sees horizontal masks only.  The Jacobi check reads all of g through both,
    # so its cached verdict comes first.  On so(l+1)/so(l) every relative d is zero; in the
    # coordinate basis the free vectors span the complement p with [p, p] in h, so the
    # table is empty, while in a random basis they span another complement.
    rng = random.Random(73)
    spheres = [so_pair(l) for l in range(2, 7)]
    stiefel = so_coordinate_pair(5, "V(5,2)", circle=False)
    cases = [(pair, "coordinate") for pair in spheres] + [(in_random_basis(rng, *p), "random") for p in spheres]
    cases += [(stiefel, "V(5,2)"), (in_random_basis(rng, *stiefel), "V(5,2)")]
    for (g, _), _ in cases:
        forms._require_jacobi(g)
    tables, masks = [], []
    generator_images, d_column = forms._generator_images, forms._d_column

    def record_table(n, table):
        tables.append(table)
        return generator_images(n, table)

    def record_mask(dgen, m, memo):
        masks.append(m)
        return d_column(dgen, m, memo)

    monkeypatch.setattr(forms, "_generator_images", record_table)
    monkeypatch.setattr(forms, "_d_column", record_mask)
    expected = {"coordinate": (False, True), "random": (True, True), "V(5,2)": (True, False)}
    for (g, h), kind in cases:
        tables.clear()
        masks.clear()
        diffs = relative_subcomplex(g, h)[1]
        pivots = {col[0][0] + 1 for col in h.basis.matrix.entries}
        assert len(tables) == 1 and masks, h.name
        assert not any(m >> (p - 1) & 1 for m in masks for p in pivots), h.name
        named = {x for (i, j), terms in tables[0] for x in (i, j, *(k for k, _ in terms))}
        assert not named & pivots, h.name
        has_terms, d_is_zero = any(t for _, t in tables[0]), all(d.is_zero() for d in diffs)
        assert (has_terms, d_is_zero) == expected[kind], h.name


def so_coordinate_pair(n, name, *, circle):
    """so(n) over its coordinate so(n-2), and with circle over so(n-2) + so(2)."""
    g = so_algebra(n)
    indices = [k + 1 for k, (i, j) in enumerate(so_pairs(n)) if j <= n - 2 or circle and i == n - 1]
    return g, coordinate_subalgebra(g, indices, name)


def stiefel_betti(n):
    """V(n, 2) is rationally S^(2n-3) for odd n and S^(n-2) x S^(n-1) for even n."""
    return dict.fromkeys((0, 2 * n - 3) if n % 2 else (0, n - 2, n - 1, 2 * n - 3), 1)


def grassmannian_betti(n):
    """The oriented 2-plane Grassmannian of R^n has the Betti numbers of the
    quadric of complex dimension n - 2: one in each even degree up to
    2(n - 2), and two in the middle degree when n is even."""
    return {2 * i: 1 + (2 * i == n - 2) for i in range(n - 1)}


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_stiefel_and_grassmannian_pairs_match_the_tuple_route(monkeypatch, n):
    # so7/so5 has codimension 11, which the lift limit refuses
    monkeypatch.setattr(cohomology_module, "MAX_FORM_ENTRIES", 10**9)
    stiefel = so_coordinate_pair(n, f"V({n},2)", circle=False)
    grassmannian = so_coordinate_pair(n, f"G2(R^{n})", circle=True)
    for (g, h), betti in ((stiefel, stiefel_betti(n)), (grassmannian, grassmannian_betti(n))):
        assert relative_subcomplex(g, h)[0] == slot_relative_subcomplex(g, h), h.name
        dims = cohomology(relative_model(g, h).complex).dims
        assert dims == tuple(betti.get(k, 0) for k in range(g.dim + 1)), h.name


@pytest.mark.parametrize("n", [4, 5, 6])
def test_stiefel_and_grassmannian_pairs_in_random_bases_obey_poincare_duality(n):
    # both pairs are compact and unimodular, so H(g, h) is a Poincare duality algebra of dimension m = codim
    rng = random.Random(n)
    for circle, betti in ((False, stiefel_betti(n)), (True, grassmannian_betti(n))):
        g, h = so_coordinate_pair(n, f"G2(R^{n})" if circle else f"V({n},2)", circle=circle)
        g2, h2 = in_random_basis(rng, g, h)
        dims, m = cohomology(relative_model(g2, h2).complex).dims, g.dim - h.dim
        assert dims == tuple(betti.get(k, 0) for k in range(g.dim + 1)), h.name
        assert dims[:m + 1] == dims[m::-1] and dims[m] == 1 and not any(dims[m + 1:]), h.name


def test_relative_bases_match_the_tuple_route_on_the_sphere_ladder():
    # the bases of the route on index tuples, in the coordinate basis and in a random one
    for l in range(2, 9):
        g, h = so_pair(l)
        assert relative_subcomplex(g, h)[0] == slot_relative_subcomplex(g, h), l
        g2, h2 = in_random_basis(random.Random(l), g, h)
        assert relative_subcomplex(g2, h2)[0] == slot_relative_subcomplex(g2, h2), l


def scaled(n, factors):
    return RationalMatrix.from_entries(n, [[(j, c)] for j, c in enumerate(factors)])


def fraction_case(case):
    """A pair and an automorphism whose structure constants include
    non-integral Fractions."""
    if case == "half scaling":  # d(e^2 ^ e^3) = -e^123 sums two halves
        g = LieAlgebra.from_brackets(case, 3, {(1, 2): [0, Fraction(1, 2), 0], (1, 3): [0, 0, Fraction(1, 2)]})
        return g, Subalgebra.span(g, [[1, 0, 0]]), LieAutomorphism.create(g, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    l = {"so3/so2": 2, "so4/so3": 3, "so5/so4": 4}[case.split()[0]]
    g, h = so_pair(l)
    n, rng = g.dim, random.Random(l)
    if case.endswith("doubled"):  # e_1 scaled by 2
        t = scaled(n, [2] + [1] * (n - 1))
    else:
        t = random_unimodular(rng, n).mul(scaled(n, [rng.choice((1, 2, 3)) for _ in range(n)]))
    return change_basis(g, h, so_pair_reflection(l), t, case)


def sparse_forms(rng, n):
    """Three random sparse forms of every degree below n."""
    return [
        RationalMatrix.from_entries(comb(n, k), [
            [(p, rng.choice((-2, 1, Fraction(1, 2), Fraction(-4, 3)))) for p in rng.sample(range(comb(n, k)), min(4, comb(n, k)))]
            for _ in range(3)
        ])
        for k in range(n)
    ]


FRACTION_CASES = ["half scaling", "so3/so2 scaled", "so4/so3 doubled", "so4/so3 scaled", "so5/so4 doubled"]


@pytest.mark.parametrize("case", FRACTION_CASES)
def test_mask_kernel_matches_the_oracles_on_fraction_constants(case):
    # the relative d of these pairs is held against the old route in the differential test below
    g, h, aut = fraction_case(case)
    assert any(type(c) is Fraction for _, coeffs in g.brackets for c in coeffs)
    ce = ce_complex(g)
    assert list(ce.differentials) == slot_differentials(g)
    spaces, diffs = relative_subcomplex(g, h)
    assert spaces == slot_relative_subcomplex(g, h)
    if g.dim <= 6:  # the dense contraction oracle on so5 takes seconds
        assert spaces == oracle_subcomplex(g, h)
    forms = [s.matrix for s in spaces]
    sparse = sparse_forms(random.Random(g.dim), g.dim)
    pulled = pull_back(aut, forms) + pull_back(aut, sparse)
    assert pulled == sorted_pull_back(aut, forms) + sorted_pull_back(aut, sparse)
    values = [x for m in (*ce.differentials, *forms, *diffs, *pulled) for col in m.entries for _, x in col]
    assert all(type(x) is int or (type(x) is Fraction and x.denominator != 1) for x in values)
    assert any(type(x) is Fraction for x in values)


def differential_case(family, n, seed):
    """A pair of the differential test: so(n+1)/so(n), V(n, 2) or G2(R^n), in
    the coordinate basis (seed None) or the random basis of the seed; the
    random line of seed n in a two-step nilpotent algebra; a shipped pair,
    named by its subalgebra; or a `fraction_case`."""
    if family == "shipped":
        return next((g, h) for g, h in shipped_pairs() if h.name == n)
    if family == "fraction":
        return fraction_case(n)[:2]
    if family == "nilpotent line":
        rng = random.Random(n)
        g, x = random_two_step_nilpotent(rng), []
        while not any(x):
            x = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(g.dim)]
        return g, Subalgebra.span(g, [x], "line")
    g, h = so_pair(n) if family == "sphere" else so_coordinate_pair(n, family, circle=family == "grassmannian")
    return (g, h) if seed is None else in_random_basis(random.Random(seed), g, h)


DIFFERENTIAL_CASES = [
    *(("sphere", l, seed) for l in range(2, 6) for seed in (None, 95, 96, 97)),
    *((family, 6, seed) for family in ("stiefel", "grassmannian") for seed in (None, 95, 96, 97)),
    *(("nilpotent line", seed, None) for seed in range(60)),
    *(("shipped", name, None) for name in ("e3", "so2", "so3_in_so4", "so4_in_so5", "u1")),
    *(("fraction", case, None) for case in FRACTION_CASES),
]


@pytest.mark.parametrize("family, n, seed", DIFFERENTIAL_CASES)
def test_relative_differentials_match_the_old_route(family, n, seed):
    # the old route differentiated the lifted basis forms on all of Lambda g* (here by
    # the slot oracle) and read the images in the next degree's basis
    model = relative_model(*differential_case(family, n, seed))
    images = slot_differential_images(model.algebra, [s.matrix for s in model.bases[:-1]])
    assert list(model.complex.differentials) == [s.coordinate_matrix(m) for s, m in zip(model.bases[1:], images)]
