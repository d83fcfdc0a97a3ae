import random
from fractions import Fraction
from math import comb

import pytest

from eqss.forms import (
    _indices,
    _jacobi_witness,
    _positions,
    _rank,
    _unrank,
    ce_complex,
    relative_subcomplex,
    wedge,
)
from eqss.liealg import (
    LieAlgebra,
    LieAutomorphism,
    abelian,
    coordinate_subalgebra,
    so_algebra,
    su2,
    u_algebra,
)
from eqss.linalg import GradedComplex, RationalMatrix, as_fraction

from form_oracles import (
    ContractionError,
    ExteriorForm,
    _mask,
    all_degrees_differentials,
    apply,
    basis_form,
    bracket,
    contract,
    contract_matrix,
    dense_wedge,
    form_from_terms,
    induced_on_forms,
    multi_indices,
    slot_differentials,
    sort_sign,
    triple_jacobi_witness,
)
from randgen import (
    random_solvable,
    random_two_step_nilpotent,
    rescaled_algebra,
    transported_algebra,
)


def det(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det(minor)
    return total


def evaluate(form: ExteriorForm, vectors) -> Fraction:
    """alpha(v_1,...,v_k) as a sum of k x k determinants."""
    vs = [[as_fraction(x) for x in v] for v in vectors]
    assert len(vs) == form.degree
    total = Fraction(0)
    for idx, c in form.terms():
        total += c * det([[v[j - 1] for j in idx] for v in vs])
    return total


def d_oracle(g: LieAlgebra, form: ExteriorForm, vectors) -> Fraction:
    """(d alpha)(X_0,...,X_k) summed over argument pairs 0 <= i < j <= k."""
    m = len(vectors)
    total = Fraction(0)
    for i in range(m):
        for j in range(i + 1, m):
            rest = [v for t, v in enumerate(vectors) if t not in (i, j)]
            br = bracket(g, vectors[i], vectors[j])
            sign = -1 if (i + j) % 2 else 1
            total += sign * evaluate(form, [br] + rest)
    return total


def apply_d(ce: GradedComplex, form: ExteriorForm) -> ExteriorForm:
    out = apply(ce.differential(form.degree), form.coeffs)
    return ExteriorForm(form.dim, form.degree + 1, out)


def rand_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def rand_form(rng, dim, degree):
    return ExteriorForm(
        dim, degree, tuple(rand_fraction(rng) for _ in multi_indices(dim, degree))
    )


def test_multi_indices_lex_order():
    assert multi_indices(4, 2) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert multi_indices(3, 0) == ((),)
    assert multi_indices(3, 4) == ()


def test_rank_and_unrank_match_the_monomial_table():
    for n in range(11):
        for k in range(n + 1):
            table = multi_indices(n, k)
            assert len(table) == comb(n, k)
            assert list(_positions(n, k)) == [_mask(idx) for idx in table]
            for p, idx in enumerate(table):
                assert _indices(_mask(idx)) == idx
                assert _rank(n, _mask(idx)) == p
                assert _indices(_unrank(n, k, p)) == idx
    # round trips at dim 36 (so9), where a table of all 2^36 monomials is out of reach
    rng = random.Random(89)
    for _ in range(400):
        k = rng.randint(0, 36)
        idx = tuple(sorted(rng.sample(range(1, 37), k)))
        p = _rank(36, _mask(idx))
        assert 0 <= p < comb(36, k)
        assert _indices(_unrank(36, k, p)) == idx
        q = rng.randrange(comb(36, k))
        assert _rank(36, _unrank(36, k, q)) == q
    assert _unrank(36, 18, 0) == (1 << 18) - 1
    assert _unrank(36, 18, comb(36, 18) - 1) == ((1 << 18) - 1) << 18


def test_wedge_basics():
    e1 = basis_form(3, [1])
    e2 = basis_form(3, [2])
    assert dense_wedge(e1, e1).is_zero()
    assert dense_wedge(e1, e2).terms() == [((1, 2), Fraction(1))]
    assert dense_wedge(e2, e1).terms() == [((1, 2), Fraction(-1))]
    # degree overflow collapses to the zero space
    top = basis_form(3, [1, 2, 3])
    assert dense_wedge(top, e1).coeffs == ()


def random_sparse_forms(rng, dim, k, ncols, pool):
    """ncols k-forms on Q^dim with up to 4 monomials each, coefficients drawn from pool."""
    size = comb(dim, k)
    return RationalMatrix.from_entries(size, [
        [(i, rng.choice(pool)) for i in rng.sample(range(size), min(rng.randint(0, 4), size))] for _ in range(ncols)
    ])


def test_wedge_matches_the_dense_oracle():
    rng = random.Random(43)
    pools = {"int": (-2, -1, 1, 3), "fraction": (Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), 2, -3)}
    for dim in range(8):
        for p in range(dim + 1):
            for q in range(dim + 1):
                for pool in pools.values():
                    a, b = random_sparse_forms(rng, dim, p, 1, pool), random_sparse_forms(rng, dim, q, 3, pool)
                    got = wedge(dim, p, a.entries[0], q, b)
                    dense_a = ExteriorForm(dim, p, a.column(0))
                    want = [dense_wedge(dense_a, ExteriorForm(dim, q, col)).coeffs for col in b.columns()]
                    assert got.shape == (comb(dim, p + q), 3)
                    assert got.columns() == want, (dim, p, q)
                    for col in got.entries:
                        assert all(type(x) is int or (type(x) is Fraction and x.denominator > 1) for _, x in col)


def test_form_from_terms_sorts_with_sign():
    f = form_from_terms(3, 2, {(2, 1): 1})
    assert f.terms() == [((1, 2), Fraction(-1))]
    with pytest.raises(ValueError):
        form_from_terms(3, 2, {(1, 1): 1})


def test_wedge_graded_commutative_and_associative():
    rng = random.Random(7)
    for _ in range(60):
        dim = rng.randint(2, 5)
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        r = rng.randint(0, 2)
        a = rand_form(rng, dim, p)
        b = rand_form(rng, dim, q)
        c = rand_form(rng, dim, r)
        ab = dense_wedge(a, b)
        ba = dense_wedge(b, a)
        sign = -1 if (p * q) % 2 else 1
        assert ab.coeffs == ba.scale(sign).coeffs
        assert dense_wedge(ab, c).coeffs == dense_wedge(a, dense_wedge(b, c)).coeffs


def test_contract_antiderivation():
    rng = random.Random(11)
    for _ in range(60):
        dim = rng.randint(2, 5)
        p = rng.randint(1, 2)
        q = rng.randint(1, 2)
        a = rand_form(rng, dim, p)
        b = rand_form(rng, dim, q)
        x = [rand_fraction(rng) for _ in range(dim)]
        lhs = contract(x, dense_wedge(a, b))
        sign = -1 if p % 2 else 1
        rhs = dense_wedge(contract(x, a), b).add(dense_wedge(a, contract(x, b)).scale(sign))
        assert lhs.coeffs == rhs.coeffs


def test_contract_anticommutes():
    rng = random.Random(13)
    for _ in range(40):
        dim = rng.randint(2, 5)
        k = rng.randint(2, min(3, dim))
        a = rand_form(rng, dim, k)
        x = [rand_fraction(rng) for _ in range(dim)]
        y = [rand_fraction(rng) for _ in range(dim)]
        xy = contract(x, contract(y, a))
        yx = contract(y, contract(x, a))
        assert xy.coeffs == yx.scale(-1).coeffs
        assert contract(x, contract(x, a)).is_zero()


def test_contract_degree_zero_errors():
    with pytest.raises(ContractionError):
        contract([1, 0, 0], basis_form(3, []))


def test_contract_matches_evaluation():
    rng = random.Random(17)
    for _ in range(40):
        dim = rng.randint(2, 4)
        k = rng.randint(1, dim)
        a = rand_form(rng, dim, k)
        x = [rand_fraction(rng) for _ in range(dim)]
        rest = [[rand_fraction(rng) for _ in range(dim)] for _ in range(k - 1)]
        assert evaluate(contract(x, a), rest) == evaluate(a, [x] + rest)


def test_su2_generator_differentials():
    ce = ce_complex(su2())
    d1 = ce.differential(1)
    # d e1 = -e2^e3, d e2 = e1^e3, d e3 = -e1^e2 in the monomial basis
    assert d1.column(0) == (Fraction(0), Fraction(0), Fraction(-1))
    assert d1.column(1) == (Fraction(0), Fraction(1), Fraction(0))
    assert d1.column(2) == (Fraction(-1), Fraction(0), Fraction(0))
    assert ce.differential(0).is_zero()
    assert ce.differential(2).is_zero()


def test_differential_squares_to_zero_as_matrices():
    for g in (su2(), so_algebra(4), u_algebra(2)):
        ce = ce_complex(g)
        for k in range(g.dim - 1):
            assert ce.differential(k + 1).mul(ce.differential(k)).is_zero()


def test_differential_matches_direct_evaluation():
    rng = random.Random(23)
    for g in (su2(), so_algebra(4), u_algebra(2)):
        ce = ce_complex(g)
        for _ in range(25):
            k = rng.randint(0, min(3, g.dim - 1))
            form = rand_form(rng, g.dim, k)
            vectors = [[rand_fraction(rng) for _ in range(g.dim)] for _ in range(k + 1)]
            assert evaluate(apply_d(ce, form), vectors) == d_oracle(g, form, vectors)


def test_ce_complex_matches_the_slot_oracle():
    rng = random.Random(31)
    algebras = [su2(), so_algebra(4), so_algebra(5), u_algebra(2)]
    for g in (so_algebra(4), so_algebra(5)):
        algebras += [transported_algebra(rng, g) for _ in range(3)]
    algebras += [random_two_step_nilpotent(rng) for _ in range(5)]
    for g in algebras:
        assert list(ce_complex(g).differentials) == slot_differentials(g), g.name


def duality_cases():
    """Unimodular algebras, which take the transposed upper half, and
    solvable ones, which do not: so(n), u(n), their random and rescaled
    bases, two-step nilpotent algebras, the library and dims 0, 1 and 2."""
    from eqss.documents import builtin_text, parse_document

    rng = random.Random(43)
    cases = [so_algebra(n) for n in range(2, 7)] + [u_algebra(n) for n in range(1, 4)]
    cases += [abelian(n) for n in range(3)] + list(parse_document(builtin_text("library")).algebras.values())
    for g in (su2(), so_algebra(4), so_algebra(5), u_algebra(2), u_algebra(3)):
        cases += [transported_algebra(rng, g), rescaled_algebra(rng, g)]
    cases += [random_two_step_nilpotent(rng) for _ in range(60)]
    cases += [random_solvable(rng, fractions=k % 2 == 1) for k in range(40)]
    return cases


def test_ce_complex_matches_the_all_degrees_loop():
    cases = duality_cases()
    assert {g.unimodular for g in cases} == {True, False}
    assert {0, 1, 2, 15} <= {g.dim for g in cases}
    for g in cases:
        assert list(ce_complex(g).differentials) == all_degrees_differentials(g), g.name


def test_unimodular_is_a_traceless_adjoint_action():
    rng = random.Random(47)
    cases = duality_cases() + [random_solvable(rng) for _ in range(40)]
    for g in cases:
        units = RationalMatrix.identity(g.dim).columns()
        traces = [sum(bracket(g, x, y)[j] for j, y in enumerate(units)) for x in units]
        assert g.unimodular == (traces == [0] * g.dim), g.name
    assert 10 < sum(g.unimodular for g in cases[-40:]) < 30


def wedge_parities(n, top):
    """p with e^I ^ e^(I^c) = (-1)^p vol for every I of degree 0..top, in position order."""
    return [
        tuple(sort_sign(idx + tuple(i for i in range(1, n + 1) if i not in idx))[1] == -1 for idx in multi_indices(n, k))
        for k in range(top + 1)
    ]


def test_create_builds_the_upper_half_from_the_lower_half():
    for g in (so_algebra(4), u_algebra(3), random_two_step_nilpotent(random.Random(3), 6), abelian(1), abelian(0)):
        n, dims = g.dim, ce_complex(g).dims
        lower = all_degrees_differentials(g)[: (n + 1) // 2]
        assert GradedComplex.create(dims, lower, duality=wedge_parities(n, (n + 1) // 2)) == ce_complex(g)


def test_create_refuses_a_lower_half_that_is_not_self_dual():
    # r2 + r2 is not unimodular: d e^2 ^ d e^4 = e^1234 is the junction d_2 d_1
    g = LieAlgebra.from_brackets("r2+r2", 4, {(1, 2): [0, 1, 0, 0], (3, 4): [0, 0, 0, 1]})
    diffs, dims, parities = all_degrees_differentials(g), ce_complex(g).dims, wedge_parities(4, 2)
    with pytest.raises(ValueError, match=r"d\^2 != 0 between degrees 1 and 3"):
        GradedComplex.create(dims, diffs[:2], duality=parities)
    with pytest.raises(ValueError, match="expected 2 differentials, got 4"):
        GradedComplex.create(dims, diffs, duality=parities)
    for wrong in (parities[:2], parities + [(0,) * 4], parities[:2] + [parities[2][1:]]):
        with pytest.raises(ValueError, match=r"expected parities of the \(1, 4, 6\) monomials of degrees 0..2"):
            GradedComplex.create(dims, diffs[:2], duality=wrong)


def test_differential_is_antiderivation():
    rng = random.Random(29)
    g = so_algebra(4)
    ce = ce_complex(g)
    for _ in range(40):
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        a = rand_form(rng, g.dim, p)
        b = rand_form(rng, g.dim, q)
        lhs = apply_d(ce, dense_wedge(a, b))
        sign = -1 if p % 2 else 1
        rhs = dense_wedge(apply_d(ce, a), b).add(dense_wedge(a, apply_d(ce, b)).scale(sign))
        assert lhs.coeffs == rhs.coeffs


def test_ce_complex_rejects_non_jacobi():
    bad = LieAlgebra.from_brackets(
        "bad", 3, {(1, 2): [0, 0, 1], (1, 3): [0, 0, 1], (2, 3): [1, 0, 0]}
    )
    with pytest.raises(ValueError, match="Jacobi"):
        ce_complex(bad)


def perturbed(rng, g, fractions):
    """g with one or two structure constants moved by a small nonzero int or Fraction."""
    table = {ij: list(v) for ij, v in g.brackets}
    for _ in range(rng.randint(1, 2)):
        i, j = sorted(rng.sample(range(1, g.dim + 1), 2))
        delta = rng.choice([-2, -1, 1, 2])
        table.setdefault((i, j), [0] * g.dim)[rng.randrange(g.dim)] += (
            Fraction(delta, rng.choice([2, 3])) if fractions else delta
        )
    return LieAlgebra.from_brackets(f"{g.name}+", g.dim, table)


def test_jacobi_witness_matches_the_triple_loop_on_perturbed_tables():
    """d(d e^k) = 0 fails at exactly the triples whose Jacobiator is nonzero,
    so the least monomial left is the triple loop's first witness."""
    rng = random.Random(2201)
    families = [su2(), so_algebra(4), so_algebra(5), u_algebra(2), u_algebra(3)]
    witnesses = []
    for case in range(400):
        g = families[case % 5]
        if case // 5 % 2:
            g = transported_algebra(rng, g)
        bad = perturbed(rng, g, fractions=case // 10 % 2)
        witness = _jacobi_witness(bad)
        assert witness == triple_jacobi_witness(bad), (case, bad.table)
        witnesses.append(witness)
    assert sum(w is not None for w in witnesses) >= 300 and len(set(witnesses)) >= 30


def test_jacobi_witness_is_none_on_every_shipped_and_constructed_algebra():
    from eqss.documents import builtin_text, parse_document

    library = parse_document(builtin_text("library")).algebras.values()
    for g in [*library, *map(so_algebra, range(13)), *map(u_algebra, range(1, 6))]:
        assert _jacobi_witness(g) is None, g.name


def test_ce_complex_cache_is_bounded():
    g = su2()
    assert ce_complex(g) is ce_complex(g)
    for i in range(40):
        ce_complex(LieAlgebra.from_brackets(f"line{i}", 1, {}))
    info = ce_complex.cache_info()
    assert info.maxsize == 32 and info.currsize <= 32


def test_relative_subcomplex_su2_axis():
    g = su2()
    h = coordinate_subalgebra(g, [3])
    spaces, diffs = relative_subcomplex(g, h)
    assert [s.dim for s in spaces] == [1, 0, 1, 0]
    # the surviving 2-form is e1^e2, and on the 2-sphere d = 0
    assert spaces[2].vectors == ((Fraction(1), Fraction(0), Fraction(0)),)
    assert diffs == [RationalMatrix.zeros(b.dim, a.dim) for a, b in zip(spaces, spaces[1:])]


def test_relative_subcomplex_su2_axis_oracle():
    # iota_{e3} d(a e1 + b e2 + c e3) = a e2 - b e1, so degree 1 forces a=b=c=0
    g = su2()
    ce = ce_complex(g)
    rng = random.Random(31)
    for _ in range(30):
        form = rand_form(rng, 3, 1)
        a, b, c = form.coeffs
        got = contract([0, 0, 1], apply_d(ce, form))
        assert got.coeffs == (-b, a, Fraction(0))


def test_relative_subcomplex_so4_so3():
    g = so_algebra(4)
    h = coordinate_subalgebra(g, [1, 2, 4])  # A12, A13, A23 span so(3)
    spaces = relative_subcomplex(g, h)[0]
    assert [s.dim for s in spaces] == [1, 0, 0, 1, 0, 0, 0]


def test_relative_subcomplex_trivial_subalgebra_is_everything():
    g = su2()
    h = coordinate_subalgebra(g, [])
    spaces, diffs = relative_subcomplex(g, h)
    assert [s.dim for s in spaces] == [1, 3, 3, 1]
    # over the zero subalgebra every index is free, and d is the whole CE differential
    assert diffs == list(ce_complex(g).differentials)


def test_induced_on_forms_reflection():
    g = su2()
    aut = LieAutomorphism.create(g, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    m1 = induced_on_forms(aut, 1)
    assert m1 == RationalMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    m2 = induced_on_forms(aut, 2)
    # basis order e1^e2, e1^e3, e2^e3
    assert m2 == RationalMatrix.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    m3 = induced_on_forms(aut, 3)
    assert m3 == RationalMatrix.from_rows([[1]])


def cayley_so3(rng):
    while True:
        a, b, c = (Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3))
        s = RationalMatrix.from_rows([[0, a, b], [-a, 0, c], [-b, -c, 0]])
        eye = RationalMatrix.identity(3)
        try:
            return eye.sub(s).inverse().mul(eye.add(s))
        except ValueError:
            continue


def test_induced_on_forms_functorial():
    g = su2()
    rng = random.Random(37)
    for _ in range(20):
        a = LieAutomorphism.create(g, cayley_so3(rng))
        b = LieAutomorphism.create(g, cayley_so3(rng))
        ab = LieAutomorphism.create(g, a.matrix.mul(b.matrix))
        for k in (1, 2, 3):
            lhs = induced_on_forms(ab, k, check=False)
            rhs = induced_on_forms(a, k, check=False).mul(induced_on_forms(b, k, check=False))
            assert lhs == rhs


def test_induced_on_forms_commutes_with_differential():
    # sign pattern eps_i eps_j on the lex pair basis of so(4), eps = (1,1,-1,-1)
    g = so_algebra(4)
    eps = [1, 1, -1, -1]
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    diag = []
    for r, (i, j) in enumerate(pairs):
        diag.append([eps[i - 1] * eps[j - 1] if c == r else 0 for c in range(6)])
    aut = LieAutomorphism.create(g, diag)
    for k in range(0, 6):
        induced_on_forms(aut, k)  # raises if it fails to commute with d


def test_contract_matrix_agrees_with_contract():
    rng = random.Random(41)
    for _ in range(20):
        dim = rng.randint(2, 4)
        k = rng.randint(1, dim)
        x = [rand_fraction(rng) for _ in range(dim)]
        m = contract_matrix(dim, x, k)
        form = rand_form(rng, dim, k)
        assert apply(m, form.coeffs) == contract(x, form).coeffs
