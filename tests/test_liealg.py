import itertools
import random
import re
import types
from fractions import Fraction

import pytest

from eqss.forms import _jacobi_witness
from eqss.linalg import RationalMatrix, SubspaceBasis, kernel_basis
from eqss.liealg import (
    LieAlgebra,
    LieAutomorphism,
    Subalgebra,
    _matrix_algebra,
    coordinate_subalgebra,
    is_automorphism,
    so_algebra,
    su2,
    u_algebra,
)

from form_oracles import (
    abelian,
    apply,
    bracket,
    contains_subspace,
    matrix_sum,
    normalizer,
    so_algebra_by_hand,
    sparse_brackets,
    triple_jacobi_witness,
    u_algebra_over_gaussians,
)
from randgen import random_two_step_nilpotent, transported_algebra


def unit(n, i):
    return [1 if j == i else 0 for j in range(n)]


def test_su2_cross_product_table():
    g = su2()
    e1, e2, e3 = unit(3, 0), unit(3, 1), unit(3, 2)
    assert bracket(g, e1, e2) == tuple(map(Fraction, e3))
    assert bracket(g, e2, e3) == tuple(map(Fraction, e1))
    assert bracket(g, e3, e1) == tuple(map(Fraction, e2))
    assert bracket(g, e2, e1) == tuple(map(Fraction, [0, 0, -1]))


def test_bracket_is_cross_product_randomized():
    g = su2()
    rng = random.Random(3)
    for _ in range(100):
        x = [rng.randint(-4, 4) for _ in range(3)]
        y = [rng.randint(-4, 4) for _ in range(3)]
        cross = (
            x[1] * y[2] - x[2] * y[1],
            x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0],
        )
        assert bracket(g, x, y) == tuple(map(Fraction, cross))


def test_jacobi_holds_for_shipped_algebras():
    for g in [su2(), abelian(4), so_algebra(3), so_algebra(4), so_algebra(5), u_algebra(2), u_algebra(3)]:
        assert _jacobi_witness(g) is None and triple_jacobi_witness(g) is None, g.name


def test_matrix_constructors_match_the_hand_built_ones():
    for n in range(14):
        assert so_algebra(n) == so_algebra_by_hand(n), n
    for n in range(1, 6):
        assert u_algebra(n) == u_algebra_over_gaussians(n), n


def test_matrix_algebra_reads_brackets_in_the_given_basis():
    # sl(2) in the basis E_12, E_21, H = E_11 - E_22: [E, F] = H, [H, E] = 2E, [H, F] = -2F
    e, f, h = {(1, 2): 1}, {(2, 1): 1}, {(1, 1): 1, (2, 2): -1}
    g = _matrix_algebra("sl2", [e, f, h])
    assert dict(g.brackets) == {(1, 2): (0, 0, 1), (1, 3): (-2, 0, 0), (2, 3): (0, 2, 0)}
    # [E_12, E_21] = E_11 - E_22 leaves the span of E_12 and E_21
    with pytest.raises(ValueError, match="not closed under the commutator"):
        _matrix_algebra("open", [e, f])


def test_jacobi_violation_witness():
    bad = LieAlgebra.from_brackets(
        "bad", 3, {(1, 2): [0, 0, 1], (1, 3): [0, 0, 1], (2, 3): [1, 0, 0]}
    )
    assert _jacobi_witness(bad) == triple_jacobi_witness(bad) == (1, 2, 3)
    e1, e2, e3 = unit(3, 0), unit(3, 1), unit(3, 2)
    cyclic = ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2))
    assert any(map(sum, zip(*(bracket(bad, bracket(bad, x, y), z) for x, y, z in cyclic))))


def test_jacobi_matches_definition_on_random_triples():
    # trilinearity: Jacobi on basis triples implies Jacobi on arbitrary vectors
    g = so_algebra(4)
    rng = random.Random(9)
    for _ in range(100):
        x, y, z = ([rng.randint(-2, 2) for _ in range(g.dim)] for _ in range(3))
        j = tuple(
            a + b + c
            for a, b, c in zip(
                bracket(g, bracket(g, x, y), z),
                bracket(g, bracket(g, y, z), x),
                bracket(g, bracket(g, z, x), y),
            )
        )
        assert not any(j)


def test_subalgebra_checks():
    g = su2()
    assert Subalgebra.span(g, [[0, 0, 1]]).dim == 1
    h = coordinate_subalgebra(g, [3], "circle")
    assert h.dim == 1
    with pytest.raises(ValueError, match="not closed"):
        Subalgebra.span(g, [[1, 0, 0], [0, 1, 0]])


def test_su2_has_no_2dim_subalgebra_randomized():
    # cross product of independent vectors is orthogonal to both, so a random
    # plane is never closed under the bracket
    g = su2()
    rng = random.Random(17)
    found = 0
    for _ in range(200):
        v = [rng.randint(-5, 5) for _ in range(3)]
        w = [rng.randint(-5, 5) for _ in range(3)]
        if SubspaceBasis.span([v, w], 3).dim != 2:
            continue
        found += 1
        with pytest.raises(ValueError, match="not closed"):
            Subalgebra.span(g, [v, w])
    assert found > 150


def test_normalizer_of_circle_in_su2():
    g = su2()
    h = coordinate_subalgebra(g, [3])
    assert normalizer(g, h) == h.basis


def test_normalizer_contains_subalgebra_so4():
    g = so_algebra(4)
    h = coordinate_subalgebra(g, [1, 2, 4], "so3")  # A12, A13, A23
    n = normalizer(g, h)
    assert contains_subspace(n, h.basis)


def test_automorphism_accept_and_reject():
    g = su2()
    good = RationalMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    assert is_automorphism(g, good)
    bad = RationalMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert not is_automorphism(g, bad)
    with pytest.raises(ValueError):
        LieAutomorphism.create(g, bad)


def test_automorphism_preserves_subalgebra():
    g = su2()
    aut = LieAutomorphism.create(g, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    h = coordinate_subalgebra(g, [3])
    assert h.basis.coordinate_matrix(aut.matrix.mul(h.basis.matrix)) is not None
    cycle = LieAutomorphism.create(g, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert h.basis.coordinate_matrix(cycle.matrix.mul(h.basis.matrix)) is None


def test_so3_Aij_basis_brackets():
    g = so_algebra(3)  # basis A12, A13, A23
    assert bracket(g, unit(3, 0), unit(3, 1)) == tuple(map(Fraction, [0, 0, -1]))
    assert bracket(g, unit(3, 0), unit(3, 2)) == tuple(map(Fraction, [0, 1, 0]))
    assert bracket(g, unit(3, 1), unit(3, 2)) == tuple(map(Fraction, [-1, 0, 0]))


def test_u2_expected_brackets():
    g = u_algebra(2)  # basis D1, D2, S12, T12
    d1, d2, s, t = (unit(4, i) for i in range(4))
    assert bracket(g, d1, s) == tuple(map(Fraction, [0, 0, 0, 1]))   # [D1,S12] = T12
    assert bracket(g, d1, t) == tuple(map(Fraction, [0, 0, -1, 0]))  # [D1,T12] = -S12
    assert bracket(g, d1, d2) == tuple(map(Fraction, [0, 0, 0, 0]))
    assert bracket(g, s, t) == tuple(map(Fraction, [2, -2, 0, 0]))   # 2(D1 - D2)


def test_u_subalgebra_embeddings():
    g3 = u_algebra(3)
    # basis order D1,D2,D3,S12,S13,S23,T12,T13,T23: u(2) = D1,D2,S12,T12
    h = coordinate_subalgebra(g3, [1, 2, 4, 7], "u2")
    assert h.dim == 4


def test_transported_structure_keeps_jacobi_randomized():
    # conjugating the bracket by an invertible matrix preserves Jacobi
    rng = random.Random(23)
    g = su2()
    count = 0
    while count < 100:
        p = RationalMatrix.from_rows([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        try:
            pinv = p.inverse()
        except ValueError:
            continue
        count += 1
        cols = p.columns()
        table = {}
        for i in range(1, 4):
            for j in range(i + 1, 4):
                table[(i, j)] = apply(pinv, bracket(g, cols[i - 1], cols[j - 1]))
        moved = LieAlgebra.from_brackets("moved", 3, table)
        assert _jacobi_witness(moved) is None


def test_reflection_signs_normalize_so_pairs():
    # diag(eps_i * eps_j) with eps = (1,..,1,-1,-1) is an automorphism
    # preserving the so(l) block, for l = 2, 3, 4
    from eqss.liealg import so_pairs

    for l in (2, 3, 4):
        n = l + 1
        g = so_algebra(n)
        eps = [1] * (l - 1) + [-1, -1]
        diag = [eps[i - 1] * eps[j - 1] for (i, j) in so_pairs(n)]
        m = RationalMatrix.from_rows(
            [[diag[a] if a == b else 0 for b in range(g.dim)] for a in range(g.dim)]
        )
        assert is_automorphism(g, m)
        sub_idx = [k + 1 for k, (i, j) in enumerate(so_pairs(n)) if j <= l]
        h = coordinate_subalgebra(g, sub_idx, f"so{l}")
        assert h.basis.coordinate_matrix(LieAutomorphism.create(g, m).matrix.mul(h.basis.matrix)) is not None


def test_from_brackets_rejects_repeated_pairs():
    table = [((1, 2), [0, 0, 1]), ((1, 3), [0, -1, 0]), ((2, 3), [1, 0, 0])]
    assert LieAlgebra.from_brackets("su2", 3, table) == su2()
    for repeat in ([0, 0, 0], [0, 0, 1], [0, 0, 2]):
        with pytest.raises(ValueError, match=r"\(1,2\) is given more than once"):
            LieAlgebra.from_brackets("su2", 3, table + [((1, 2), repeat)])


@pytest.mark.parametrize("dim", [3.0, Fraction(3), True], ids=repr)
def test_from_brackets_refuses_a_dimension_that_is_not_an_int(dim):
    # 3.0 used to pass every range and length check and give an algebra whose dim is 3.0
    table = {(1, 2): [0, 0, 1], (2, 3): [1, 0, 0], (1, 3): [0, -1, 0]}
    assert LieAlgebra.from_brackets("su2", 3, table) == su2()
    with pytest.raises(ValueError, match=re.escape(f"dim must be an int >= 0, got {dim!r}")):
        LieAlgebra.from_brackets("su2", dim, table)


@pytest.mark.parametrize("index", [1.5, 2.0, Fraction(2), True, 0], ids=repr)
def test_coordinate_subalgebra_refuses_an_index_that_is_not_an_int_from_1(index):
    # 1.5 used to be stored as the basis row 0.5, and True read as e1
    assert coordinate_subalgebra(so_algebra(3), [1]).dim == 1
    with pytest.raises(ValueError, match=re.escape(f"basis indices[0] must be an int >= 1, got {index!r}")):
        coordinate_subalgebra(so_algebra(3), [index])


def test_from_brackets_gives_one_table_for_every_spelling_of_a_row():
    """as_vector keeps an all-int row as it is and coerces a row with a
    bool, a Fraction or a "p/q" string, so each spelling gives the table of
    the int row, with ints wherever a constant is integral."""
    want = (((1, 2), ((3, 2),)), ((1, 3), ((1, 1), (2, -1))), ((2, 3), ((3, Fraction(1, 2)),)))
    spellings = {
        "int": {(1, 2): [0, 0, 2], (1, 3): (1, -1, 0), (2, 3): [0, 0, Fraction(1, 2)]},
        "bool": {(1, 2): [False, 0, 2], (1, 3): [True, -1, False], (2, 3): [False, 0, Fraction(1, 2)]},
        "Fraction": {(1, 2): [0, 0, Fraction(2, 1)], (1, 3): [Fraction(1), Fraction(-1), 0],
                     (2, 3): [Fraction(0), 0, Fraction(1, 2)]},
        "p/q": {(1, 2): ["0", "0", "4/2"], (1, 3): ["1", " -1/1", "0/3"], (2, 3): ["0", "0", "1/2"]},
    }
    for name, table in spellings.items():
        g = LieAlgebra.from_brackets("x", 3, table)
        assert g.table == want, name
        constants = [c for _, terms in g.table for _, c in terms]
        assert [type(c) for c in constants] == [int, int, int, Fraction], name
    with pytest.raises(ValueError, match=r"bracket \[e1,e2\] has 2 coefficients, expected 3"):
        LieAlgebra.from_brackets("x", 3, {(1, 2): [0, 1]})
    with pytest.raises(ValueError, match=r"bracket \[e1,e2\] has 2 coefficients, expected 3"):
        LieAlgebra.from_brackets("x", 3, {(1, 2): [True, 1]})
    with pytest.raises(TypeError, match="not an exact rational: 1.5"):
        LieAlgebra.from_brackets("x", 3, {(1, 2): [0, 0, 1.5]})
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        LieAlgebra.from_brackets("x", 3, {(1, 2): [0, 0, "one"]})


def dense_sources():
    """(algebra, the dense bracket vectors it was built from or must equal):
    so(n) and u(n) against their hand-built constructors, the shipped
    library, and random bases, unimodular and rescaled (Fraction constants)."""
    from eqss.documents import builtin_text, parse_document

    rng = random.Random(19)
    cases = [(so_algebra(n), so_algebra_by_hand(n).brackets) for n in range(14)]
    cases += [(u_algebra(n), u_algebra_over_gaussians(n).brackets) for n in range(1, 6)]
    library = parse_document(builtin_text("library")).algebras
    cases += [(g, g.brackets) for g in library.values()]
    for g in [su2(), so_algebra(4), u_algebra(2), *library.values()]:
        for scale in (1, 2, 3):
            p = RationalMatrix.from_rows(
                [[scale if a == b else rng.randint(-1, 1) * (a < b) for b in range(g.dim)] for a in range(g.dim)]
            )
            cols, pinv = p.columns(), p.inverse()
            table = {
                (i, j): apply(pinv, bracket(g, cols[i - 1], cols[j - 1]))
                for i in range(1, g.dim + 1) for j in range(i + 1, g.dim + 1)
            }
            cases.append((LieAlgebra.from_brackets(f"{g.name}/{scale}", g.dim, table), table.items()))
    cases += [(g, g.brackets) for g in (transported_algebra(rng, so_algebra(5)), random_two_step_nilpotent(rng))]
    return cases


def test_stored_table_matches_the_sparse_brackets_oracle():
    """The table is the (k, c) table every consumer used to rebuild from the
    dense vectors: i < j, pairs and k increasing, nonzero constants only,
    each an int when integral; the lookup serves both orders."""
    fractions = 0
    for g, dense in dense_sources():
        oracle = sparse_brackets(types.SimpleNamespace(brackets=dense))
        assert g.table == tuple(sorted((ij, t) for ij, t in oracle.items() if ij[0] < ij[1] and t)), g.name
        assert g._lookup == {ij: t for ij, t in oracle.items() if t}, g.name
        constants = [c for _, terms in g.table for _, c in terms]
        assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in constants), g.name
        fractions += any(type(c) is Fraction for c in constants)
    assert fractions >= 6


def test_dense_view_round_trips_through_from_brackets():
    for g, _ in dense_sources():
        again = LieAlgebra.from_brackets(g.name, g.dim, g.brackets)
        assert again == g and hash(again) == hash(g) and again.table == g.table, g.name


def test_parsed_library_algebras_equal_and_hash_like_their_constructors():
    from eqss.documents import builtin_text, parse_document
    from eqss.forms import ce_complex

    doc = parse_document(builtin_text("library"))
    built = {"su2": su2(), "so3": so_algebra(3), "so4": so_algebra(4), "so5": so_algebra(5), "u2": u_algebra(2)}
    assert doc.algebras == built
    for name, g in built.items():
        assert hash(doc.algebras[name]) == hash(g), name
        assert ce_complex(doc.algebras[name]) is ce_complex(g), name  # one lru_cache entry
    assert doc.subalgebras["so4_in_so5"].algebra == so_algebra(5)


def dense_rank(rows):
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def dense_is_automorphism(g, m):
    """The definition on dense rows: m is invertible and [m e_i, m e_j] = m [e_i, e_j]."""
    n = g.dim
    rows = m.rows
    if m.shape != (n, n) or dense_rank(rows) != n:
        return False
    cols = [tuple(rows[i][j] for i in range(n)) for j in range(n)]

    def image(v):
        return tuple(sum((rows[i][k] * v[k] for k in range(n)), Fraction(0)) for i in range(n))

    return all(
        bracket(g, cols[i], cols[j]) == image(bracket(g, unit(n, i), unit(n, j)))
        for i in range(n)
        for j in range(i + 1, n)
    )


def so_conjugation(n, perm, signs):
    """Conjugation of so(n) by the signed permutation matrix e_i -> signs[i] e_perm[i]."""
    from eqss.liealg import so_pairs

    pairs = so_pairs(n)
    index = {p: k for k, p in enumerate(pairs)}
    cols = []
    for i, j in pairs:
        a, b, c = perm[i - 1] + 1, perm[j - 1] + 1, signs[i - 1] * signs[j - 1]
        if a > b:
            a, b, c = b, a, -c
        cols.append([c if k == index[(a, b)] else 0 for k in range(len(pairs))])
    return RationalMatrix.from_columns(cols)


def exp_ad(g, x):
    """exp(ad x) for a two-step nilpotent algebra, where (ad x)^3 = 0."""
    ad = RationalMatrix.from_columns([bracket(g, x, unit(g.dim, j)) for j in range(g.dim)])
    n = g.dim
    half = RationalMatrix.from_rows([[Fraction(1, 2) if i == j else 0 for j in range(n)] for i in range(n)])
    return matrix_sum(matrix_sum(RationalMatrix.identity(g.dim), ad), half.mul(ad.mul(ad)))


def transported_with(rng, g, auts):
    """g in a random basis T (randgen.transported_pair), with each automorphism A as T^-1 A T."""
    from randgen import transported_pair

    n = g.dim
    vecs = [unit(n, j) for j in range(n)] + [c for a in auts for c in a.columns()]
    g2, out = transported_pair(rng, g, vecs)
    t = RationalMatrix.from_columns(out[:n]).inverse()
    return g2, [RationalMatrix.from_columns(out[n * (k + 1):n * (k + 2)]).mul(t) for k in range(len(auts))]


def test_is_automorphism_matches_the_dense_definition_randomized():
    from randgen import random_two_step_nilpotent

    rng = random.Random(8123)
    accepted = rejected = 0
    for trial in range(16):
        kind = trial % 4
        if kind == 0:
            g = su2()
            auts = [RationalMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
                    RationalMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])]
        elif kind in (1, 2):
            n = 3 + kind
            g = so_algebra(n)
            auts = []
            for _ in range(2):
                perm = list(range(n))
                rng.shuffle(perm)
                auts.append(so_conjugation(n, perm, [rng.choice([1, -1]) for _ in range(n)]))
        else:
            g = random_two_step_nilpotent(rng)
            auts = [exp_ad(g, [rng.randint(-2, 2) for _ in range(g.dim)]) for _ in range(2)]
        g2, auts2 = transported_with(rng, g, auts)
        n = g2.dim
        for m in auts2:
            assert is_automorphism(g2, m) and dense_is_automorphism(g2, m)
            accepted += 1
            i, j = rng.randrange(n), rng.randrange(n)
            bump = RationalMatrix.from_rows([[rng.choice([1, -1, 2]) if (a, b) == (i, j) else 0
                                              for b in range(n)] for a in range(n)])
            cols = m.columns()
            cols[j] = cols[i] if i != j else [0] * n
            for bad in (matrix_sum(m, bump), matrix_sum(m, m), RationalMatrix.from_columns(cols), bump):
                got = is_automorphism(g2, bad)
                assert got == dense_is_automorphism(g2, bad)
                rejected += not got
    assert accepted == 32 and rejected >= 100
    # diagonal scalings of su2, plain and transported, fail at single pairs
    # of basis vectors, e.g. diag(2, 2, 1) only at (e1, e2)
    g = su2()
    for diag in itertools.product((1, -1, 2), repeat=3):
        d = RationalMatrix.from_rows([[diag[i] if i == j else 0 for j in range(3)] for i in range(3)])
        g2, (d2,) = transported_with(rng, g, [d])
        for alg, m in ((g, d), (g2, d2)):
            assert is_automorphism(alg, m) == dense_is_automorphism(alg, m)
        assert is_automorphism(g, d) == (diag[0] * diag[1] == diag[2] and diag[1] * diag[2] == diag[0]
                                         and diag[2] * diag[0] == diag[1])


def spans_subalgebra(g, vectors):
    """Whether `Subalgebra.span` accepts vectors."""
    try:
        Subalgebra.span(g, vectors)
    except ValueError as e:
        assert "not closed" in str(e)
        return False
    return True


def dense_is_subalgebra(g, vectors):
    span = SubspaceBasis.span(vectors, g.dim)
    vecs = span.vectors
    brackets = [bracket(g, x, y) for a, x in enumerate(vecs) for y in vecs[a + 1:]]
    return contains_subspace(span, SubspaceBasis.span(brackets, g.dim))


def dense_normalizer(g, h):
    """The kernel of the rows y . [e_i, v], for v in h's basis and y in its annihilator."""
    n = g.dim
    ann = kernel_basis(h.basis.matrix.transpose())
    rows = []
    for v in h.basis.vectors:
        images = [bracket(g, unit(n, i), v) for i in range(n)]
        rows += [[sum(yk * img[k] for k, yk in enumerate(y)) for img in images] for y in ann.vectors]
    return kernel_basis(RationalMatrix.from_rows(rows, n)) if rows else SubspaceBasis.full(n)


def closure(g, vectors):
    """The subalgebra generated by vectors."""
    span = SubspaceBasis.span(vectors, g.dim)
    while True:
        vecs = span.vectors
        bigger = SubspaceBasis.span(list(vecs) + [bracket(g, a, b) for a in vecs for b in vecs], g.dim)
        if bigger == span:
            return span
        span = bigger


def test_sparse_subalgebra_and_normalizer_match_the_dense_definition_randomized():
    rng = random.Random(37)
    algebras = [su2(), so_algebra(4), u_algebra(2), transported_algebra(rng, so_algebra(4)),
                transported_algebra(rng, u_algebra(2))] + [random_two_step_nilpotent(rng) for _ in range(4)]
    verdicts = []
    for g in algebras:
        for _ in range(8):
            vecs = [[rng.randint(-2, 2) if rng.random() < 0.5 else 0 for _ in range(g.dim)]
                    for _ in range(rng.randint(1, 3))]
            verdicts.append(spans_subalgebra(g, vecs))
            assert verdicts[-1] == dense_is_subalgebra(g, vecs)
            h = Subalgebra(g, closure(g, vecs))
            assert spans_subalgebra(g, h.basis.vectors)
            assert normalizer(g, h) == dense_normalizer(g, h)
    assert True in verdicts and False in verdicts
