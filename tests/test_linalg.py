import random
import re
from fractions import Fraction
from math import gcd

import pytest

from eqss import linalg
from eqss.cohomology import cohomology, relative_model, restricted_action
from eqss.forms import ce_complex, wedge
from eqss.library import double_cover_base, sheet_swap_maps, so_pair, so_pair_reflection
from eqss.liealg import Subalgebra, so_algebra, so_pairs
from eqss.linalg import (
    GradedComplex,
    GroupBoundError,
    RationalMatrix,
    SubspaceBasis,
    as_fraction,
    as_vector,
    echelon,
    enumerate_group,
    fixed_subspace,
    image_basis,
    insert,
    kernel_and_image,
    kernel_basis,
    rank,
)
from eqss.records import FrozenRecord
from eqss.spectral import product_model, twist_by_deck

from form_oracles import (
    apply, complement_in, contains_subspace, copying_insert, matrix_sum, restricted_kernel, solve, subspace_sum,
)
from randgen import change_basis, random_unimodular, transported_pair


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
            assert not any(apply(m, v))


def test_solve_and_inverse():
    m = M([[1, 2], [3, 5]])
    x = solve(m, [5, 13])
    assert x is not None and apply(m, x) == (Fraction(5), Fraction(13))
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
    c = b.coordinate_matrix(RationalMatrix.from_columns([[2, 3, 5]]))
    assert c is not None
    recon = [sum(ci * vi for ci, vi in zip(c.column(0), col)) for col in zip(*b.vectors)]
    assert recon == [2, 3, 5]
    assert b.coordinate_matrix(RationalMatrix.from_columns([[1, 0, 0]])) is None


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
    message = "coordinate indices[0] must be an int >= 0, got -1" if idx == [-1] else "increasing"
    with pytest.raises(ValueError, match=re.escape(message)):
        SubspaceBasis.coordinate(3, idx)


@pytest.mark.parametrize("ambient, idx, message", [
    (3, [0.5], "coordinate indices[0] must be an int >= 0, got 0.5"),
    (3, [0, True], "coordinate indices[1] must be an int >= 0, got True"),
    (3, [Fraction(2)], "coordinate indices[0] must be an int >= 0, got Fraction(2, 1)"),
    (3.0, [0], "ambient must be an int >= 0, got 3.0"),
    (True, [], "ambient must be an int >= 0, got True"),
], ids=repr)
def test_coordinate_subspace_refuses_indices_and_ambients_that_are_not_ints(ambient, idx, message):
    # [0.5] used to be stored as the basis row 0.5, and True as row 1
    with pytest.raises(ValueError, match=re.escape(message)):
        SubspaceBasis.coordinate(ambient, idx)


# The dense integer elimination that `insert` replaced, kept as an
# independent reference: row swaps, cross-multiplication below each pivot,
# then back substitution, with a gcd renormalisation of large rows.
_BIG = 1 << 64


def _dense_renormalise(row, start, ncols):
    if max((abs(a) for a in row[start:]), default=0) > _BIG:
        g = 0
        for x in row:
            g = gcd(g, x)
        if g > 1:
            for j in range(start, ncols):
                row[j] //= g


def dense_rref(rows, ncols):
    mat = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g:
            mat.append([v // g for v in ints])
    pivots, nrows, rr = [], len(mat), 0
    for c in range(ncols):
        pr = next((i for i in range(rr, nrows) if mat[i][c]), None)
        if pr is None:
            continue
        mat[rr], mat[pr] = mat[pr], mat[rr]
        prow, pv = mat[rr], mat[rr][c]
        for i in range(rr + 1, nrows):
            row, v = mat[i], mat[i][c]
            if v:
                for j in range(c, ncols):
                    row[j] = pv * row[j] - v * prow[j]
                _dense_renormalise(row, c, ncols)
        pivots.append(c)
        rr += 1
        if rr == nrows:
            break
    for k in range(len(pivots) - 1, -1, -1):
        c, prow = pivots[k], mat[k]
        pv = prow[c]
        for i in range(k):
            row, v = mat[i], mat[i][c]
            if v:
                for j in range(pivots[i], ncols):
                    row[j] = pv * row[j] - v * prow[j]
                _dense_renormalise(row, pivots[i], ncols)
    return [[Fraction(x, mat[i][c]) for x in mat[i]] for i, c in enumerate(pivots)], tuple(pivots)


def dense_span(vectors, n):
    red, _ = dense_rref(vectors, n)
    return SubspaceBasis(RationalMatrix.from_columns(red, n))


def dense_kernel(m):
    red, pivots = dense_rref(m.rows, m.ncols)
    gens = []
    for f in (f for f in range(m.ncols) if f not in pivots):
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        gens.append(v)
    return dense_span(gens, m.ncols)


def dense_solve(m, b):
    red, pivots = dense_rref([list(row) + [b[i]] for i, row in enumerate(m.rows)], m.ncols + 1)
    if m.ncols in pivots:
        return None
    x = [Fraction(0)] * m.ncols
    for i, p in enumerate(pivots):
        x[p] = red[i][m.ncols]
    return tuple(x)


def dense_inverse(m):
    n = m.ncols
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m.rows)]
    red, pivots = dense_rref(aug, 2 * n)
    if pivots != tuple(range(n)):
        return None
    return RationalMatrix.from_rows(tuple(tuple(r[n:]) for r in red), n)


def random_matrices(rng, count):
    """Random rational matrices: empty, zero, rank-deficient, wide, tall and
    square, sparse and dense, with entries of up to 40 bits."""
    def entry(density, bits):
        if rng.random() >= density:
            return Fraction(0)
        return Fraction(rng.randint(-(1 << bits), 1 << bits), rng.choice([1, 1, 2, 3, 7, 12]))

    for i in range(count):
        shape = i % 6
        nr, nc = [(0, rng.randint(1, 6)), (rng.randint(1, 5), rng.randint(1, 6)),
                  (rng.randint(1, 4), rng.randint(5, 9)), (rng.randint(5, 9), rng.randint(1, 4)),
                  (rng.randint(1, 6), 0), (n := rng.randint(1, 6), n)][shape]
        density, bits = rng.choice([0.3, 0.6, 1.0]), rng.choice([2, 2, 8, 40])
        rows = [[entry(density, bits) for _ in range(nc)] for _ in range(nr)]
        if shape == 1:  # zero rows and a repeated combination make it rank-deficient
            rows.append([Fraction(0)] * nc)
            rows.append([2 * a - b / 3 for a, b in zip(rows[0], rows[-2])])
        yield RationalMatrix.from_rows(tuple(tuple(r) for r in rows), nc)


def dense_reduce(basis_rows, pivots, v):
    """v less its combination of reduced echelon rows at their pivots."""
    v = list(v)
    for row, p in zip(basis_rows, pivots):
        c = v[p]
        v = [a - c * b for a, b in zip(v, row)]
    return v


def check_subspace_operations(rng, s, rows, n):
    """subspace_sum, complement_in, contains_subspace and coordinate_matrix
    of s = span(rows) against dense eliminations."""
    extra = [[Fraction(rng.randint(-2, 2), rng.choice([1, 3])) for _ in range(n)] for _ in range(rng.randint(0, 3))]
    total = subspace_sum(s, SubspaceBasis.span(extra, n))
    assert total == dense_span(list(rows) + extra, n)
    assert contains_subspace(total, s)
    assert contains_subspace(s, total) == (len(dense_rref(list(rows) + extra, n)[1]) == s.dim)
    red, pivots = dense_rref(rows, n)
    left = [w for w in (dense_reduce(red, pivots, v) for v in total.vectors) if any(w)]
    assert complement_in(total, s) == dense_span(left, n)
    # coordinates of random combinations, then of a column outside s
    coeffs = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in red] for _ in range(rng.randint(0, 3))]
    cols = [[sum((c * row[j] for c, row in zip(cs, red)), Fraction(0)) for j in range(n)] for cs in coeffs]
    want = RationalMatrix.from_columns(coeffs, len(red))
    assert s.coordinate_matrix(RationalMatrix.from_columns(cols, n)) == want
    outside = next((e for e in SubspaceBasis.full(n).vectors
                    if len(dense_rref(list(rows) + [e], n)[1]) > len(pivots)), None)
    if outside is not None:
        assert s.coordinate_matrix(RationalMatrix.from_columns(cols + [outside], n)) is None
        assert not contains_subspace(s, SubspaceBasis.span([outside], n))


def test_pivot_insertion_matches_dense_elimination_randomized():
    rng = random.Random(31)
    for m in random_matrices(rng, 600):
        _, pivots = dense_rref(m.rows, m.ncols)
        assert rank(m) == len(pivots)
        assert kernel_basis(m) == dense_kernel(m)
        row_space = SubspaceBasis.span(m.rows, m.ncols)
        assert row_space == dense_span(m.rows, m.ncols)
        check_subspace_operations(rng, row_space, m.rows, m.ncols)
        assert image_basis(m) == dense_span(m.columns(), m.nrows)
        b = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m.nrows)]
        assert solve(m, b) == dense_solve(m, b)
        reachable = apply(m, [Fraction(rng.randint(-3, 3)) for _ in range(m.ncols)])
        assert solve(m, reachable) == dense_solve(m, reachable)
        if m.nrows == m.ncols and m.ncols:
            want = dense_inverse(m)
            if want is None:
                with pytest.raises(ValueError, match="singular"):
                    m.inverse()
            else:
                assert m.inverse() == want


def test_restricted_kernel_is_the_kernel_on_the_columns():
    rng = random.Random(32)
    for m in random_matrices(rng, 300):
        cols = sorted(rng.sample(range(m.ncols), rng.randint(0, m.ncols)))
        forced = [tuple(Fraction(int(i == j)) for i in range(m.ncols)) for j in range(m.ncols) if j not in cols]
        want = dense_kernel(RationalMatrix.from_rows(m.rows + tuple(forced), m.ncols))
        kernel, image = kernel_and_image(m, cols)
        assert kernel == want == restricted_kernel(m, cols)
        span = dense_span([m.column(j) for j in cols], m.nrows)
        assert sorted(image) == list(span.pivots)
        assert SubspaceBasis.from_echelon(image, m.nrows) == span


# Dense references for the sparse RationalMatrix: plain lists of rows.
def dense_mul(a, b, ncols):
    return [[sum((x * b[k][j] for k, x in enumerate(row)), Fraction(0)) for j in range(ncols)] for row in a]


def dense_transpose(a, ncols):
    return [[row[j] for row in a] for j in range(ncols)]


def as_rows(rows):
    return tuple(tuple(r) for r in rows)


def is_exact(x):
    """The number rule: an int, or a Fraction that is not integral (no float, no bool)."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def canonical(m):
    """m as stored: per column, increasing distinct rows in range, and values
    under the number rule: nonzero ints, or Fractions with denominator > 1."""
    for col in m.entries:
        assert [i for i, _ in col] == sorted({i for i, _ in col}) and all(0 <= i < m.nrows for i, _ in col)
        assert all(is_exact(x) and x for _, x in col)
    return m


def test_sparse_matrix_matches_dense_reference_randomized():
    rng = random.Random(33)
    mats = list(random_matrices(rng, 300))
    for m in mats:
        rows, nr, nc = [list(r) for r in m.rows], m.nrows, m.ncols
        assert m.shape == (len(rows), nc) and len(canonical(m).entries) == nc
        assert RationalMatrix.from_rows(rows, nc) == m
        assert RationalMatrix.from_columns(m.columns(), nr) == m
        assert [list(c) for c in m.columns()] == dense_transpose(rows, nc)
        assert all(m.column(j) == tuple(r[j] for r in rows) for j in range(nc))
        assert canonical(m.transpose()).rows == as_rows(dense_transpose(rows, nc))
        assert m.transpose() == RationalMatrix.from_rows(dense_transpose(rows, nc), nr)
        assert m.is_zero() == (not any(x for r in rows for x in r))
        v = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(nc)]
        assert apply(m, v) == tuple(sum((a * b for a, b in zip(r, v)), Fraction(0)) for r in rows)
        other = next(o for o in rng.sample(mats, len(mats)) if o.nrows == nc)
        assert canonical(m.mul(other)).rows == as_rows(dense_mul(rows, other.rows, other.ncols))
        same = next((o for o in rng.sample(mats, len(mats)) if o.shape == m.shape), m)
        pairs = list(zip(rows, same.rows))
        assert canonical(matrix_sum(m, same)).rows == as_rows([[a + b for a, b in zip(r, s)] for r, s in pairs])
        assert canonical(m.sub(same)).rows == as_rows([[a - b for a, b in zip(r, s)] for r, s in pairs])
        assert m.sub(m).is_zero() and m.sub(m) == RationalMatrix.zeros(nr, nc)
        if nr == nc and nc and dense_inverse(m) is not None:
            assert canonical(m.inverse()).rows == dense_inverse(m).rows
            assert m.mul(m.inverse()) == RationalMatrix.identity(nc)
    # == and hash are matrix equality: equal entries however they were built
    for m in mats:
        twin = RationalMatrix.from_columns(list(m.columns()), m.nrows)
        assert twin == m and hash(twin) == hash(m)
        assert RationalMatrix.from_entries(m.nrows, [reversed(col) for col in m.entries]) == m
        if not m.is_zero():
            j = next(j for j, col in enumerate(m.entries) if col)
            cols = m.columns()
            cols[j] = tuple(2 * x for x in cols[j])
            assert RationalMatrix.from_columns(cols, m.nrows) != m


def test_sparse_matrix_shapes_and_ragged_input():
    for nr, nc in ((0, 3), (3, 0), (0, 0), (2, 3)):
        z = RationalMatrix.zeros(nr, nc)
        assert z.shape == (nr, nc) and z.is_zero()
        assert z.rows == ((Fraction(0),) * nc,) * nr
        assert z.columns() == [(Fraction(0),) * nr] * nc
        assert z.transpose() == RationalMatrix.zeros(nc, nr)
        assert RationalMatrix.from_rows(z.rows, nc) == z
        assert RationalMatrix.from_columns(z.columns(), nr) == z
        assert apply(z, [1] * nc) == (Fraction(0),) * nr
        assert z.mul(RationalMatrix.zeros(nc, 2)) == RationalMatrix.zeros(nr, 2)
        assert rank(z) == 0 and kernel_basis(z) == SubspaceBasis.full(nc)
        assert image_basis(z) == SubspaceBasis.zero(nr)
    # an all-zero column between nonzero ones is stored empty
    m = M([[1, 0, 2], [0, 0, 3]])
    assert m.entries == (((0, Fraction(1)),), (), ((0, Fraction(2)), (1, Fraction(3))))
    assert m.column(1) == (Fraction(0), Fraction(0))
    with pytest.raises(ValueError, match="ragged rows"):
        M([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged columns"):
        RationalMatrix.from_columns([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged rows"):
        M([[1, 2]], ncols=3)
    with pytest.raises(ValueError, match="ragged columns"):
        RationalMatrix.from_columns([[1, 2]], nrows=3)
    with pytest.raises(ValueError, match="explicit row length"):
        M([])
    with pytest.raises(ValueError, match="explicit column length"):
        RationalMatrix.from_columns([])
    with pytest.raises(ValueError, match="shape"):
        m.mul(m)
    with pytest.raises(ValueError, match="shape"):
        m.sub(m.transpose())


def test_enumerate_group_order_with_a_repeated_generator():
    def dense_bfs(gens):
        # the breadth-first closure keyed on dense rows
        n = gens[0].ncols
        ident = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
        seen, frontier = {ident: None}, [ident]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    prod = as_rows(dense_mul(a, g.rows, n))
                    if prod not in seen:
                        seen[prod] = None
                        nxt.append(prod)
            frontier = nxt
        return list(seen)

    rot = M([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    flip = M([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    swap = M([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    for gens in ([rot, flip, rot], [rot, rot], [flip, swap, flip, rot], [swap, swap, swap]):
        group = enumerate_group(gens)
        assert [g.rows for g in group] == dense_bfs(gens)
        assert len(set(group)) == len(group)


def spelled(rng, x):
    """The rational x as one of the inputs the engine accepts: an int when
    integral, a Fraction (integral or not) or a 'p/q' string."""
    kind = rng.randrange(3)
    if kind == 0 and x.denominator == 1:
        return int(x)
    if kind == 1:
        return f" {x.numerator}/{x.denominator}"
    return Fraction(x)


def test_mixed_inputs_match_the_dense_fraction_reference_randomized():
    rng = random.Random(34)
    mats = list(random_matrices(rng, 200))
    for m in mats:
        frac = [[Fraction(x) for x in r] for r in m.rows]
        a = RationalMatrix.from_rows([[spelled(rng, x) for x in r] for r in frac], m.ncols)
        assert canonical(a) == m and a.rows == as_rows(frac)
        v = [spelled(rng, Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))) for _ in range(m.ncols)]
        got = apply(a, v)
        assert got == tuple(sum((x * Fraction(y) for x, y in zip(r, v)), Fraction(0)) for r in frac)
        assert all(is_exact(x) for x in got)
        other = next(o for o in rng.sample(mats, len(mats)) if o.nrows == m.ncols)
        b = RationalMatrix.from_columns([[spelled(rng, Fraction(x)) for x in c] for c in other.columns()],
                                        other.nrows)
        assert canonical(a.mul(b)).rows == as_rows(dense_mul(frac, other.rows, other.ncols))
        assert canonical(a.sub(m)).is_zero() and canonical(matrix_sum(a, m)) == matrix_sum(m, m)
        assert canonical(kernel_basis(a).matrix) == dense_kernel(m).matrix
        assert canonical(image_basis(a).matrix) == dense_span(m.columns(), m.nrows).matrix
        rhs = [spelled(rng, Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(m.nrows)]
        x = solve(a, rhs)
        assert x == dense_solve(m, [Fraction(as_fraction(y)) for y in rhs])
        assert x is None or all(is_exact(y) for y in x)
        if m.nrows == m.ncols and m.ncols and dense_inverse(m) is not None:
            assert canonical(a.inverse()) == dense_inverse(m)


def test_create_finds_d_squared_nonzero_in_the_last_column_only():
    d0 = M([[1, 0, 1], [-1, 0, 0]])
    d1 = M([[1, 1]])
    assert d1.mul(d0) == M([[0, 0, 1]])
    with pytest.raises(ValueError, match=r"d\^2 != 0 between degrees 0 and 2"):
        GradedComplex.create((3, 2, 1), [d0, d1])
    # the same product one degree up
    with pytest.raises(ValueError, match=r"d\^2 != 0 between degrees 1 and 3"):
        GradedComplex.create((1, 3, 2, 1), [M([[0], [0], [0]]), d0, d1])


def test_create_accepts_fraction_terms_that_cancel_only_in_the_sum():
    # 1/2 + 1/3 - 5/6 and 1 + 1 - 2 in both rows: every term and partial sum is nonzero
    d0 = M([[1, 2], [1, 3], [1, Fraction(12, 5)]])
    d1 = M([[Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6)], [Fraction(-1, 2), Fraction(-1, 3), Fraction(5, 6)]])
    cx = GradedComplex.create((2, 3, 2), [d0, d1])
    assert cx.differentials == (d0, d1) and d1.mul(d0).is_zero()


def test_as_vector_keeps_an_all_int_row_and_coerces_every_other():
    row = [0, -3, 10**30]
    kept = as_vector(row)
    assert kept == (0, -3, 10**30) and all(a is b for a, b in zip(kept, row))
    assert as_vector(x for x in row) == kept and as_vector(()) == ()
    for mixed in ([True, -3, 0], [1, Fraction(-6, 2), 0], ["1", "-3", "0/5"], [1, -3, False]):
        got = as_vector(mixed)
        assert got == (1, -3, 0) and [type(x) for x in got] == [int, int, int], mixed
    assert as_vector([0, "1/2"]) == (0, Fraction(1, 2))


# Values of each number kind the engine accepts; a mix takes each entry's
# kind at random, so its columns hold one kind, several, or ints and one other.
NUMBER_KINDS = {
    "int": lambda rng: rng.randint(-4, 4),
    "bool": lambda rng: rng.random() < 0.6,
    "integral Fraction": lambda rng: Fraction(2 * rng.randint(-4, 4), 2),
    "proper Fraction": lambda rng: Fraction(rng.randint(-4, 4), rng.choice((2, 3, 6))),
}
NUMBER_MIXES = [(kind,) for kind in NUMBER_KINDS] + [
    ("int", "bool"), ("int", "integral Fraction"), ("int", "proper Fraction"), tuple(NUMBER_KINDS)
]


def random_pairs(rng, nrows, kinds):
    """One column as (row, value) pairs in random order, zeros included."""
    rows = rng.sample(range(nrows), rng.randint(0, nrows))
    weights = [8] + [1] * (len(kinds) - 1)  # mostly the first kind: ints with an odd one out
    return [(i, NUMBER_KINDS[rng.choices(kinds, weights)[0]](rng)) for i in rows]


def dense(pairs, n):
    v = [0] * n
    for i, x in pairs:
        v[i] = x
    return v


def fraction_rref(vectors, n):
    """The reduced echelon basis of the span of dense vectors as sparse
    columns: Gauss-Jordan elimination in Fraction, each value through `as_fraction`."""
    rows = {}  # pivot -> reduced row
    for v in vectors:
        v = [Fraction(as_fraction(x)) for x in v]
        for p, row in rows.items():
            c = v[p]
            v = [a - c * b for a, b in zip(v, row)]
        p = next((k for k, x in enumerate(v) if x), None)
        if p is not None:
            v = [x / v[p] for x in v]
            rows = {q: [a - row[p] * b for a, b in zip(row, v)] for q, row in rows.items()}
            rows[p] = v
    return tuple(tuple((k, as_fraction(x)) for k, x in enumerate(rows[p]) if x) for p in sorted(rows))


def fraction_kernel(m):
    """The reduced echelon basis of {x : m x = 0}, from the Gauss-Jordan rows of m."""
    red = [dense(row, m.ncols) for row in fraction_rref(m.rows, m.ncols)]
    pivots = [next(k for k, x in enumerate(row) if x) for row in red]
    gens = []
    for f in (f for f in range(m.ncols) if f not in pivots):
        v = [0] * m.ncols
        v[f] = 1
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        gens.append(v)
    return fraction_rref(gens, m.ncols)


# pivot entries 1, -1 and 3 in both reduced-echelon reads: from_echelon of
# one stored vector, and the kernel vector of each one-row matrix
PIVOT_COLUMNS = [[(0, 1), (2, 3)], [(0, -1), (2, 3)], [(1, 3), (2, 1)], [(1, Fraction(-3)), (2, Fraction(1, 2))]]
PIVOT_ROWS = [[1, 1], [1, -1], [2, 3], [Fraction(4, 2), Fraction(-9, 3)]]


@pytest.mark.parametrize("kinds", NUMBER_MIXES, ids="+".join)
def test_number_rule_fast_lane_matches_the_general_path(kinds, monkeypatch):
    # from_entries, echelon (insert), from_echelon and kernel_and_image against
    # as_fraction per entry and elimination in Fraction; every stored value obeys the rule
    seen = {False: set(), True: set()}  # pivot entries divided out, by whether the read is a kernel's
    reduced = linalg._reduced
    monkeypatch.setattr(linalg, "_reduced", lambda w, p, shift=0: seen[shift > 0].add(w[p]) or reduced(w, p, shift))
    rng = random.Random(36)
    cases = [(3, [col]) for col in PIVOT_COLUMNS] + [(1, [[(0, a)], [(0, b)]]) for a, b in PIVOT_ROWS]
    cases += [(nr, [random_pairs(rng, nr, kinds) for _ in range(rng.randint(1, 6))])
              for nr in (rng.randint(1, 6) for _ in range(150))]
    for nrows, cols in cases:
        m = RationalMatrix.from_entries(nrows, cols)
        assert canonical(m).entries == tuple(tuple(sorted((i, as_fraction(x)) for i, x in c if x)) for c in cols)
        basis = echelon(cols)
        assert all(type(x) is int for w in basis.values() for x in w.values())
        assert all(min(w) == p and gcd(*w.values()) == 1 for p, w in basis.items())
        span = fraction_rref([dense(c, nrows) for c in cols], nrows)
        assert canonical(SubspaceBasis.from_echelon(basis, nrows).matrix).entries == span
        kernel, image = kernel_and_image(m, range(m.ncols))
        assert canonical(kernel.matrix).entries == fraction_kernel(m)
        assert SubspaceBasis.from_echelon(image, nrows).matrix.entries == span
    for entries in seen.values():
        assert {1, -1, 3} <= entries


INSERT_MIXES = [("int",), ("int", "proper Fraction"), ("proper Fraction",)]


@pytest.mark.parametrize("kinds", INSERT_MIXES, ids="+".join)
def test_in_place_insert_matches_the_copying_path(kinds):
    # up to twice as many vectors as the width, so later ones reduce to zero
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randint(1, 10)
        new, old = {}, {}
        for _ in range(rng.randint(1, 2 * n)):
            col = random_pairs(rng, n, kinds)
            assert insert(new, col) == copying_insert(old, col)
            assert new == old  # after every insert, so a stray in-place write shows before it compounds
        assert all(type(x) is int for w in new.values() for x in w.values())


@pytest.mark.parametrize("kinds", INSERT_MIXES, ids="+".join)
def test_a_copy_taken_midway_is_unchanged_by_later_inserts(kinds):
    # spectral._presented keeps such a shallow copy and _new_pivots inserts into one
    rng = random.Random(38)
    for _ in range(200):
        n = rng.randint(1, 10)
        cols = [random_pairs(rng, n, kinds) for _ in range(2 * n)]
        basis = echelon(cols[:n])
        kept, frozen = dict(basis), {p: dict(w) for p, w in basis.items()}
        other = dict(basis)
        for col in cols[n:]:
            insert(basis, col)
            insert(other, col)
        assert kept == frozen and all(basis[p] is w and other[p] is w for p, w in kept.items())


def test_back_substitution_replaces_stored_vectors_and_changes_none_in_place():
    # cohomology keeps each degree's echelon basis, which from_echelon rewrites
    rng = random.Random(39)
    rewritten = 0
    for _ in range(200):
        n = rng.randint(1, 10)
        basis = echelon(random_pairs(rng, n, ("int", "proper Fraction")) for _ in range(n))
        kept, frozen = dict(basis), {p: dict(w) for p, w in basis.items()}
        SubspaceBasis.from_echelon(basis, n)
        assert kept == frozen
        rewritten += basis != frozen
    assert rewritten > 100


def coordinate_pair(case):
    """(so(4), 0); (so(n+1), so(n)) for the sphere S^n; or so(n) over its coordinate so(n-2) for V(n, 2)."""
    if case == "so(4)":
        return so_algebra(4), []
    if case.startswith("S^"):
        g, h = so_pair(int(case[2:]))
        return g, h.basis.vectors
    n = int(case[2])
    return so_algebra(n), [[int(k == j) for k in range(n * (n - 1) // 2)]
                           for j, (_, b) in enumerate(so_pairs(n)) if b <= n - 2]


@pytest.mark.parametrize("case", ["so(4)", "S^3", "V(4,2)", "V(5,2)"])
def test_kernels_and_images_match_the_copying_path_on_random_basis_pairs(case, monkeypatch):
    # each pair in the random bases of seeds 95-97: the relative model, and the kernel
    # and image of each of its differentials and their transposes, under either insert
    g, h = coordinate_pair(case)
    for seed in (95, 96, 97):
        g2, vectors = transported_pair(random.Random(seed), g, h)
        h2 = Subalgebra.span(g2, vectors, "h")
        model = relative_model(g2, h2)
        mats = [m for d in model.complex.differentials for m in (d, d.transpose())]
        new = [(kernel_basis(m), image_basis(m)) for m in mats]
        with monkeypatch.context() as patched:
            patched.setattr(linalg, "insert", copying_insert)
            assert [(kernel_basis(m), image_basis(m)) for m in mats] == new
            assert relative_model(g2, h2) == model
        assert any(i.dim for _, i in new) != case.startswith("S^")  # a sphere's d is zero


def test_number_rule_at_the_boundary():
    assert [as_fraction(x) for x in (3, Fraction(6, 2), "6/3", " -4/2 ")] == [3, 3, 2, -2]
    assert all(type(as_fraction(x)) is int for x in (3, Fraction(6, 2), "6/3", True))
    assert type(as_fraction("1/2")) is Fraction and as_fraction(Fraction(2, 4)) == Fraction(1, 2)
    for bad in (1.0, 0.5, float("nan")):
        with pytest.raises(TypeError, match="not an exact rational"):
            as_fraction(bad)
        with pytest.raises(TypeError, match="not an exact rational"):
            as_vector([1, bad])
        with pytest.raises(TypeError, match="not an exact rational"):
            RationalMatrix.from_rows([[bad]])


def numbers(obj):
    """Every number reachable from obj through the slots of records (caches
    included), tuples, lists and dict keys and values.  Any other type but
    str and None is an error, so no field can be skipped unseen."""
    if isinstance(obj, (int, float, Fraction)):
        yield obj
    elif isinstance(obj, FrozenRecord):
        for cls in type(obj).__mro__:
            for name in cls.__dict__.get("__slots__", ()):
                if name == "_hash":  # the cached hash: unset, or an int that is no rational of the record
                    assert type(getattr(obj, name, 0)) is int
                else:
                    yield from numbers(getattr(obj, name))
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from numbers(x)
    elif isinstance(obj, dict):
        for k, x in obj.items():
            yield from numbers(k)
            yield from numbers(x)
    elif not (obj is None or isinstance(obj, str)):
        raise TypeError(f"numbers() does not know {type(obj).__name__}")


def test_number_walk_sees_every_slot_and_refuses_unknown_types():
    m = RationalMatrix(2, ((), ((0, 0.5), (1, Fraction(1, 3)))))
    assert list(numbers(m)) == [2, 0, 0.5, 1, Fraction(1, 3)]
    hash(m)  # caches the hash in the base's slot, which the walk passes over
    assert list(numbers(m)) == [2, 0, 0.5, 1, Fraction(1, 3)]
    res = cohomology(GradedComplex.create((1, 1), (RationalMatrix.zeros(1, 1),)))
    before = list(numbers(res))
    res.coboundary(1)  # fills the cache slot, which the walk reads too
    assert len(list(numbers(res))) > len(before)
    for unknown in (object(), range(3), frozenset({1}), b"1"):
        with pytest.raises(TypeError, match="does not know"):
            list(numbers([1, unknown]))


def transported(rng, g, h, aut):
    """g, h and aut in a random basis, the columns of t.  det t is not +-1,
    so fractional structure constants appear."""
    n = g.dim
    scale = RationalMatrix.from_entries(n, [[(j, rng.choice((1, 2, 3)))] for j in range(n)])
    return change_basis(g, h, aut, random_unimodular(rng, n).mul(scale), f"{g.name}-scaled")


@pytest.mark.parametrize("case", ["so3/so2", "so5/so4", "so4/so3 scaled"])
def test_engine_results_obey_the_number_rule(case):
    l = {"so3/so2": 2, "so5/so4": 4, "so4/so3 scaled": 3}[case]
    g, h = so_pair(l)
    aut = so_pair_reflection(l)
    if case.endswith("scaled"):
        g, h, aut = transported(random.Random(35), g, h, aut)
    model = relative_model(g, h)
    res = cohomology(model.complex)
    values = list(numbers([ce_complex(g), model, res, [res.coboundary(k) for k in range(len(res.dims))], restricted_action(model, aut)]))
    assert [x for x in values if not is_exact(x)] == []
    assert any(type(x) is Fraction for x in values) == case.endswith("scaled")


def test_product_and_twist_obey_the_number_rule():
    g, h = so_pair(2)
    fc = product_model(double_cover_base(), g, h)
    twisted = twist_by_deck(fc, sheet_swap_maps(), so_pair_reflection(2))
    values = list(numbers([fc, twisted]))
    assert [x for x in values if not is_exact(x)] == []
    assert any(type(x) is Fraction for x in values)


def test_form_operations_obey_the_number_rule():
    a = RationalMatrix.from_entries(3, [[(0, Fraction(1, 2)), (1, "3/2")]])
    b = RationalMatrix.from_entries(3, [[(1, 2), (2, Fraction(4, 2))], [(0, Fraction(1, 3))]])
    ab = wedge(3, 1, a.entries[0], 1, b)
    assert ab.columns() == [(1, 1, 3), (Fraction(-1, 2), 0, 0)]
    assert wedge(3, 2, ab.entries[0], 2, b).shape == (0, 2)
    values = list(numbers([a, b, ab]))
    assert [x for x in values if not is_exact(x)] == [] and canonical(ab) == ab
