"""Seeded random instance generators shared across test modules.

Every generator takes an explicit random.Random so test runs stay
reproducible.  Filtered complexes come with independently known cohomology:
the differential is a matched pairing of basis vectors (so the Betti numbers
are just the unmatched counts) conjugated by filtration-preserving changes
of basis.
"""

from fractions import Fraction

from eqss.cohomology import GradedComplex
from eqss.liealg import LieAlgebra, LieAutomorphism, Subalgebra
from eqss.linalg import RationalMatrix
from eqss.spectral import FilteredComplex

from form_oracles import apply, bracket


def random_filtered_complex(rng, max_degrees=4, max_dim=5, max_weight=3):
    """A valid filtered complex together with its true cohomology dims."""
    top = rng.randint(1, max_degrees)
    dims = [rng.randint(0, max_dim) for _ in range(top + 1)]
    if not any(dims):
        dims[rng.randrange(top + 1)] = 1
    weights = [[rng.randint(0, max_weight) for _ in range(d)] for d in dims]
    used_source = [set() for _ in dims]
    used_target = [set() for _ in dims]
    entries = {}
    hdims = list(dims)
    for n in range(top):
        for j in range(dims[n]):
            if j in used_target[n] or rng.random() < 0.35:
                continue
            candidates = [
                i
                for i in range(dims[n + 1])
                if i not in used_target[n + 1]
                and i not in used_source[n + 1]
                and weights[n + 1][i] >= weights[n][j]
            ]
            if not candidates:
                continue
            i = rng.choice(candidates)
            entries[(n, j)] = (i, Fraction(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 2])))
            used_source[n].add(j)
            used_target[n + 1].add(i)
            hdims[n] -= 1
            hdims[n + 1] -= 1
    diffs = []
    for n in range(top):
        rows = [[Fraction(0)] * dims[n] for _ in range(dims[n + 1])]
        for (m, j), (i, c) in entries.items():
            if m == n:
                rows[i][j] = c
        diffs.append(RationalMatrix.from_rows([tuple(r) for r in rows], dims[n]))
    auts = [filtration_change_of_basis(rng, ws) for ws in weights]
    conj = []
    for n in range(top):
        conj.append(auts[n + 1].mul(diffs[n]).mul(auts[n].inverse()))
    fc = FilteredComplex.create(
        GradedComplex.create(tuple(dims), conj),
        tuple(tuple(ws) for ws in weights),
    )
    return fc, tuple(hdims)


def filtration_change_of_basis(rng, ws):
    """Invertible matrix preserving the weight filtration (triangular in weight)."""
    d = len(ws)
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = Fraction(rng.choice([1, 1, 1, -1, 2]))
    for i in range(d):
        for j in range(d):
            if i != j and ws[i] > ws[j] and rng.random() < 0.4:
                rows[i][j] = Fraction(rng.randint(-2, 2))
    return RationalMatrix.from_rows([tuple(r) for r in rows], d)


def random_unimodular(rng, n):
    m = RationalMatrix.identity(n)
    for _ in range(2 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        rows = [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)]
        rows[i][j] = Fraction(rng.randint(-2, 2))
        m = m.mul(RationalMatrix.from_rows([tuple(r) for r in rows], n))
    return m


def transported_algebra(rng, g, t=None):
    """The same algebra in a random basis (or that of t's columns): [x,y]_new = T^{-1}[Tx, Ty]."""
    return transported_pair(rng, g, (), t)[0]


def rescaled_algebra(rng, g):
    """g in a random basis scaled by 1, 2 or 3 per vector, so that its
    structure constants include Fractions."""
    scale = RationalMatrix.from_entries(g.dim, [[(j, rng.choice((1, 2, 3)))] for j in range(g.dim)])
    return transported_algebra(rng, g, random_unimodular(rng, g.dim).mul(scale))


def transported_pair(rng, g, vectors, t=None):
    """transported_algebra, plus the given vectors in the new coordinates T^{-1}v."""
    t = random_unimodular(rng, g.dim) if t is None else t
    tinv = t.inverse()
    table = {}
    for i in range(1, g.dim + 1):
        for j in range(i + 1, g.dim + 1):
            br = bracket(g, t.column(i - 1), t.column(j - 1))
            table[(i, j)] = apply(tinv, br)
    g2 = LieAlgebra.from_brackets(f"{g.name}-transported", g.dim, table)
    return g2, [apply(tinv, v) for v in vectors]


def change_basis(g, h, aut, t, name):
    """g, the subalgebra h and the automorphism aut in the basis of the
    columns of the invertible t: brackets T^{-1}[Tx, Ty], vectors T^{-1}v
    and the matrix T^{-1} A T."""
    n = g.dim
    tinv = t.inverse()
    table = {
        (i, j): apply(tinv, bracket(g, t.column(i - 1), t.column(j - 1)))
        for i in range(1, n + 1) for j in range(i + 1, n + 1)
    }
    g2 = LieAlgebra.from_brackets(name, n, table)
    h2 = Subalgebra.span(g2, [apply(tinv, v) for v in h.basis.vectors])
    return g2, h2, LieAutomorphism.create(g2, tinv.mul(aut.matrix).mul(t))


def random_two_step_nilpotent(rng, max_dim=6):
    """Brackets of the first k generators land in the central tail."""
    n = rng.randint(3, max_dim)
    k = rng.randint(2, n - 1)
    table = {}
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if rng.random() < 0.6:
                vec = [0] * n
                for t in range(k + 1, n + 1):
                    vec[t - 1] = rng.randint(-2, 2)
                table[(i, j)] = vec
    return LieAlgebra.from_brackets("two-step", n, table)


def random_solvable(rng, max_dim=6, fractions=False):
    """R e_1 acting on the abelian ideal of e_2..e_n by a random matrix A:
    [e_1, e_j] = A e_j.  Jacobi holds for every A, and tr ad e_1 = tr A, so
    the algebra is unimodular exactly when tr A = 0, which half the draws
    force through the last diagonal entry."""
    n = rng.randint(2, max_dim)
    table = {(1, j): [0] + [random_rational(rng, fractions, 2) for _ in range(n - 1)] for j in range(2, n + 1)}
    if rng.random() < 0.5:
        table[(1, n)][n - 1] -= sum(table[(1, j)][j - 1] for j in range(2, n + 1))
    return LieAlgebra.from_brackets("solvable", n, table)


def random_rational(rng, fractions=False, span=3):
    """A small int, or with fractions=True sometimes a Fraction."""
    if fractions and rng.random() < 0.4:
        return Fraction(rng.randint(-span, span), rng.randint(1, span))
    return rng.randint(-span, span)


def random_symmetric(rng, n, fractions=False):
    """A symmetric n x n matrix of `random_rational` entries."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = random_rational(rng, fractions)
    return m


def form_null_on(rng, normal, fractions=False):
    """n u^T + u n^T for a random u: it vanishes on the hyperplane n . x = 0."""
    u = [random_rational(rng, fractions) for _ in normal]
    return [[a * y + x * b for b, y in zip(normal, u)] for a, x in zip(normal, u)]
