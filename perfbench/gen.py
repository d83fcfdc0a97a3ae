"""Seeded input generators for the benchmark.

Everything here is plain Python over integers and Fractions, so the inputs
and the answers they carry are known without running the engine.  Every
generator takes an explicit random.Random; equal seeds give equal inputs.
"""

from __future__ import annotations

from fractions import Fraction


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)) if a[i][k]) for j in range(len(b[0]))]
            for i in range(len(a))]


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def random_unimodular_basis(rng, n, shears=2):
    """(T, T^-1): a signed permutation followed by `shears` unit shears.

    Columns of T are the new basis vectors in old coordinates.  Two shears
    make every algebra distinct and move coordinate subalgebras off the
    coordinate axes, while keeping the structure constants about as sparse
    as the coordinate basis, so the cost of one job varies little with the
    seed (dense random bases make an so5 job vary from 4 s to 19 s).
    """
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    t = [[Fraction(0)] * n for _ in range(n)]
    for i, p in enumerate(perm):
        t[p][i] = Fraction(signs[i])
    tinv = [list(row) for row in zip(*t)]  # signed permutations are orthogonal
    for _ in range(shears):
        a, b = rng.sample(range(n), 2)
        c = Fraction(rng.choice((1, -1)))
        s, sinv = _identity(n), _identity(n)
        s[a][b], sinv[a][b] = c, -c
        t, tinv = _matmul(t, s), _matmul(sinv, tinv)
    return t, tinv


def _bracket(table, n, x, y):
    acc = [Fraction(0)] * n
    for (i, j), coeffs in table:
        c = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        if c:
            for k, ck in enumerate(coeffs):
                if ck:
                    acc[k] += c * ck
    return acc


def transport(rng, brackets, dim, sub_vectors, aut_rows):
    """An algebra, subalgebra and automorphism rewritten in a random basis.

    brackets is the ((i, j), [e_i, e_j]) table of the algebra.  Returns the
    new bracket table {(i, j): coeffs}, the subalgebra spanned by T^-1 v,
    and the automorphism conjugated to T^-1 A T, so every known answer
    (Betti numbers, the sign of the reflection) carries over.
    """
    t, tinv = random_unimodular_basis(rng, dim)
    cols = [[t[r][c] for r in range(dim)] for c in range(dim)]
    table = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            br = _bracket(brackets, dim, cols[i], cols[j])
            table[(i + 1, j + 1)] = [sum(tinv[r][k] * br[k] for k in range(dim)) for r in range(dim)]
    subs = [[sum(tinv[r][k] * v[k] for k in range(dim)) for r in range(dim)] for v in sub_vectors]
    aut = _matmul(_matmul(tinv, [list(r) for r in aut_rows]), t) if aut_rows is not None else None
    return table, subs, aut


def random_filtered_complex(rng, dims=(8, 8, 8, 8, 8), max_weight=5):
    """(dims, differentials as row lists, weights, Betti numbers).

    Fixed degree dimensions keep the cost of one complex within about 15%
    of the mean (dimensions drawn up to 16 spread it over 4x).  The differential pairs basis vectors one to one (so the Betti numbers
    are the unpaired counts) and is then conjugated degreewise by random
    filtration-preserving changes of basis, which hides the pairing.
    """
    dims = list(dims)
    top = len(dims) - 1
    weights = [[rng.randint(0, max_weight) for _ in range(d)] for d in dims]
    used_tgt = [set() for _ in dims]
    betti = list(dims)
    diffs = [[[Fraction(0)] * dims[n] for _ in range(dims[n + 1])] for n in range(top)]
    for n in range(top):
        for j in range(dims[n]):
            if j in used_tgt[n] or rng.random() < 0.35:
                continue
            free = [i for i in range(dims[n + 1])
                    if i not in used_tgt[n + 1] and weights[n + 1][i] >= weights[n][j]]
            if not free:
                continue
            i = rng.choice(free)
            diffs[n][i][j] = Fraction(rng.choice((1, -1, 2, -2, 3)), rng.choice((1, 2)))
            used_tgt[n + 1].add(i)
            betti[n] -= 1
            betti[n + 1] -= 1
    changes = [_filtration_change(rng, ws) for ws in weights]
    conj = [_matmul(_matmul(changes[n + 1][0], diffs[n]), changes[n][1]) for n in range(top)]
    return dims, conj, weights, tuple(betti)


def _filtration_change(rng, ws):
    """(A, A^-1) with A mapping every F^p into itself (triangular in weight)."""
    d = len(ws)
    a, ainv = _identity(d), _identity(d)
    for i in range(d):
        s = Fraction(rng.choice((1, 1, 1, -1, 2)))
        a[i] = [s * x for x in a[i]]
        ainv = [[x / s if c == i else x for c, x in enumerate(row)] for row in ainv]
    for _ in range(d):
        i, j = rng.randrange(d), rng.randrange(d)
        if ws[i] <= ws[j]:
            continue
        c = Fraction(rng.randint(-2, 2))
        e, einv = _identity(d), _identity(d)
        e[i][j], einv[i][j] = c, -c
        a, ainv = _matmul(e, a), _matmul(ainv, einv)
    return a, ainv


def sphere_betti(l, top):
    """Betti numbers of S^l padded with zeros to degrees 0..top."""
    return tuple(int(k == 0 or k == l) for k in range(top + 1))


def convolve(a, b):
    """Betti numbers of a product (Kunneth over a field)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def euler(dims):
    return sum(d if k % 2 == 0 else -d for k, d in enumerate(dims))


def gysin_case(rng, admitted):
    """(l, basic dims B, totals M) with M admitted iff `admitted`.

    M = B (x) H(S^l) is the trivial sphere bundle, which every Gysin
    sequence admits.  Adding one to a single degree changes the Euler
    characteristic, and exactness forces chi(M) = (1 + (-1)^l) chi(B), so
    the perturbed totals are refuted.
    """
    l = rng.randint(1, 4)
    bt = rng.randint(2, 4)
    basic = [1] + [rng.randint(0, 2) for _ in range(bt - 1)] + [1]
    total = list(convolve(basic, sphere_betti(l, l)))
    if not admitted:
        total[rng.randrange(len(total))] += 1
    return l, basic, total


def wang_case(rng, admitted):
    """(codim, pair dims G, totals M) with M admitted iff `admitted`.

    With the connecting map zero, M^k = G^k + G^(k-codim), which the
    sequence admits; exactness forces chi(M) = (1 - (-1)^(codim-1)) chi(G),
    so adding one to a single degree refutes the totals.
    """
    codim = rng.choice((2, 3))
    s = rng.randint(2, 4)
    gh = [1] + [rng.randint(0, 2) for _ in range(s - 1)] + [1]
    if codim == 3:
        gh[1] = 0
    n = codim + s
    total = [(gh[k] if k <= s else 0) + (gh[k - codim] if 0 <= k - codim <= s else 0)
             for k in range(n + 1)]
    if not admitted:
        total[rng.randrange(len(total))] += 1
    return codim, gh, total


def betti_4manifold(rng, excluded):
    """Betti numbers (1, b1, b2, b1, 1); the s3-4m check excludes iff b2 >= 3."""
    b1 = rng.randint(0, 2)
    b2 = rng.randint(3, 6) if excluded else rng.randint(0, 2)
    return [1, b1, b2, b1, 1]


def cup_with_null_plane(rng, b2=3):
    """Cup matrices n u^T + u n^T, which vanish on the hyperplane n.x = 0."""
    while True:
        normal = [rng.randint(-1, 1) for _ in range(b2)]
        if any(normal):
            break
    mats = []
    for _ in range(rng.randint(1, 2)):
        while True:
            u = [rng.randint(-2, 2) for _ in range(b2)]
            m = [[normal[i] * u[j] + u[i] * normal[j] for j in range(b2)] for i in range(b2)]
            if any(any(r) for r in m):
                break
        mats.append(m)
    return {"b2": b2, "matrices": mats}


def definite_cup(rng, b2=4):
    """One diagonally dominant positive definite matrix: no null hyperplane."""
    m = [[0] * b2 for _ in range(b2)]
    for i in range(b2):
        m[i][i] = rng.randint(b2 + 1, b2 + 4)
        for j in range(i + 1, b2):
            m[i][j] = m[j][i] = rng.randint(-1, 1)
    return {"b2": b2, "matrices": [m]}


def is_null_plane(matrices, vectors):
    """Every cup matrix vanishes on every pair of the given vectors."""
    for m in matrices:
        for v in vectors:
            for w in vectors:
                if sum(v[i] * m[i][j] * w[j] for i in range(len(v)) for j in range(len(w))):
                    return False
    return True


def rank(rows):
    """Rank of a small rational matrix by Gaussian elimination."""
    rows = [list(map(Fraction, r)) for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r
