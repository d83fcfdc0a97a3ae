"""Exterior forms on a Lie algebra and the Chevalley-Eilenberg differential.

Basis k-forms are wedge monomials e^{i_1} ^ ... ^ e^{i_k} with strictly
increasing 1-based indices, enumerated lexicographically.  The wedge product
uses the shuffle-sign convention (sign of the permutation sorting the
concatenated index list; a repeated index kills the term).  Contraction obeys
iota_{e_j} (e^{i_1} ^ ... ^ e^{i_k}) = (-1)^{r-1} e^{i_1} ^ ... e^{i_r} hat
... ^ e^{i_k} when j = i_r.

The differential is fixed on generators by d e^k = - sum_{i<j} c^k_{ij}
e^i ^ e^j and extended as an antiderivation; equivalently it is the evaluation
formula whose sum runs over pairs 0 <= i < j <= n of argument slots.  With
this indexing d^2 = 0 is an identity (`GradedComplex.create` rechecks it,
and a failure aborts, since it would mean corrupted structure constants).
On a unimodular algebra (tr ad x = 0) the wedge pairing makes the complex
self-dual: `ce_complex` differentiates to the middle, `create` transposes.
A monomial is the int mask sum_r 1 << (i_r - 1).  A repeated index is a
nonzero `&`, and the sign of merging index i into t is the parity of the
indices of t it passes, a `bit_count`.  `_d_column` is the one column
routine: it peels off the lowest index, d(e^i ^ e^rest) = de^i ^ e^rest -
e^i ^ d(e^rest), reading d(e^rest) from a memo of the degree below; every
memo lives for one call.  It also decides the Jacobi identity, as
d(d e^k) = 0 on the generators (`_jacobi_witness`), and builds d on C(g, h)
from the free part of the bracket (`_free_part`), so d is built once per
route; `relative_subcomplex` first lifts the kernel of `_constraint`, h's
isotropy action, and raises AssertionError if d leaves the next basis.
`ce_complex` returns a `GradedComplex`, the type of every complex, built
degree by degree through one mask -> position table per degree
(`_positions`), and keeps the last few in a bounded cache.

Forms are the columns of a `RationalMatrix` everywhere, indexed by
monomial position, and every routine that maps forms (`pull_back`, `wedge`,
the relative lift and the relative d) goes through `_images`.  They
convert between a monomial and its position by binomial arithmetic (`_rank`,
`_unrank`), so they touch only the monomials a form uses; only code that
enumerates a whole degree builds a table of them.

Coefficients follow the number rule of `linalg` (an int when integral, a
Fraction otherwise).  Every sum starts from the int 0 and a sign is applied
by negation, never by multiplying with -1, so integral structure constants
give differentials and pullbacks computed in int arithmetic throughout.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Sequence

from .errors import require_counts
from .liealg import LieAlgebra, LieAutomorphism, Subalgebra, bracket_terms
from .linalg import (
    GradedComplex,
    Rational,
    RationalMatrix,
    SubspaceBasis,
    as_fraction,
    image_basis,
    kernel_basis,
)

__all__ = [
    "ce_complex",
    "pull_back",
    "relative_subcomplex",
    "wedge",
]


def _indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(1, mask.bit_length() + 1) if mask >> (i - 1) & 1)


def _positions(dim: int, degree: int) -> dict[int, int]:
    """Mask -> position for every monomial of the degree, in position order."""
    return {sum(c): p for p, c in enumerate(combinations([1 << i for i in range(dim)], degree))}


def _rank(dim: int, mask: int) -> int:
    """Position of the monomial mask among those of its degree, in lexicographic order.

    The monomials after it are counted by the combinatorial number system:
    sum_r C(dim - i_r, k - r) over its indices i_r, r = 0..k-1.
    """
    k = mask.bit_count()
    out, r = comb(dim, k) - 1, 0
    while mask:
        low = mask & -mask
        out -= comb(dim - low.bit_length(), k - r)
        mask ^= low
        r += 1
    return out


def _unrank(dim: int, degree: int, pos: int) -> int:
    """The mask of the monomial at position pos of the given degree, inverse to `_rank`."""
    x, c, out = comb(dim, degree) - 1 - pos, dim, 0
    for m in range(degree, 0, -1):
        c -= 1
        while comb(c, m) > x:
            c -= 1
        x -= comb(c, m)
        out |= 1 << (dim - c - 1)
    return out


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg complex


# A sparse form: monomial mask -> coefficient.
_Terms = dict[int, Rational]


def _generator_images(n: int, table) -> list[list[tuple[int, int, Rational]]]:
    """For each generator k (1-based), the terms of d e^k = -sum c^k_ij e^i^e^j.

    `table` lists ((i, j), the (k, c) terms of [e_i, e_j]) for pairs i < j,
    as `LieAlgebra.table` does; each term is (mask of e^i^e^j, mask of the
    indices strictly between i and j, -c).
    """
    out: list[list[tuple[int, int, Rational]]] = [[] for _ in range(n + 1)]
    for (i, j), terms in table:
        ab, between = 1 << (i - 1) | 1 << (j - 1), (1 << (j - 1)) - (1 << i)
        for k, c in terms:
            out[k].append((ab, between, -c))
    return out


def _d_column(dgen, m: int, memo: dict) -> _Terms:
    """d of the monomial m as a dict target mask -> coefficient, memoized in memo.

    For m = e^i ^ e^rest with i its lowest index the antiderivation rule
    gives d(e^m) = de^i ^ e^rest - e^i ^ d(e^rest), with d(e^rest) read back
    from memo.  A generator term e^a ^ e^b (a < b) of de^i merges into rest
    with the sign of the indices of rest strictly between a and b, and e^i
    goes into a monomial t of d(e^rest) with the sign of the indices of t
    below i; a repeated index kills the term.
    """
    got = memo.get(m)
    if got is not None:
        return got
    got = {}
    if m:
        bit = m & -m
        rest, below = m ^ bit, bit - 1
        for ab, between, c in dgen[bit.bit_length()]:
            if not rest & ab:
                got[rest | ab] = -c if (rest & between).bit_count() & 1 else c
        for t, c in _d_column(dgen, rest, memo).items():
            if not t & bit:
                t |= bit
                val = got.get(t, 0) + (c if (t & below).bit_count() & 1 else -c)
                if val:
                    got[t] = val
                else:
                    del got[t]
    memo[m] = got
    return got


def _jacobi_witness(g: LieAlgebra) -> tuple[int, ...] | None:
    """The least basis triple (i, j, l) at which g breaks the Jacobi identity, or None.

    Jacobi is d(d e^k) = 0 for every k: the coefficient of e^i ^ e^j ^ e^l
    in d(d e^k) is, up to sign, the k-th coordinate of the Jacobiator of
    e_i, e_j, e_l (Chevalley-Eilenberg).  So the failing triples are the
    monomials left in sum c d(e^a ^ e^b) over the terms of each d e^k.
    """
    dgen, memo, failing = _generator_images(g.dim, g.table), {}, set()
    for terms in dgen:
        acc: _Terms = {}
        for ab, _, c in terms:
            for t, x in _d_column(dgen, ab, memo).items():
                acc[t] = acc.get(t, 0) + c * x
        failing.update(t for t, x in acc.items() if x)
    return min(map(_indices, failing), default=None)


@lru_cache(maxsize=32)
def _require_jacobi(g: LieAlgebra) -> None:
    """Refuse g unless it satisfies the Jacobi identity; a passing verdict is cached."""
    witness = _jacobi_witness(g)
    if witness is not None:
        raise ValueError(f"algebra {g.name} violates the Jacobi identity at basis triple {witness}")


@lru_cache(maxsize=32)
def ce_complex(g: LieAlgebra) -> GradedComplex:
    """Build (and cache) the full complex; validates Jacobi (`create` checks d^2 = 0).

    differentials[k] maps degree k to degree k+1 (k = 0..dim-1); the top
    differential is the zero map and is not stored.  The memo of columns
    holds at most the degree below the one being built and that degree.
    Columns are sorted once; only non-int constants can sum to an integral Fraction.
    A unimodular g builds d_k for k < ceil(n/2) only, with the parity of
    sum i_r - k(k+1)/2, the sign of e^I ^ e^(I^c), per monomial I: da ^ b =
    (-1)^(k+1) a ^ db when a ^ b has degree n - 1, so `create` transposes the rest.
    """
    _require_jacobi(g)
    n, unimodular = g.dim, g.unimodular
    dgen = _generator_images(n, g.table)
    exact = all(type(c) is int for terms in dgen for _, _, c in terms)
    odd = sum(1 << i for i in range(0, n, 2))  # the odd indices 1, 3, ...
    mats, memo, degree, parities = [], {}, _positions(n, 0), [(0,)]
    for k in range((n + 1) // 2 if unimodular else n):
        pos = _positions(n, k + 1)
        cols = []
        for m in degree:
            d = _d_column(dgen, m, memo)
            col = sorted(zip(map(pos.__getitem__, d), d.values()))
            cols.append(tuple(col) if exact else tuple((p, as_fraction(c)) for p, c in col))
        mats.append(RationalMatrix(len(pos), tuple(cols)))
        memo = {m: memo[m] for m in degree}
        degree = pos
        parities.append(tuple(((m & odd).bit_count() + (k + 1) * (k + 2) // 2) & 1 for m in pos))
    return GradedComplex.create([comb(n, k) for k in range(n + 1)], mats, duality=parities if unimodular else None)


def _images(m: RationalMatrix, monomial, dim: int, degree: int, terms_of) -> RationalMatrix:
    """The columns of m, forms over the monomial masks monomial(i), mapped by
    mask -> terms_of(mask) into the forms of the given degree on Q^dim,
    indexed by position.

    Only the monomials a column actually uses are mapped.
    """
    out = []
    for col in m.entries:
        acc: _Terms = {}
        for i, a in col:
            for t, c in terms_of(monomial(i)).items():
                acc[t] = acc[t] + a * c if t in acc else a * c
        out.append([(_rank(dim, t), c) for t, c in acc.items()])
    return RationalMatrix.from_entries(comb(dim, degree), out)


def wedge(dim: int, p: int, a: Sequence[tuple[int, Rational]], q: int, b: RationalMatrix) -> RationalMatrix:
    """a ^ w for each column w of b: a is one p-form column, as its
    (position, value) entries, and b holds q-forms on Q^dim.

    The products are (p+q)-forms, the zero space when p + q > dim.  A
    monomial ma of a that misses mb goes to ma | mb; sorting a's indices
    then b's, each index i of mb passes the indices of ma above it.
    """
    require_counts((dim, p, q), "(dim, p, q)")
    terms = [(_unrank(dim, p, i), c) for i, c in a]

    def times(mb: int) -> _Terms:
        indices_b = _indices(mb)
        got: _Terms = {}
        for ma, c in terms:
            if not ma & mb:
                got[ma | mb] = -c if sum((ma >> i).bit_count() for i in indices_b) & 1 else c
        return got

    return _images(b, lambda i: _unrank(dim, q, i), dim, p + q, times)


def _wedge_images(images: Sequence[dict[int, Rational]], m: int, memo: dict) -> _Terms:
    """images[j_1] ^ ... ^ images[j_k] for the mask m of j_1 < ... < j_k,
    memoized on prefixes.

    images[j] is the 1-form sum_i a_i e^i, given as {i: a_i}; the result is
    a sparse k-form in the monomial basis.  e^i goes last into a monomial t,
    with the sign of the indices of t above i.
    """
    got = memo.get(m)
    if got is not None:
        return got
    got = {}
    if not m:
        got[0] = 1
    else:
        top = m.bit_length()
        for t, c in _wedge_images(images, m ^ 1 << (top - 1), memo).items():
            for i, a in images[top].items():
                bit = 1 << (i - 1)
                if t & bit:
                    continue
                tt = t | bit
                val = got.get(tt, 0) + (-(a * c) if (t >> i).bit_count() & 1 else a * c)
                if val:
                    got[tt] = val
                else:
                    got.pop(tt, None)
    memo[m] = got
    return got


def _free_part(x: dict[int, Rational], duals: dict[int, dict[int, Rational]]) -> list[tuple[int, Rational]]:
    """The nonzero (c, f^c(x)) over the free c, for x given by its terms in the e_i."""
    parts = ((c, sum(b * x[t] for t, b in dual.items() if t in x)) for c, dual in duals.items())
    return [(c, as_fraction(v)) for c, v in parts if v] if x else []


def _isotropy_action(g: LieAlgebra, h: Subalgebra):
    """The action of h on the 1-forms of g/h, plus those 1-forms.

    f_p is the echelon basis vector of h with pivot p, and f_c = e_c at every
    other column c, the free ones; the dual 1-form f^c = e^c - sum_p f_p[c]
    e^p vanishes on h.  L_{f_p} f^c = sum_a v f^a over the free a, with
    v = -f^c([f_p, f_a]), so only the brackets of h with the free e_a are
    taken.  Returns ({bit of c: its terms (p << dim g, bit of a, the bits
    strictly between a and c, v)}, {c: f^c in the e^i}).
    """
    n = g.dim
    # entries increase by row, so the first is the pivot
    pivots = {b[0][0] + 1: tuple((j + 1, a) for j, a in b) for b in h.basis.matrix.entries}
    duals = {c: {c: 1} for c in range(1, n + 1) if c not in pivots}
    for p, f in pivots.items():
        for c, a in f[1:]:
            duals[c][p] = -a
    action: dict[int, list] = {}
    for p, f in pivots.items():
        for a in duals:
            for c, v in _free_part(bracket_terms(g, f, ((a, 1),)), duals):
                between = (1 << (max(a, c) - 1)) - (1 << min(a, c))
                action.setdefault(1 << (c - 1), []).append((p << n, 1 << (a - 1), between, -v))
    return action, duals


def _constraint(action, horizontal: Sequence[int]) -> RationalMatrix:
    """The stacked L_{f_p} on the horizontal monomials m, a column each: a
    term with a != c moves f^c to f^a past the indices of m between them,
    alone at its row and under the number rule (`_free_part`); only the sums
    of the a = c terms, which keep m, need `as_fraction`.  A (p, monomial)
    row is numbered at its first nonzero entry; the kernel ignores order."""
    row_of, cols = {}, []
    for m in horizontal:
        col, stay = [], {}
        for c, terms in action.items():
            if m & c:
                for key, a, between, v in terms:
                    if a == c:
                        stay[key] = stay.get(key, 0) + v
                    elif not m & a:
                        row = row_of.setdefault(key | m ^ c | a, len(row_of))
                        col.append((row, -v if (m & between).bit_count() & 1 else v))
        col += [(row_of.setdefault(key | m, len(row_of)), as_fraction(v)) for key, v in stay.items() if v]
        cols.append(tuple(sorted(col)))
    return RationalMatrix(len(row_of), tuple(cols))


def relative_subcomplex(g: LieAlgebra, h: Subalgebra) -> tuple[list[SubspaceBasis], list[RationalMatrix]]:
    """Per-degree bases of C(g, h) = (Lambda(g/h)*)^h in the k-forms, and d_k.

    These are the horizontal forms w (iota_X w = 0 for X in h) killed by
    the isotropy action of h, since iota_X dw = L_X w for a horizontal w.
    In a basis f adapted to h (the echelon basis of h at its pivot columns,
    unit vectors elsewhere) the horizontal k-forms are spanned by the
    monomials m in the free f^c, at most C(dim g - dim h, k) of them.  The
    kernel of `_constraint` is lifted to the monomials in the e^i.  A basic
    form kills h, so on C(g, h) d f^c = -sum_{a<b free} f^c([e_a, e_b]) f^a
    ^ f^b (Chevalley-Eilenberg, Koszul); as f^m = e^m + terms at h's pivots,
    a form's f^m-coordinates are its entries at the free m.  Their d is
    lifted like the kernel and read in the next basis, the closure check,
    which raises AssertionError naming the degree an image leaves.
    """
    if h.algebra != g:
        raise ValueError("subalgebra belongs to a different algebra")
    _require_jacobi(g)
    n = g.dim
    action, duals = _isotropy_action(g, h)
    free = [1 << (c - 1) for c in sorted(duals)]
    images = [duals.get(j, {}) for j in range(n + 1)]
    dgen = _generator_images(n, [(ij, _free_part(dict(t), duals)) for ij, t in g.table if set(ij) <= duals.keys()])
    memo, dmemo, spaces, diffs, below = {}, {}, [], [], []
    for k in range(n + 1):
        horizontal = [sum(c) for c in combinations(free, k)]
        if not horizontal:  # past dim g/h: no forms, and d of the top degree lands on none
            spaces.append(SubspaceBasis.zero(comb(n, k)))
            diffs.append(RationalMatrix.zeros(0, spaces[-2].dim))
            continue
        lifted = _images(kernel_basis(_constraint(action, horizontal)).matrix, horizontal.__getitem__, n, k,
                         lambda m: _wedge_images(images, m, memo))
        spaces.append(image_basis(lifted))
        if k:  # d of the degree below, read at its free monomials
            mask_at = {_rank(n, m): m for m in below}
            entries = (tuple((p, x) for p, x in col if p in mask_at) for col in spaces[-2].matrix.entries)
            d = _images(RationalMatrix(comb(n, k - 1), tuple(entries)), mask_at.__getitem__, n, k,
                        lambda m: _d_column(dgen, m, dmemo))
            diffs.append(spaces[-1].coordinate_matrix(
                _images(d, lambda i: _unrank(n, k, i), n, k, lambda m: _wedge_images(images, m, memo))))
            if diffs[-1] is None:
                raise AssertionError(f"relative subcomplex is not closed under d: d_{k - 1} leaves degree {k}")
        below = horizontal
    return spaces, diffs


def _dual_images(aut: LieAutomorphism) -> list[dict[int, Rational]]:
    """images[j] = the pullback of e^j, the j-th column of the inverse transpose."""
    nmat = aut.matrix.inverse().transpose()
    return [{}] + [{i + 1: x for i, x in col} for col in nmat.entries]


def pull_back(aut: LieAutomorphism, forms: Sequence[RationalMatrix]) -> list[RationalMatrix]:
    """The pullback of each column of forms[k], a degree-k form, under the
    automorphism, for every k.

    The automorphism is inverted once, and the wedge products of the dual
    images are shared across the degrees.
    """
    n = aut.algebra.dim
    if len(forms) > n + 1:
        raise ValueError("degree out of range")
    images = _dual_images(aut)
    memo: dict = {}
    return [
        _images(m, lambda i, k=k: _unrank(n, k, i), n, k, lambda t: _wedge_images(images, t, memo))
        for k, m in enumerate(forms)
    ]
