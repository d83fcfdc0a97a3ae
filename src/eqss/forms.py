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
`_d_column` is the one column routine: it peels off the first index,
d(e^i ^ e^rest) = de^i ^ e^rest - e^i ^ d(e^rest), reads d(e^rest) from a
memo of the degree below and merges each term into a sorted monomial at a
bisection point, so no term is sorted.  Every memo lives for one call.
`ce_complex` returns the full complex as a `GradedComplex`, the same type as
every other complex, built degree by degree with the memo holding at most
the degree below, and keeps the last few complexes in a bounded cache.

Forms handed between engine calls are the columns of a `RationalMatrix`,
indexed by monomial position.  `differential_images`, `pull_back` and the
relative lift convert between a monomial and its position by binomial
arithmetic (`_rank`, `_unrank`), so they touch only the monomials a form
uses; only code that enumerates a whole degree builds a table of them.

Coefficients follow the number rule of `linalg` (an int when integral, a
Fraction otherwise).  Every sum starts from the int 0 and a sign is applied
by negation, never by multiplying with -1, so integral structure constants
give differentials and pullbacks computed in int arithmetic throughout;
`wedge`, `contract` and `form_from_terms` return coefficients under the rule.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Sequence

from .liealg import LieAlgebra, LieAutomorphism, Subalgebra, bracket_terms, jacobi_check, sparse_brackets
from .linalg import (
    GradedComplex,
    Rational,
    RationalMatrix,
    SubspaceBasis,
    as_fraction,
    as_vector,
    image_basis,
    kernel_basis,
)

__all__ = [
    "ContractionError",
    "ExteriorForm",
    "ce_complex",
    "contract",
    "differential_images",
    "form_from_terms",
    "multi_indices",
    "pull_back",
    "relative_subcomplex",
    "wedge",
]


class ContractionError(ValueError):
    pass


def multi_indices(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Lexicographic strictly increasing index tuples of the given degree."""
    if degree < 0 or degree > dim:
        return ()
    return tuple(combinations(range(1, dim + 1), degree))


def _index_position(dim: int, degree: int) -> dict[tuple[int, ...], int]:
    return {idx: p for p, idx in enumerate(multi_indices(dim, degree))}


def _rank(dim: int, idx: tuple[int, ...]) -> int:
    """Position of the monomial idx among those of its degree, in lexicographic order.

    The monomials after idx are counted by the combinatorial number system:
    sum_r C(dim - i_r, k - r) over the entries i_r, r = 0..k-1.
    """
    k = len(idx)
    return comb(dim, k) - 1 - sum(comb(dim - i, k - r) for r, i in enumerate(idx))


def _unrank(dim: int, degree: int, pos: int) -> tuple[int, ...]:
    """The monomial at position pos of the given degree, inverse to `_rank`."""
    x, c, out = comb(dim, degree) - 1 - pos, dim, []
    for m in range(degree, 0, -1):
        c -= 1
        while comb(c, m) > x:
            c -= 1
        x -= comb(c, m)
        out.append(dim - c)
    return tuple(out)


def sort_sign(seq: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
    """Sorted tuple and permutation sign, or None on a repeated index."""
    lst = list(seq)
    sign = 1
    # insertion sort; inversion count gives the parity
    for i in range(1, len(lst)):
        x = lst[i]
        j = i - 1
        while j >= 0 and lst[j] > x:
            lst[j + 1] = lst[j]
            j -= 1
            sign = -sign
        lst[j + 1] = x
    for a, b in zip(lst, lst[1:]):
        if a == b:
            return None
    return tuple(lst), sign


@dataclass(frozen=True)
class ExteriorForm:
    """An element of Lambda^degree of the dual of Q^dim."""

    dim: int
    degree: int
    coeffs: tuple[Rational, ...]

    def __post_init__(self):
        expected = comb(self.dim, self.degree) if self.degree >= 0 else 0
        if len(self.coeffs) != expected:
            raise ValueError(
                f"degree-{self.degree} form on dim {self.dim} needs "
                f"{expected} coefficients, got {len(self.coeffs)}"
            )

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def terms(self) -> list[tuple[tuple[int, ...], Rational]]:
        return [(_unrank(self.dim, self.degree, p), c) for p, c in enumerate(self.coeffs) if c]

    def add(self, other: "ExteriorForm") -> "ExteriorForm":
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise ValueError("form shape mismatch")
        return ExteriorForm(
            self.dim, self.degree, as_vector(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def scale(self, c) -> "ExteriorForm":
        f = as_fraction(c)
        return ExteriorForm(self.dim, self.degree, as_vector(f * x for x in self.coeffs))


def form_from_terms(dim: int, degree: int, terms: dict) -> ExteriorForm:
    pos = _index_position(dim, degree)
    coeffs = [0] * len(pos)
    for raw_idx, c in terms.items():
        srt = sort_sign(tuple(raw_idx))
        if srt is None:
            raise ValueError(f"repeated index in {raw_idx}")
        idx, sign = srt
        if idx not in pos:
            raise ValueError(f"index tuple {raw_idx} out of range for dim {dim}")
        c = as_fraction(c)
        coeffs[pos[idx]] += c if sign > 0 else -c
    return ExteriorForm(dim, degree, as_vector(coeffs))


def wedge(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    if a.dim != b.dim:
        raise ValueError("wedge of forms on different algebras")
    degree = a.degree + b.degree
    if degree > a.dim:
        return ExteriorForm(a.dim, degree, ())
    coeffs = [0] * comb(a.dim, degree)
    for ia, ca in a.terms():
        for ib, cb in b.terms():
            srt = sort_sign(ia + ib)
            if srt is None:
                continue
            idx, sign = srt
            coeffs[_rank(a.dim, idx)] += ca * cb if sign > 0 else -(ca * cb)
    return ExteriorForm(a.dim, degree, as_vector(coeffs))


def contract(x: Sequence, form: ExteriorForm) -> ExteriorForm:
    """Interior product iota_x; errors on degree-0 input."""
    if form.degree == 0:
        raise ContractionError("cannot contract a degree-0 form")
    xv = as_vector(x)
    if len(xv) != form.dim:
        raise ValueError("vector length does not match form dimension")
    coeffs = [0] * comb(form.dim, form.degree - 1)
    for idx, c in form.terms():
        for r, j in enumerate(idx):
            if xv[j - 1]:
                target = idx[:r] + idx[r + 1 :]
                coeffs[_rank(form.dim, target)] += -(xv[j - 1] * c) if r % 2 else xv[j - 1] * c
    return ExteriorForm(form.dim, form.degree - 1, as_vector(coeffs))


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg complex


# A sparse form: monomial index tuple -> coefficient.
_Terms = dict[tuple[int, ...], Rational]


def _require_jacobi(g: LieAlgebra) -> None:
    report = jacobi_check(g)
    if not report.ok:
        raise ValueError(
            f"algebra {g.name} violates the Jacobi identity at basis triple {report.witness}"
        )


def _generator_images(n: int, table) -> list[list[tuple[tuple[int, int], Rational]]]:
    """For each generator k (1-based), the terms of d e^k = -sum c^k_ij e^i^e^j.

    `table` maps pairs i < j to the sparse (k, c) terms of [e_i, e_j].
    """
    out: list[list[tuple[tuple[int, int], Rational]]] = [[] for _ in range(n + 1)]
    for (i, j), terms in sorted(table.items()):
        if i < j:
            for k, c in terms:
                out[k].append(((i, j), -c))
    return out


def _d_column(dgen, idx: tuple[int, ...], memo: dict) -> _Terms:
    """d(e^idx) as a dict target-index -> coefficient, memoized in memo.

    For idx = (i,) + rest the antiderivation rule gives
    d(e^idx) = de^i ^ e^rest - e^i ^ d(e^rest), with d(e^rest) read back
    from memo.  rest is sorted, so a generator term e^a ^ e^b (a < b) of
    de^i merges into it at pa = bisect_left(rest, a) <= pb with sign
    (-1)^(pa+pb), and e^i goes into a monomial t of d(e^rest) at
    p = bisect_left(t, i) with sign (-1)^p; a repeated index kills the term.
    """
    got = memo.get(idx)
    if got is not None:
        return got
    got = {}
    if idx:
        i, rest = idx[0], idx[1:]
        m = len(rest)
        for (a, b), c in dgen[i]:
            pa = bisect_left(rest, a)
            if pa < m and rest[pa] == a:
                continue
            pb = bisect_left(rest, b, pa)
            if pb < m and rest[pb] == b:
                continue
            t = rest[:pa] + (a,) + rest[pa:pb] + (b,) + rest[pb:]
            got[t] = -c if (pa + pb) % 2 else c
        for t, c in _d_column(dgen, rest, memo).items():
            p = bisect_left(t, i)
            if p <= m and t[p] == i:  # t has m + 1 entries
                continue
            t = t[:p] + (i,) + t[p:]
            val = got.get(t, 0) + (c if p % 2 else -c)
            if val:
                got[t] = val
            else:
                del got[t]
    memo[idx] = got
    return got


@lru_cache(maxsize=32)
def ce_complex(g: LieAlgebra) -> GradedComplex:
    """Build (and cache) the full complex; validates Jacobi (`create` checks d^2 = 0).

    differentials[k] maps degree k to degree k+1 (k = 0..dim-1); the top
    differential is the zero map and is not stored.  The memo of columns
    holds at most the degree below the one being built and that degree.
    """
    _require_jacobi(g)
    n = g.dim
    dgen = _generator_images(n, sparse_brackets(g))
    mats = []
    memo: dict = {}
    for k in range(n):
        pos = _index_position(n, k + 1)
        keys = tuple(pos)
        degree = multi_indices(n, k)

        def column(idx):
            col = [(pos[t], c) for t, c in _d_column(dgen, idx, memo).items()]
            # re-key d(e^idx) by the shared monomials, freeing its own tuples
            memo[idx] = {keys[p]: c for p, c in col}
            return col

        mats.append(RationalMatrix.from_entries(len(keys), map(column, degree)))
        memo = {idx: memo[idx] for idx in degree}
    return GradedComplex.create(tuple(comb(n, k) for k in range(n + 1)), mats)


def _images(m: RationalMatrix, monomial, dim: int, degree: int, terms_of) -> RationalMatrix:
    """The columns of m, forms over the monomials monomial(i), mapped by
    idx -> terms_of(idx) into the forms of the given degree on Q^dim,
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


def differential_images(g: LieAlgebra, forms: Sequence[RationalMatrix]) -> list[RationalMatrix]:
    """d of each column of forms[k], a degree-k form, for every k, built
    sparsely from the structure constants.

    No CE matrix is formed.  The caller is responsible for the Jacobi check.
    """
    n = g.dim
    dgen = _generator_images(n, sparse_brackets(g))
    memo: dict = {}
    return [
        _images(m, lambda i, k=k: _unrank(n, k, i), n, k + 1, lambda idx: _d_column(dgen, idx, memo))
        for k, m in enumerate(forms)
    ]


def _wedge_images(images: Sequence[dict[int, Rational]], idx: tuple[int, ...], memo: dict) -> _Terms:
    """images[j_1] ^ ... ^ images[j_k] for idx = (j_1, ..., j_k), memoized on prefixes.

    images[j] is the 1-form sum_i a_i e^i, given as {i: a_i}; the result is
    a sparse k-form in the monomial basis.
    """
    got = memo.get(idx)
    if got is not None:
        return got
    got = {}
    if not idx:
        got[()] = 1
    else:
        for t, c in _wedge_images(images, idx[:-1], memo).items():
            for i, a in images[idx[-1]].items():
                p = bisect_left(t, i)
                if p < len(t) and t[p] == i:
                    continue
                tt = t[:p] + (i,) + t[p:]
                val = got.get(tt, 0) + (-(a * c) if (len(t) - p) % 2 else a * c)
                if val:
                    got[tt] = val
                else:
                    got.pop(tt, None)
    memo[idx] = got
    return got


def _adapted_basis(g: LieAlgebra, h: Subalgebra):
    """Generator images in a basis f adapted to h, plus the 1-forms f^c.

    f_p is the echelon basis vector of h with pivot p, and f_c = e_c at every
    other column c; the change of basis T is unit lower triangular.  Returns
    (pivot set, d on the generators f^c off the pivots, {c: f^c in the e^i}).
    """
    n = g.dim
    cols: dict[int, tuple[tuple[int, Rational], ...]] = {i: ((i, 1),) for i in range(1, n + 1)}
    pivots = []
    for b in h.basis.matrix.entries:
        p = b[0][0] + 1  # entries increase by row, so the first is the pivot
        pivots.append(p)
        cols[p] = tuple((j + 1, a) for j, a in b)
    pivset = frozenset(pivots)
    # f^c = e^c - sum_b b[c] e^{p(b)}: T^{-1} x keeps x_p and subtracts the b-parts
    duals = {c: {c: 1} for c in range(1, n + 1) if c not in pivset}
    for p in pivots:
        for c, a in cols[p]:
            if c != p:
                duals[c][p] = -a
    table = sparse_brackets(g)
    adapted = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            x = bracket_terms(table, cols[i], cols[j])
            # the f^c-coordinates of x; the pivot ones are never differentiated
            y = {}
            for c, dual in duals.items():
                v = as_fraction(sum(a * x[t] for t, a in dual.items() if t in x))
                if v:
                    y[c] = v
            if y:
                adapted[(i, j)] = tuple(sorted(y.items()))
    return pivset, _generator_images(n, adapted), duals


def relative_subcomplex(g: LieAlgebra, h: Subalgebra) -> list[SubspaceBasis]:
    """Per-degree bases of C(g, h) = (Lambda(g/h)*)^h inside the k-forms on g.

    These are the forms w with iota_X w = 0 and iota_X dw = 0 for X in h.
    In a basis f adapted to h (the echelon basis of h at its pivot columns,
    unit vectors elsewhere) the first condition leaves exactly the monomials
    in the f^c that avoid the pivots, at most C(dim g - dim h, k) of them,
    so only those are differentiated.  The kernel of iota_{f_p} o d over the
    pivots p is then carried back to the monomials in the e^i.  No form
    outside Lambda(g/h)* is ever built.
    """
    if h.algebra != g:
        raise ValueError("subalgebra belongs to a different algebra")
    _require_jacobi(g)
    n = g.dim
    pivset, dgen, duals = _adapted_basis(g, h)
    free = sorted(duals)
    images = [duals.get(j, {}) for j in range(n + 1)]
    memo: dict = {}
    dmemo: dict = {}
    spaces: list[SubspaceBasis] = []
    for k in range(n + 1):
        horizontal = list(combinations(free, k))
        if not horizontal:
            spaces.append(SubspaceBasis.zero(comb(n, k)))
            continue
        # one column per horizontal monomial: iota_{f_j} d(f^idx), keyed (j, monomial)
        cols: list[dict[tuple[int, tuple[int, ...]], Rational]] = []
        for idx in horizontal:
            col: dict[tuple[int, tuple[int, ...]], Rational] = {}
            for t, c in _d_column(dgen, idx, dmemo).items():
                for r, j in enumerate(t):
                    if j in pivset:
                        key = (j, t[:r] + t[r + 1 :])
                        col[key] = col.get(key, 0) + (-c if r % 2 else c)
            cols.append(col)
        dmemo = {idx: dmemo[idx] for idx in horizontal}
        row_of = {key: r for r, key in enumerate(sorted({key for col in cols for key in col}))}
        constraint = RationalMatrix.from_entries(
            len(row_of), (((row_of[key], x) for key, x in col.items()) for col in cols)
        )
        lifted = _images(kernel_basis(constraint).matrix, horizontal.__getitem__, n, k,
                         lambda idx: _wedge_images(images, idx, memo))
        spaces.append(image_basis(lifted))
    return spaces


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
        _images(m, lambda i, k=k: _unrank(n, k, i), n, k, lambda idx: _wedge_images(images, idx, memo))
        for k, m in enumerate(forms)
    ]
