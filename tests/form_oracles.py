"""Dense operations on forms and brackets, used only as test oracles.

The engine works on sparse forms and sparse structure constants and never
builds these: the bracket of two dense vectors, the pullback of every basis
form under an automorphism, the matrix of a contraction, and a form wrapped
around a coefficient vector or a single monomial.

`ExteriorForm` is the dense form type the engine had before every form
became a sparse `RationalMatrix` column: a degree and all C(dim, degree)
coefficients in monomial order.  With it came index tuples as the public
monomial (`multi_indices`, `form_from_terms`, `_mask`), the interior
product `contract` (and `ContractionError`), and `dense_wedge`, the wedge
that `cohomology.cup_product` took before `forms.wedge` wedged columns.
They are the reference for `forms.wedge` and for the sign conventions.

`slot_d_column` is the Chevalley-Eilenberg column builder the engine used
before its antiderivation recurrence: one pass per argument slot, sorting
every term with `sort_sign`.  The slot differentials built from it are the
reference for `ce_complex`.  The slot images, d of forms on all of Lambda
g*, are the old route of the relative d: before `relative_subcomplex`
built d from the bracket of g/h, the lifted basis forms of C(g, h) were
differentiated on Lambda g* and read in the next degree's basis.  Like the
engine before it keyed monomials by bit masks, these oracles hold monomials
as index tuples and rank them with `tuple_rank`.

`slot_relative_subcomplex` is the route `relative_subcomplex` took on index
tuples: slot columns of the horizontal monomials in the adapted basis, the
kernel of their pivot contractions, and a lift that sorts every wedge term
(`lift_by_sorting`, which is also the reference for `pull_back`).  Its
`_adapted_basis`, the whole bracket table of g in a basis adapted to h, is
what `relative_subcomplex` differentiated before it took the kernel of the
isotropy action of h; the two routes build their constraints independently.

`apply`, a matrix times a dense vector, `normalizer`, of a subalgebra, and
`solve`, one exact solution of m x = b, were `RationalMatrix.apply`,
`liealg.normalizer` and `linalg.solve`; only tests call them.
`subspace_sum` and `complement_in` (a basis of a space modulo a subspace)
were `linalg`'s, until `spectral.pages_inductive` presented each page by one
echelon pass; only tests call them.  `contains_subspace` was
`SubspaceBasis.contains_subspace`; only tests call it.  `matrix_sum` is
`RationalMatrix.add`, spelled as a - (0 - b); no engine path adds matrices.
`abelian`, the abelian Lie algebra of dimension n, was `liealg.abelian`; only
tests build one.

`restricted_kernel` is the kernel the engine took before
`linalg.kernel_and_image`: one elimination of the rows with the columns
reversed, then back substitution.  It is the reference for the kernels and
cohomology representatives of the column elimination.

`copying_insert` is `linalg.insert` as it was before it reduced in place:
every reduction step builds a new dict, and a second one to divide out the
gcd.  It is the reference for the pivots and stored vectors of `insert`.

`form_vanishes_on_hyperplane` is the test the cup-null hyperplane search
made for every normal before `obstructions._vanishes_on`: a kernel basis of
the normal, then the form on each pair of basis vectors.

`primitive_normals` is the walk over integer normals of height <= 5 that
the cup-null hyperplane search made for b2 >= 3 before it read the
candidate normals off the first nonzero cup matrix: the shell of each
height in lexicographic order.  `walk_search` is that search, the
reference wherever it finds a hyperplane.  `cube_normals` is the generator
the walk had before it walked only the shell: every tuple of the cube,
kept when it lies on the shell.

`so_algebra_by_hand` and `u_algebra_over_gaussians` are the constructors
`liealg` had before `liealg._matrix_algebra`: so(n) with its own sign
bookkeeping for the commutators of E_ij - E_ji, read off the upper entries,
and u(n) with its own arithmetic in Q(i) held as (re, im) pairs.  They are
the reference for `so_algebra` and `u_algebra`.

`sparse_brackets` is the (k, c) table every consumer rebuilt from the dense
bracket vectors before `LieAlgebra` stored its structure constants as
sparse terms.  It reads only the dense `brackets` view, so it is the
reference for `LieAlgebra.table`, and the slot differentials read it.

`all_degrees_differentials` is the loop `ce_complex` ran before it built
the upper half of a unimodular algebra's complex as the signed transpose of
the lower half: `forms._d_column` on every monomial of every degree.  It is
the reference for the transposed half and for the fallback of the others.

`triple_jacobi_witness` is the Jacobi check `liealg.jacobi_check` made
before `forms` read the Jacobi identity off d(d e^k): the Jacobiator of
every basis triple in lexicographic order, on the `sparse_brackets` table.
It is the reference for `forms._jacobi_witness`.
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import merge
from itertools import combinations, product
from math import comb, gcd, lcm
from typing import Sequence

from eqss.forms import (
    _d_column,
    _dual_images,
    _generator_images,
    _indices,
    _positions,
    _rank,
    _unrank,
    ce_complex,
    pull_back,
)
from eqss.liealg import LieAlgebra, LieAutomorphism, Subalgebra, bracket_terms, so_pairs
from eqss.linalg import (
    Rational,
    RationalMatrix,
    SubspaceBasis,
    Vector,
    _back_substitute,
    _quotient,
    as_fraction,
    as_vector,
    echelon,
    image_basis,
    kernel_basis,
)
from eqss.obstructions import NullSearchResult, _vanishes_on


class ContractionError(ValueError):
    pass


def multi_indices(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Lexicographic strictly increasing index tuples of the given degree."""
    if degree < 0 or degree > dim:
        return ()
    return tuple(combinations(range(1, dim + 1), degree))


def _mask(idx: Sequence[int]) -> int:
    return sum(1 << (i - 1) for i in idx)


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
        return [(_indices(_unrank(self.dim, self.degree, p)), c) for p, c in enumerate(self.coeffs) if c]

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
    coeffs = [0] * (comb(dim, degree) if degree >= 0 else 0)
    for raw_idx, c in terms.items():
        m = odd = 0
        for i in raw_idx:
            if not 1 <= i <= dim:
                raise ValueError(f"index tuple {raw_idx} out of range for dim {dim}")
            if m >> (i - 1) & 1:
                raise ValueError(f"repeated index in {raw_idx}")
            odd ^= (m >> i).bit_count() & 1  # sorting i past the earlier indices above it
            m |= 1 << (i - 1)
        if m.bit_count() != degree:
            raise ValueError(f"index tuple {raw_idx} out of range for dim {dim}")
        c = as_fraction(c)
        coeffs[_rank(dim, m)] += -c if odd else c
    return ExteriorForm(dim, degree, as_vector(coeffs))


def dense_wedge(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    if a.dim != b.dim:
        raise ValueError("wedge of forms on different algebras")
    degree = a.degree + b.degree
    if degree > a.dim:
        return ExteriorForm(a.dim, degree, ())
    n = a.dim
    coeffs = [0] * comb(n, degree)
    terms_a = [(_unrank(n, a.degree, p), c) for p, c in enumerate(a.coeffs) if c]
    for p, cb in enumerate(b.coeffs):
        if cb:
            mb = _unrank(n, b.degree, p)
            indices_b = _indices(mb)
            for ma, ca in terms_a:
                if not ma & mb:
                    # sorting a's indices then b's: each index i of b passes those of a above it
                    odd = sum((ma >> i).bit_count() for i in indices_b) & 1
                    coeffs[_rank(n, ma | mb)] += -(ca * cb) if odd else ca * cb
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
                coeffs[_rank(form.dim, _mask(target))] += -(xv[j - 1] * c) if r % 2 else xv[j - 1] * c
    return ExteriorForm(form.dim, form.degree - 1, as_vector(coeffs))


def sparse_brackets(g: LieAlgebra) -> dict[tuple[int, int], tuple[tuple[int, Rational], ...]]:
    """Nonzero [e_i, e_j] for ordered pairs i != j, as (k, c) terms (1-based)."""
    out = {}
    for (i, j), coeffs in g.brackets:
        terms = tuple((k, c) for k, c in enumerate(coeffs, start=1) if c)
        out[(i, j)] = terms
        out[(j, i)] = tuple((k, -c) for k, c in terms)
    return out


def triple_jacobi_witness(g: LieAlgebra) -> tuple[int, int, int] | None:
    """The first basis triple (i, j, k) at which g violates Jacobi, or None."""
    n, table = g.dim, sparse_brackets(g)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                # [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]
                acc: dict[int, Rational] = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, x in table.get((a, b), ()):
                        for t, y in table.get((m, c), ()):
                            acc[t] = acc.get(t, 0) + x * y
                if any(acc.values()):
                    return (i, j, k)
    return None


def all_degrees_differentials(g: LieAlgebra) -> list[RationalMatrix]:
    """d_0 .. d_{n-1} of g, a `_d_column` per monomial of every degree."""
    n = g.dim
    dgen, memo = _generator_images(n, g.table), {}
    mats = []
    for k in range(n):
        pos = _positions(n, k + 1)
        cols = (_d_column(dgen, m, memo).items() for m in _positions(n, k))
        mats.append(RationalMatrix.from_entries(len(pos), (((pos[t], c) for t, c in col) for col in cols)))
    return mats


def bracket(g: LieAlgebra, x: Sequence, y: Sequence) -> Vector:
    """[x, y] extended bilinearly from the dense structure constants."""
    xv, yv = as_vector(x), as_vector(y)
    if len(xv) != g.dim or len(yv) != g.dim:
        raise ValueError("vector length does not match algebra dimension")
    acc = [0] * g.dim
    for (i, j), coeffs in g.brackets:
        c = xv[i - 1] * yv[j - 1] - xv[j - 1] * yv[i - 1]
        if c:
            for k, ck in enumerate(coeffs):
                if ck:
                    acc[k] += c * ck
    return as_vector(acc)


def apply(m: RationalMatrix, v: Sequence) -> Vector:
    """m v as a dense vector: the one column of m times the one-column matrix of v."""
    return m.mul(RationalMatrix.from_columns([v], m.ncols)).column(0)


def matrix_sum(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    return a.sub(RationalMatrix.zeros(*b.shape).sub(b))


def abelian(n: int, name: str | None = None) -> LieAlgebra:
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return LieAlgebra.from_brackets(name or f"abelian{n}", n, {})


def solve(m: RationalMatrix, b: Sequence) -> Vector | None:
    """One exact solution of m x = b (free variables set to 0), or None."""
    bv = as_vector(b)
    if len(bv) != m.nrows:
        raise ValueError("rhs length does not match row count")
    n = m.ncols
    rows = (r + ((n, bv[i]),) for i, r in enumerate(m.transpose().entries))
    red = SubspaceBasis.from_echelon(echelon(rows), n + 1)
    if n in red.pivots:
        return None
    # a pivot's solution entry is its vector's entry at index n, the last one
    x = [0] * n
    for p, col in zip(red.pivots, red.matrix.entries):
        if col[-1][0] == n:
            x[p] = col[-1][1]
    return tuple(x)


def contains_subspace(space: SubspaceBasis, sub: SubspaceBasis) -> bool:
    return space.coordinate_matrix(sub.matrix) is not None


def subspace_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    if a.ambient != b.ambient:
        raise ValueError("ambient dimension mismatch")
    return image_basis(RationalMatrix(a.ambient, a.matrix.entries + b.matrix.entries))


def complement_in(space: SubspaceBasis, sub: SubspaceBasis) -> SubspaceBasis:
    """Canonical complement of sub inside space (earliest-pivot representatives).

    The returned vectors are a basis of space modulo sub; together with sub
    they span space.
    """
    if not contains_subspace(space, sub):
        raise ValueError("complement of a subspace that is not contained in the space")
    return image_basis(sub.reduce(space.matrix))


def normalizer(g: LieAlgebra, h: Subalgebra) -> SubspaceBasis:
    """{x : [x, h] is contained in h}, as a subspace of g.

    Linear in x: with the rows of N spanning the annihilator of span(h),
    the conditions are N ad(v) x = 0 for each basis vector v of h, where
    column i of ad(v) is [e_i, v], by `bracket_terms`.
    """
    n, hb = g.dim, h.basis
    if hb.dim == 0:
        return SubspaceBasis.full(n)
    ann = kernel_basis(hb.matrix.transpose()).matrix.transpose()
    rows = []  # the conditions, each a column of n entries
    for v in hb.matrix.entries:
        terms = tuple((i + 1, x) for i, x in v)
        ad = RationalMatrix.from_entries(n, (
            ((k - 1, c) for k, c in bracket_terms(g, ((i, 1),), terms).items()) for i in range(1, n + 1)
        ))
        rows.extend(ann.mul(ad).transpose().entries)
    result = kernel_basis(RationalMatrix(n, tuple(rows)).transpose())
    if not contains_subspace(result, hb):
        raise AssertionError("normalizer must contain the subalgebra")
    return result


def form_from_vector(dim: int, degree: int, vec: Sequence) -> ExteriorForm:
    return ExteriorForm(dim, degree, as_vector(vec))


def basis_form(dim: int, indices: Sequence[int]) -> ExteriorForm:
    return form_from_terms(dim, len(tuple(indices)), {tuple(indices): 1})


def contract_matrix(dim: int, x: Sequence, degree: int) -> RationalMatrix:
    """Matrix of iota_x from degree `degree` to degree-1 monomial bases."""
    cols = [contract(x, basis_form(dim, idx)).coeffs for idx in multi_indices(dim, degree)]
    return RationalMatrix.from_columns(cols, len(multi_indices(dim, degree - 1)))


def _pullback_matrix(aut: LieAutomorphism, degree: int) -> RationalMatrix:
    n = aut.algebra.dim
    forms = [RationalMatrix.zeros(comb(n, k), 0) for k in range(degree)]
    return pull_back(aut, forms + [RationalMatrix.identity(comb(n, degree))])[degree]


def induced_on_forms(aut: LieAutomorphism, degree: int, check: bool = True) -> RationalMatrix:
    """Pullback action on degree-k forms: Lambda^k of the inverse transpose.

    Functorial (induced(ab) = induced(a) induced(b)) and commutes with the
    differential; the commutation is verified for the requested degree unless
    check is False.
    """
    n = aut.algebra.dim
    if degree < 0 or degree > n:
        raise ValueError("degree out of range")
    mat = _pullback_matrix(aut, degree)
    if check and degree < n:
        ce = ce_complex(aut.algebra)
        lhs = ce.differential(degree).mul(mat)
        rhs = _pullback_matrix(aut, degree + 1).mul(ce.differential(degree))
        if lhs != rhs:
            raise AssertionError("induced action does not commute with the differential")
    return mat


def sort_sign(seq: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
    """Sorted tuple and permutation sign, or None on a repeated index.

    The sign is (-1)^inversions.  Read from the right, each index counts the
    indices after it that are smaller by a bisect into them, kept sorted.
    """
    if len(set(seq)) < len(seq):
        return None
    lst, inversions = [], 0
    for x in reversed(seq):
        k = bisect_left(lst, x)
        inversions += k
        lst.insert(k, x)
    return tuple(lst), -1 if inversions & 1 else 1


def tuple_rank(dim: int, idx: tuple[int, ...]) -> int:
    """Position of the monomial idx among those of its degree, in lexicographic order."""
    k = len(idx)
    return comb(dim, k) - 1 - sum(comb(dim - i, k - r) for r, i in enumerate(idx))


def tuple_unrank(dim: int, degree: int, pos: int) -> tuple[int, ...]:
    """The monomial at position pos of the given degree, inverse to `tuple_rank`."""
    x, c, out = comb(dim, degree) - 1 - pos, dim, []
    for m in range(degree, 0, -1):
        c -= 1
        while comb(c, m) > x:
            c -= 1
        x -= comb(c, m)
        out.append(dim - c)
    return tuple(out)


def generator_images(n: int, table) -> list[list[tuple[tuple[int, int], object]]]:
    """For each generator k (1-based), d e^k = -sum_{i<j} c^k_ij e^i^e^j as
    ((i, j), -c) terms, from the ((i, j), (k, c) terms of [e_i, e_j]) items
    of table."""
    out: list = [[] for _ in range(n + 1)]
    for (i, j), terms in table:
        if i < j:
            for k, c in terms:
                out[k].append(((i, j), -c))
    return out


def slot_d_column(dgen, idx: tuple[int, ...]) -> dict[tuple[int, ...], object]:
    """d(e^idx) as a dict target-index -> coefficient (antiderivation rule)."""
    acc: dict = {}
    for r, gen in enumerate(idx):
        rest = idx[:r] + idx[r + 1 :]
        slot_sign = -1 if r % 2 else 1
        for (a, b), c in dgen[gen]:
            srt = sort_sign((a, b) + rest)
            if srt is None:
                continue
            target, sign = srt
            val = acc.get(target, 0) + (c if slot_sign == sign else -c)
            if val:
                acc[target] = val
            elif target in acc:
                del acc[target]
    return acc


def slot_differentials(g: LieAlgebra) -> list[RationalMatrix]:
    """Every CE differential of g, one `slot_d_column` per monomial."""
    n = g.dim
    dgen = generator_images(n, sparse_brackets(g).items())
    mats = []
    for k in range(n):
        pos = {t: p for p, t in enumerate(multi_indices(n, k + 1))}
        cols = (slot_d_column(dgen, idx).items() for idx in multi_indices(n, k))
        mats.append(RationalMatrix.from_entries(len(pos), (((pos[t], c) for t, c in col) for col in cols)))
    return mats


def slot_differential_images(g: LieAlgebra, forms: Sequence[RationalMatrix]) -> list[RationalMatrix]:
    """d of each column of forms[k], summed over its monomials' slot columns;
    each monomial's slot column is computed once per degree."""
    n = g.dim
    dgen = generator_images(n, sparse_brackets(g).items())
    out = []
    for k, m in enumerate(forms):
        monomials = multi_indices(n, k)
        pos = {t: p for p, t in enumerate(multi_indices(n, k + 1))}
        slot_columns: dict[int, list] = {}
        cols = []
        for col in m.entries:
            acc: dict = {}
            for i, a in col:
                if i not in slot_columns:
                    slot_columns[i] = [(pos[t], c) for t, c in slot_d_column(dgen, monomials[i]).items()]
                for p, c in slot_columns[i]:
                    acc[p] = acc.get(p, 0) + a * c
            cols.append(acc.items())
        out.append(RationalMatrix.from_entries(comb(n, k + 1), cols))
    return out


def lift_by_sorting(m: RationalMatrix, monomial, images, dim: int, degree: int) -> RationalMatrix:
    """The columns of m, forms over the monomials monomial(i), with each monomial
    e^{j_1} ^ ... ^ e^{j_k} replaced by images[j_1] ^ ... ^ images[j_k].

    images[j] is a 1-form {i: a_i}; each product is built on its prefix,
    sorting every new term with `sort_sign`.
    """
    memo: dict = {(): {(): 1}}

    def wedge_of(idx):
        if idx not in memo:
            acc: dict = {}
            for t, c in wedge_of(idx[:-1]).items():
                for i, a in images[idx[-1]].items():
                    srt = sort_sign(t + (i,))
                    if srt is not None:
                        acc[srt[0]] = acc.get(srt[0], 0) + (a * c if srt[1] > 0 else -(a * c))
            memo[idx] = acc
        return memo[idx]

    cols = []
    for col in m.entries:
        acc: dict = {}
        for i, a in col:
            for t, c in wedge_of(monomial(i)).items():
                acc[tuple_rank(dim, t)] = acc.get(tuple_rank(dim, t), 0) + a * c
        cols.append(acc.items())
    return RationalMatrix.from_entries(comb(dim, degree), cols)


def sorted_pull_back(aut: LieAutomorphism, forms: Sequence[RationalMatrix]) -> list[RationalMatrix]:
    """The pullback of each column of forms[k] by `lift_by_sorting` over the
    images of the e^j."""
    n = aut.algebra.dim
    images = _dual_images(aut)
    return [lift_by_sorting(m, lambda i, k=k: tuple_unrank(n, k, i), images, n, k) for k, m in enumerate(forms)]


def _adapted_basis(g: LieAlgebra, h: Subalgebra):
    """Brackets in a basis f adapted to h, plus the 1-forms f^c.

    f_p is the echelon basis vector of h with pivot p, and f_c = e_c at every
    other column c; the change of basis T is unit lower triangular.  Returns
    (pivot set, the f^c-terms off the pivots of [f_i, f_j] for i < j, as
    `_generator_images` takes them, {c: f^c in the e^i}).
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
    adapted = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            x = bracket_terms(g, cols[i], cols[j])
            # the f^c-coordinates of x; the pivot ones are never differentiated
            y = {}
            for c, dual in duals.items():
                v = as_fraction(sum(a * x[t] for t, a in dual.items() if t in x))
                if v:
                    y[c] = v
            if y:
                adapted.append(((i, j), tuple(sorted(y.items()))))
    return pivset, adapted, duals


def slot_relative_subcomplex(g: LieAlgebra, h) -> list[SubspaceBasis]:
    """C(g, h) on index tuples: in the basis adapted to h, the kernel of
    iota_{f_p} o d over the pivots p on the horizontal monomials, with rows
    keyed (p, monomial) in sorted order, lifted to the e^i by sorting."""
    n = g.dim
    pivset, adapted, duals = _adapted_basis(g, h)
    dgen = generator_images(n, adapted)
    images = [duals.get(j, {}) for j in range(n + 1)]
    spaces = []
    for k in range(n + 1):
        horizontal = list(combinations(sorted(duals), k))
        cols = []
        for idx in horizontal:
            col: dict = {}
            for t, c in slot_d_column(dgen, idx).items():
                for r, j in enumerate(t):
                    if j in pivset:
                        key = (j, t[:r] + t[r + 1 :])
                        col[key] = col.get(key, 0) + (-c if r % 2 else c)
            cols.append(col)
        row_of = {key: r for r, key in enumerate(sorted({key for col in cols for key in col}))}
        constraint = RationalMatrix.from_entries(len(row_of), [[(row_of[key], x) for key, x in col.items()] for col in cols])
        lifted = lift_by_sorting(kernel_basis(constraint).matrix, horizontal.__getitem__, images, n, k)
        spaces.append(image_basis(lifted))
    return spaces


def restricted_kernel(m: RationalMatrix, cols: Sequence[int]) -> SubspaceBasis:
    """Canonical basis of {x in Q^ncols supported on cols : m x = 0}.

    cols must increase.  The rows of m restricted to cols are eliminated
    once, with cols reversed.  The solution at each free column then has its
    other entries at later columns, all of them pivots, so read back in the
    original order the solutions are already the reduced echelon basis.
    """
    last, ambient = len(cols) - 1, m.ncols
    index = {j: last - k for k, j in enumerate(cols)}
    basis = echelon(((index[j], x) for j, x in row if j in index) for row in m.transpose().entries)
    _back_substitute(basis)
    solutions = {f: {cols[last - f]: 1} for f in range(last, -1, -1) if f not in basis}
    for p, w in basis.items():
        for f, x in w.items():
            if f != p:
                solutions[f][cols[last - p]] = _quotient(-x, w[p])
    return SubspaceBasis(RationalMatrix(ambient, tuple(tuple(sorted(sol.items())) for sol in solutions.values())))


def copying_insert(basis: dict[int, dict[int, int]], entries) -> int | None:
    """Insert a sparse rational vector into a pivot-keyed echelon basis,
    each step a new primitive integer dict; the pivot, or None."""
    v = {k: x for k, x in entries if x}
    if any(type(x) is not int for x in v.values()):
        den = lcm(*(x.denominator for x in v.values()))
        v = {k: x.numerator * (den // x.denominator) for k, x in v.items()}
    v = _primitive(v)
    while v:
        p = min(v)
        w = basis.get(p)
        if w is None:
            basis[p] = v
            return p
        g = gcd(w[p], v[p])
        a, b = w[p] // g, v[p] // g
        out = {k: a * x for k, x in v.items()} if a != 1 else dict(v)
        for k, x in w.items():
            y = out.get(k, 0) - b * x
            if y:
                out[k] = y
            else:
                del out[k]
        v = _primitive(out) if out else out
    return None


def _primitive(v: dict[int, int]) -> dict[int, int]:
    g = gcd(*v.values())
    return v if g == 1 else {k: x // g for k, x in v.items()}


def form_vanishes_on_hyperplane(m: RationalMatrix, normal: Sequence) -> bool:
    """Whether the symmetric m vanishes on {x : normal . x = 0}, pair by pair."""
    vectors = kernel_basis(RationalMatrix.from_rows([normal])).vectors
    return all(
        sum(a * b for a, b in zip(v, apply(m, w))) == 0
        for i, v in enumerate(vectors)
        for w in vectors[i:]
    )


WALK_HEIGHT = 5


def primitive_normals(b2: int, height: int):
    """Primitive integer normals, deduped up to sign, by increasing height h:
    the shell max |x_i| = h in lexicographic order, so no cube is walked.
    After z zeros and a first nonzero x > 0 the rest is free if x = h, else
    the sorted merge of blocks by the position p of its first entry of size h."""
    for h in range(1, height + 1):
        inner, full = range(1 - h, h), range(-h, h + 1)
        for z in range(b2 - 1, -1, -1):
            k = b2 - z - 1
            for x in range(1, h + 1):
                blocks = (product(*[inner] * p, (-h, h), *[full] * (k - p - 1)) for p in range(k))
                for t in product(full, repeat=k) if x == h else merge(*blocks):
                    if gcd(x, *t) == 1:
                        yield (0,) * z + (x,) + t


@lru_cache(maxsize=None)
def walked_normals(b2: int) -> tuple[tuple[int, ...], ...]:
    return tuple(primitive_normals(b2, WALK_HEIGHT))


def walk_search(cup):
    """The b2 >= 3 search as a plain walk over every normal of height <= 5:
    the first that passes, or none found.  Each form is scaled to integer
    entries first, which keeps its null hyperplanes."""
    forms = []
    for m in cup.matrices:
        den = lcm(*(Fraction(x).denominator for row in m.rows for x in row))
        forms.append([[int(x * den) for x in row] for row in m.rows])
    for normal in walked_normals(cup.b2):
        if all(_vanishes_on(f, normal) for f in forms):
            return NullSearchResult(True, kernel_basis(RationalMatrix.from_rows([normal])), "exact",
                                    f"normal {normal}")
    note = f"no rational null hyperplane with integer normal of height <= {WALK_HEIGHT}"
    return NullSearchResult(False, None, "bounded-search", note)


def cube_normals(b2: int, height: int):
    """Primitive integer normals, deduped up to sign, by increasing height:
    the tuples of [-h, h]^b2 with max |x_i| = h, first nonzero entry
    positive and gcd 1, in lexicographic order for h = 1..height."""
    for h in range(1, height + 1):
        for cand in product(range(-h, h + 1), repeat=b2):
            if max(map(abs, cand)) == h and next(x for x in cand if x) > 0 and gcd(*cand) == 1:
                yield cand


def so_algebra_by_hand(n: int, name: str | None = None) -> LieAlgebra:
    """so(n) in the basis A_ij = E_ij - E_ji, ordered lexicographically.

    For n = 3 this differs from the cross-product basis by signs; use su2()
    (or the shipped so3 alias) when the cross-product convention is wanted.
    """
    if n < 2:
        return abelian(0, name or f"so{n}")
    pairs = so_pairs(n)
    index = {p: k for k, p in enumerate(pairs)}
    dim = len(pairs)

    def commute(p, q):
        # [A_ij, A_kl] via matrix entries of the commutator, which is skew:
        # (E_ij - E_ji)(E_kl - E_lk) - (E_kl - E_lk)(E_ij - E_ji)
        (i, j), (k, l) = p, q
        terms = {}
        for (a, b, s1) in [(i, j, 1), (j, i, -1)]:
            for (c, d, s2) in [(k, l, 1), (l, k, -1)]:
                if b == c:
                    terms[(a, d)] = terms.get((a, d), 0) + s1 * s2
                if d == a:
                    terms[(c, b)] = terms.get((c, b), 0) - s1 * s2
        # terms is the full (skew) commutator matrix; the A_ab coordinate is
        # its upper entry, so read a < b only
        coeffs = [0] * dim
        for (a, b), c in terms.items():
            if c and a < b:
                coeffs[index[(a, b)]] += c
        return coeffs

    table = {}
    for x in range(dim):
        for y in range(x + 1, dim):
            coeffs = commute(pairs[x], pairs[y])
            if any(coeffs):
                table[(x + 1, y + 1)] = coeffs
    return LieAlgebra.from_brackets(name or f"so{n}", dim, table)


def u_algebra_over_gaussians(n: int, name: str | None = None) -> LieAlgebra:
    """u(n) in the skew-Hermitian basis D_a = iE_aa, S_ab = E_ab - E_ba,
    T_ab = i(E_ab + E_ba); entries computed over Q(i)."""
    if n < 1:
        raise ValueError("u(n) needs n >= 1")

    # a basis element is a complex matrix: dict (a,b) -> (re, im)
    def dmat(a):
        return {(a, a): (0, 1)}

    def smat(a, b):
        return {(a, b): (1, 0), (b, a): (-1, 0)}

    def tmat(a, b):
        return {(a, b): (0, 1), (b, a): (0, 1)}

    basis = [dmat(a) for a in range(1, n + 1)]
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    basis += [smat(a, b) for a, b in pairs]
    basis += [tmat(a, b) for a, b in pairs]
    dim = len(basis)

    def cmul(x, y):
        out = {}
        for (a, b), (re1, im1) in x.items():
            for (c, d), (re2, im2) in y.items():
                if b == c:
                    re, im = out.get((a, d), (0, 0))
                    out[(a, d)] = (re + re1 * re2 - im1 * im2, im + re1 * im2 + im1 * re2)
        return out

    def commutator(x, y):
        xy, yx = cmul(x, y), cmul(y, x)
        out = {}
        for key in set(xy) | set(yx):
            r1, i1 = xy.get(key, (0, 0))
            r2, i2 = yx.get(key, (0, 0))
            re, im = r1 - r2, i1 - i2
            if re or im:
                out[key] = (re, im)
        return out

    def coordinates(z):
        # skew-Hermitian: diagonal purely imaginary, z_ba = -conj(z_ab)
        coeffs = [0] * dim
        for a in range(1, n + 1):
            re, im = z.get((a, a), (0, 0))
            assert re == 0, "commutator left the skew-Hermitian space"
            coeffs[a - 1] = im
        for k, (a, b) in enumerate(pairs):
            re, im = z.get((a, b), (0, 0))
            coeffs[n + k] = re
            coeffs[n + len(pairs) + k] = im
        return coeffs

    table = {}
    for x in range(dim):
        for y in range(x + 1, dim):
            coeffs = coordinates(commutator(basis[x], basis[y]))
            if any(coeffs):
                table[(x + 1, y + 1)] = coeffs
    return LieAlgebra.from_brackets(name or f"u{n}", dim, table)
