"""Finite-dimensional Lie algebras over Q given by structure constants.

An algebra is the data of a dimension n and the coefficient vectors of
[e_i, e_j] for 1 <= i < j <= n; antisymmetry is enforced by storing only the
i < j half.  The Jacobi identity is a checkable property, not an assumption:
`jacobi_check` reports the first violating basis triple, and the cohomology
layer refuses algebras that fail it.

Constructors for the shipped families build structure constants from honest
matrix representations, so no hand-derived sign can drift.  One exact route
serves them all: `_matrix_algebra` reads the commutators of rational basis
matrices in the echelon basis of their span and maps the coordinates back
to the given basis.  so(n) is spanned by A_ij = E_ij - E_ji; u(n) by a
skew-Hermitian basis, realified inside so(2n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .linalg import (
    Rational,
    RationalMatrix,
    SubspaceBasis,
    Vector,
    as_vector,
    image_basis,
    kernel_basis,
    rank,
)

__all__ = [
    "JacobiReport",
    "LieAlgebra",
    "LieAutomorphism",
    "Subalgebra",
    "abelian",
    "bracket_terms",
    "coordinate_subalgebra",
    "is_automorphism",
    "is_subalgebra",
    "jacobi_check",
    "normalizer",
    "so_algebra",
    "sparse_brackets",
    "su2",
    "u_algebra",
]


@dataclass(frozen=True)
class LieAlgebra:
    """Lie algebra structure constants; brackets holds ((i, j), [e_i,e_j])."""

    name: str
    dim: int
    brackets: tuple[tuple[tuple[int, int], Vector], ...]

    @classmethod
    def from_brackets(cls, name: str, dim: int, table: dict | Sequence) -> "LieAlgebra":
        items = table.items() if isinstance(table, dict) else ((t[0], t[1]) for t in table)
        norm = {}
        for (i, j), coeffs in items:
            if not (1 <= i < j <= dim):
                raise ValueError(f"bracket index pair ({i},{j}) out of range for dim {dim}")
            if (i, j) in norm:
                raise ValueError(f"bracket index pair ({i},{j}) is given more than once")
            vec = as_vector(coeffs)
            if len(vec) != dim:
                raise ValueError(f"bracket [e{i},e{j}] has {len(vec)} coefficients, expected {dim}")
            norm[(i, j)] = vec
        return cls(name, dim, tuple(sorted((ij, v) for ij, v in norm.items() if any(v))))


@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    witness: tuple[int, int, int] | None = None
    jacobiator: Vector | None = None


def sparse_brackets(g: LieAlgebra) -> dict[tuple[int, int], tuple[tuple[int, Rational], ...]]:
    """Nonzero [e_i, e_j] for ordered pairs i != j, as (k, c) terms (1-based)."""
    out = {}
    for (i, j), coeffs in g.brackets:
        terms = tuple((k, c) for k, c in enumerate(coeffs, start=1) if c)
        out[(i, j)] = terms
        out[(j, i)] = tuple((k, -c) for k, c in terms)
    return out


def bracket_terms(
    table, x: Iterable[tuple[int, Rational]], y: Sequence[tuple[int, Rational]]
) -> dict[int, Rational]:
    """[x, y] for x and y given by their nonzero (k, c) terms (1-based),
    summed over the nonzero brackets of `table` (`sparse_brackets`)."""
    acc: dict[int, Rational] = {}
    for a, xa in x:
        for b, yb in y:
            for k, c in table.get((a, b), ()):
                acc[k] = acc[k] + xa * yb * c if k in acc else xa * yb * c
    return acc


def jacobi_check(g: LieAlgebra) -> JacobiReport:
    """First basis triple (i,j,k) violating Jacobi, if any."""
    n = g.dim
    table = sparse_brackets(g)
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
                    total = as_vector(acc.get(t, 0) for t in range(1, n + 1))
                    return JacobiReport(False, (i, j, k), total)
    return JacobiReport(True)


@dataclass(frozen=True)
class Subalgebra:
    """A subalgebra of `algebra` spanned by `basis` (canonical form)."""

    algebra: LieAlgebra
    basis: SubspaceBasis
    name: str = ""

    @classmethod
    def span(cls, g: LieAlgebra, vectors: Sequence[Sequence], name: str = "") -> "Subalgebra":
        b = SubspaceBasis.span(vectors, g.dim)
        if not is_subalgebra(g, b.vectors):
            raise ValueError(f"span is not closed under the bracket ({name or 'subalgebra'})")
        return cls(g, b, name)

    @property
    def dim(self) -> int:
        return self.basis.dim


def coordinate_subalgebra(g: LieAlgebra, indices: Sequence[int], name: str = "") -> Subalgebra:
    """Subalgebra spanned by the 1-based basis elements in `indices`."""
    vecs = []
    for i in indices:
        if not 1 <= i <= g.dim:
            raise ValueError(f"basis index {i} out of range")
        vecs.append([1 if t == i - 1 else 0 for t in range(g.dim)])
    return Subalgebra.span(g, vecs, name)


def _terms(col: Iterable[tuple[int, Rational]]) -> tuple[tuple[int, Rational], ...]:
    """A matrix column's entries with 1-based indices, as `sparse_brackets` keys them."""
    return tuple((i + 1, x) for i, x in col)


def is_subalgebra(g: LieAlgebra, vectors: Sequence[Sequence]) -> bool:
    """Whether the span of vectors is closed under the bracket: every
    bracket of two basis vectors, summed over `sparse_brackets`, has
    coordinates in the span."""
    span = SubspaceBasis.span(vectors, g.dim)
    table = sparse_brackets(g)
    cols = [_terms(col) for col in span.matrix.entries]
    brackets = (
        bracket_terms(table, cols[a], cols[b]).items()
        for a in range(len(cols)) for b in range(a + 1, len(cols))
    )
    m = RationalMatrix.from_entries(g.dim, (((k - 1, c) for k, c in br) for br in brackets))
    return span.coordinate_matrix(m) is not None


def normalizer(g: LieAlgebra, h: Subalgebra) -> SubspaceBasis:
    """{x : [x, h] is contained in h}, as a subspace of g.

    Linear in x: with the rows of N spanning the annihilator of span(h),
    the conditions are N ad(v) x = 0 for each basis vector v of h, where
    column i of ad(v) is [e_i, v], summed over `sparse_brackets`.
    """
    n = g.dim
    hb = h.basis
    if hb.dim == 0:
        return SubspaceBasis.full(n)
    table = sparse_brackets(g)
    ann = kernel_basis(hb.matrix.transpose()).matrix.transpose()
    rows = []  # the conditions, each a column of n entries
    for v in hb.matrix.entries:
        terms = _terms(v)
        ad = RationalMatrix.from_entries(n, (
            ((k - 1, c) for k, c in bracket_terms(table, ((i, 1),), terms).items()) for i in range(1, n + 1)
        ))
        rows.extend(ann.mul(ad).transpose().entries)
    result = kernel_basis(RationalMatrix(n, tuple(rows)).transpose())
    assert result.contains_subspace(hb), "normalizer must contain the subalgebra"
    return result


@dataclass(frozen=True)
class LieAutomorphism:
    """An invertible bracket-preserving linear map, columns = images of e_j."""

    algebra: LieAlgebra
    matrix: RationalMatrix
    name: str = ""

    @classmethod
    def create(cls, g: LieAlgebra, matrix, name: str = "") -> "LieAutomorphism":
        m = matrix if isinstance(matrix, RationalMatrix) else RationalMatrix.from_rows(matrix)
        if m.shape != (g.dim, g.dim):
            raise ValueError("automorphism matrix shape does not match the algebra")
        if not is_automorphism(g, m):
            raise ValueError(f"matrix is not a Lie algebra automorphism of {g.name}")
        return cls(g, m, name)

    def preserves(self, h: Subalgebra) -> bool:
        return h.basis.coordinate_matrix(self.matrix.mul(h.basis.matrix)) is not None


def is_automorphism(g: LieAlgebra, m: RationalMatrix) -> bool:
    """Invertible and [m e_i, m e_j] = m [e_i, e_j] for all i < j, both sides
    summed over the nonzeros of m's columns and of `sparse_brackets`."""
    n = g.dim
    if m.shape != (n, n) or rank(m) != n:
        return False
    table = sparse_brackets(g)
    cols = [_terms(col) for col in m.entries]
    for i in range(n):
        for j in range(i + 1, n):
            acc = bracket_terms(table, cols[i], cols[j])
            for k, c in table.get((i + 1, j + 1), ()):
                for r, z in cols[k - 1]:
                    acc[r] = acc[r] - c * z if r in acc else -c * z
            if any(acc.values()):
                return False
    return True


# ---------------------------------------------------------------------------
# constructors for the shipped families


def su2() -> LieAlgebra:
    """Cross-product basis: [e1,e2] = e3, [e2,e3] = e1, [e3,e1] = e2."""
    return LieAlgebra.from_brackets(
        "su2",
        3,
        {(1, 2): [0, 0, 1], (2, 3): [1, 0, 0], (1, 3): [0, -1, 0]},
    )


def abelian(n: int, name: str | None = None) -> LieAlgebra:
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return LieAlgebra.from_brackets(name or f"abelian{n}", n, {})


def so_pairs(n: int) -> list[tuple[int, int]]:
    """Lexicographic (i, j) index pairs labelling the A_ij basis of so(n)."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _commutator(x: dict, y: dict) -> dict:
    """xy - yx for matrices given as {(row, col): entry}."""
    out: dict = {}
    for sign, a, b in ((1, x, y), (-1, y, x)):
        for (i, k), u in a.items():
            for (l, j), v in b.items():
                if k == l:
                    out[(i, j)] = out.get((i, j), 0) + sign * u * v
    return out


def _matrix_algebra(name: str, basis: Sequence[dict]) -> LieAlgebra:
    """The Lie algebra spanned by linearly independent rational matrices,
    each given as {(row, col): entry}, in that basis.

    Each matrix is flattened to a sparse column, and the commutator of two
    basis matrices is read in the echelon basis of their span, then mapped
    back to the given basis; a commutator outside the span is refused.
    """
    size = 1 + max((max(ij) for m in basis for ij in m), default=0)

    def flat(ms):
        cols = ([(i * size + j, x) for (i, j), x in m.items()] for m in ms)
        return RationalMatrix.from_entries(size * size, cols)

    given = flat(basis)
    span = image_basis(given)
    to_basis = span.coordinate_matrix(given).inverse()
    pairs = [(a, b) for a in range(len(basis)) for b in range(a + 1, len(basis))]
    coords = span.coordinate_matrix(flat(_commutator(basis[a], basis[b]) for a, b in pairs))
    if coords is None:
        raise ValueError(f"the matrices of {name} are not closed under the commutator")
    table = to_basis.mul(coords)
    return LieAlgebra.from_brackets(name, len(basis), {
        (a + 1, b + 1): table.column(k) for k, (a, b) in enumerate(pairs) if table.entries[k]
    })


def so_algebra(n: int, name: str | None = None) -> LieAlgebra:
    """so(n) in the basis A_ij = E_ij - E_ji, ordered lexicographically.

    For n = 3 this differs from the cross-product basis by signs; use su2()
    (or the shipped so3 alias) when the cross-product convention is wanted.
    """
    if n < 2:
        return abelian(0, name or f"so{n}")
    return _matrix_algebra(name or f"so{n}", [{(i, j): 1, (j, i): -1} for i, j in so_pairs(n)])


def u_algebra(n: int, name: str | None = None) -> LieAlgebra:
    """u(n) in the skew-Hermitian basis D_a = iE_aa, S_ab = E_ab - E_ba,
    T_ab = i(E_ab + E_ba), realified inside so(2n).  Realification maps
    commutators to commutators, so the structure constants are those of the
    complex matrices."""
    if n < 1:
        raise ValueError("u(n) needs n >= 1")

    def block(a, b, x, y):  # x + iy at (a, b) as [[x, -y], [y, x]] at rows 2a, 2a+1, columns 2b, 2b+1
        return {(2 * a, 2 * b): x, (2 * a, 2 * b + 1): -y, (2 * a + 1, 2 * b): y, (2 * a + 1, 2 * b + 1): x}

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    basis = [block(a, a, 0, 1) for a in range(n)]
    basis += [{**block(a, b, 1, 0), **block(b, a, -1, 0)} for a, b in pairs]
    basis += [{**block(a, b, 0, 1), **block(b, a, 0, 1)} for a, b in pairs]
    return _matrix_algebra(name or f"u{n}", basis)
