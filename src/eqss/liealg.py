"""Finite-dimensional Lie algebras over Q given by structure constants.

An algebra is the data of a dimension n and the nonzero (k, c) terms of
[e_i, e_j] for 1 <= i < j <= n, which every consumer reads; antisymmetry is
enforced by storing only the i < j half.  The Jacobi identity is a checkable
property, not an assumption: `forms` decides it as d^2 = 0 on the 1-forms
and refuses an algebra that fails it, naming the least violating triple.

Constructors for the shipped families build structure constants from honest
matrix representations, so no hand-derived sign can drift.  One exact route
serves them all: `_matrix_algebra` reads the commutators of rational basis
matrices in the echelon basis of their span and maps the coordinates back
to the given basis, as terms.  so(n) is spanned by A_ij = E_ij - E_ji; u(n)
by a skew-Hermitian basis, realified inside so(2n).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .linalg import (
    Rational,
    RationalMatrix,
    SubspaceBasis,
    Vector,
    as_vector,
    image_basis,
    rank,
)
from .records import FrozenRecord, set_field, set_fields

__all__ = [
    "LieAlgebra",
    "LieAutomorphism",
    "Subalgebra",
    "abelian",
    "bracket_terms",
    "coordinate_subalgebra",
    "is_automorphism",
    "so_algebra",
    "su2",
    "u_algebra",
]


class LieAlgebra(FrozenRecord):
    """Structure constants, stored once as sparse terms.

    table holds ((i, j), ((k, c), ...)) for each pair i < j with
    [e_i, e_j] != 0, pairs increasing: the nonzero terms only, k 1-based and
    increasing, c under the number rule of `linalg`.  The form is canonical,
    so == and hash mean equal names and brackets.  The constructor takes it
    as given; `from_brackets` validates dense vectors, the document format,
    and `brackets` is that dense view, built on each read.
    """

    __slots__ = ("name", "dim", "table", "_both_orders")

    def __init__(self, name: str, dim: int, table: tuple) -> None:
        set_field(self, "name", name)
        set_field(self, "dim", dim)
        set_field(self, "table", table)
        set_field(self, "_both_orders", None)

    def _key(self) -> tuple:
        return (self.name, self.dim, self.table)

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
            norm[(i, j)] = tuple((k, c) for k, c in enumerate(vec, start=1) if c)
        return cls(name, dim, tuple(sorted((ij, t) for ij, t in norm.items() if t)))

    @property
    def brackets(self) -> tuple[tuple[tuple[int, int], Vector], ...]:
        cols = RationalMatrix(self.dim, tuple(tuple((k - 1, c) for k, c in t) for _, t in self.table))
        return tuple(zip((ij for ij, _ in self.table), cols.columns()))

    @property
    def _lookup(self) -> dict[tuple[int, int], tuple[tuple[int, Rational], ...]]:
        """The terms of [e_i, e_j] for both orders of every nonzero pair, built once."""
        out = self._both_orders
        if out is None:
            out = dict(self.table)
            out.update(((j, i), tuple((k, -c) for k, c in t)) for (i, j), t in self.table)
            set_field(self, "_both_orders", out)
        return out

    @property
    def unimodular(self) -> bool:
        """Whether tr ad e_i = sum_j c^j_ij is 0 for every i (c^j_ij = -c^j_ji)."""
        trace = [0] * (self.dim + 1)
        for (i, j), terms in self.table:
            for k, c in terms:
                if k in (i, j):
                    trace[i + j - k] += c if k == j else -c
        return not any(trace)


def bracket_terms(
    g: LieAlgebra, x: Iterable[tuple[int, Rational]], y: Sequence[tuple[int, Rational]]
) -> dict[int, Rational]:
    """[x, y] for x and y given by their nonzero (k, c) terms (1-based),
    summed over the nonzero brackets of g."""
    table, acc = g._lookup, {}
    for a, xa in x:
        for b, yb in y:
            for k, c in table.get((a, b), ()):
                acc[k] = acc[k] + xa * yb * c if k in acc else xa * yb * c
    return acc


class Subalgebra(FrozenRecord):
    """A subalgebra of `algebra` spanned by `basis` (canonical form)."""

    __slots__ = ("algebra", "basis", "name")

    def __init__(self, algebra: LieAlgebra, basis: SubspaceBasis, name: str = "") -> None:
        set_fields(self, algebra=algebra, basis=basis, name=name)

    @classmethod
    def span(cls, g: LieAlgebra, vectors: Sequence[Sequence], name: str = "") -> "Subalgebra":
        return _closed_span(g, SubspaceBasis.span(vectors, g.dim), name)

    @property
    def dim(self) -> int:
        return self.basis.dim


def coordinate_subalgebra(g: LieAlgebra, indices: Sequence[int], name: str = "") -> Subalgebra:
    """Subalgebra spanned by the 1-based basis elements in `indices`."""
    for i in indices:
        if not 1 <= i <= g.dim:
            raise ValueError(f"basis index {i} out of range")
    return _closed_span(g, SubspaceBasis.coordinate(g.dim, sorted({i - 1 for i in indices})), name)


def _terms(col: Iterable[tuple[int, Rational]]) -> tuple[tuple[int, Rational], ...]:
    """A matrix column's entries with 1-based indices, as `LieAlgebra.table` keys them."""
    return tuple((i + 1, x) for i, x in col)


def _closed_span(g: LieAlgebra, span: SubspaceBasis, name: str) -> Subalgebra:
    """The subalgebra spanned by span, if every bracket of two of its basis
    vectors has coordinates in it."""
    cols = [_terms(col) for col in span.matrix.entries]
    brackets = (bracket_terms(g, x, y).items() for a, x in enumerate(cols) for y in cols[a + 1:])
    m = RationalMatrix.from_entries(g.dim, (((k - 1, c) for k, c in br) for br in brackets))
    if span.coordinate_matrix(m) is None:
        raise ValueError(f"span is not closed under the bracket ({name or 'subalgebra'})")
    return Subalgebra(g, span, name)


class LieAutomorphism(FrozenRecord):
    """An invertible bracket-preserving linear map, columns = images of e_j."""

    __slots__ = ("algebra", "matrix", "name")

    def __init__(self, algebra: LieAlgebra, matrix: RationalMatrix, name: str = "") -> None:
        set_fields(self, algebra=algebra, matrix=matrix, name=name)

    @classmethod
    def create(cls, g: LieAlgebra, matrix, name: str = "") -> "LieAutomorphism":
        m = matrix if isinstance(matrix, RationalMatrix) else RationalMatrix.from_rows(matrix)
        if m.shape != (g.dim, g.dim):
            raise ValueError("automorphism matrix shape does not match the algebra")
        if not is_automorphism(g, m):
            raise ValueError(f"matrix is not a Lie algebra automorphism of {g.name}")
        return cls(g, m, name)


def is_automorphism(g: LieAlgebra, m: RationalMatrix) -> bool:
    """Invertible and [m e_i, m e_j] = m [e_i, e_j] for all i < j, both sides
    summed over the nonzeros of m's columns and of the brackets."""
    n = g.dim
    if m.shape != (n, n) or rank(m) != n:
        return False
    cols = [_terms(col) for col in m.entries]
    for i in range(n):
        for j in range(i + 1, n):
            acc = bracket_terms(g, cols[i], cols[j])
            for k, c in g._lookup.get((i + 1, j + 1), ()):
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
    """The Lie algebra spanned by linearly independent integer matrices,
    each given as {(row, col): entry}, in that basis.

    Each matrix is flattened to a sparse column of ints (so under the number
    rule), and the commutator of two basis matrices is read in the echelon
    basis of their span, then mapped back to the given basis; a commutator
    outside the span is refused.
    """
    size = 1 + max((max(ij) for m in basis for ij in m), default=0)

    def flat(ms):
        cols = (tuple(sorted((i * size + j, x) for (i, j), x in m.items() if x)) for m in ms)
        return RationalMatrix(size * size, tuple(cols))

    given = flat(basis)
    span = image_basis(given)
    pairs = [(a, b) for a in range(len(basis)) for b in range(a + 1, len(basis))]
    coords = span.coordinate_matrix(flat(_commutator(basis[a], basis[b]) for a, b in pairs))
    if coords is None:
        raise ValueError(f"the matrices of {name} are not closed under the commutator")
    if span.matrix != given:  # so(n)'s basis is already its span's echelon basis
        coords = span.coordinate_matrix(given).inverse().mul(coords)
    table = coords.entries
    return LieAlgebra(name, len(basis), tuple(((a + 1, b + 1), _terms(t)) for (a, b), t in zip(pairs, table) if t))


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
