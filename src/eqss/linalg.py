"""Exact linear algebra over the rationals, and the one cochain complex type.

Everything downstream (cochain complexes, spectral sequence pages, fixed
subspaces of finite group actions) reduces to ranks, kernels and canonical
subspace bases computed here.  All arithmetic is exact, so no tolerance
ever enters, and every stored rational follows one number rule: an ``int``
when integral, a ``fractions.Fraction`` otherwise.  `as_vector` and `insert`
apply it once per vector: one type scan passes a vector of ints as it is, and
only any other vector goes through `as_fraction` entry by entry.
`RationalMatrix.from_entries` calls `as_fraction` per entry, as its columns
are short.  So integral matrices multiply and eliminate in ``int``
arithmetic.  ``Fraction(3) == 3`` and the two hash alike.

A `RationalMatrix` keeps only its nonzero entries, column by column, and a
`SubspaceBasis` is the matrix whose columns are its reduced echelon basis,
so a linear map acts on a whole basis by `RationalMatrix.mul`, and
coordinates over a basis are combined back into vectors the same way.
A product, reduction or coordinate matrix with an empty operand or a zero
basis is answered at once, so degrees of dimension zero cost nothing.
`GradedComplex` holds every complex the engine builds (Chevalley-Eilenberg,
relative, fixed, product and twisted).

One elimination serves the whole engine: `insert` adds a sparse vector to an
echelon basis keyed by pivot.  The vector is cleared of denominators and
made primitive by its gcd, then reduced by the stored vector at its lowest
nonzero index until that index is free, and stored there.  A matrix column
is already such a vector.  A rank counts the pivots; reduced echelon form is
insertion plus back substitution; a kernel and an image are one elimination
of the columns, each carrying the unit vector that records it
(`kernel_and_image`); the persistence pairs of a filtration are the
pivots of its differential's columns (`spectral._pairs`); and a quotient
N/D of subspaces is D's columns then N's inserted into one basis, the N
columns that take a new pivot representing it (`spectral.pages_inductive`).

Canonical form: every subspace is represented by the reduced echelon basis
of its span (pivot entries 1, zeros at the other pivots, pivots increasing).
Reduced echelon form is unique for a given span, which makes subspace
equality a matrix comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import GroupBoundError
from .records import FrozenRecord, set_field

__all__ = [
    "GROUP_BOUND",
    "GradedComplex",
    "GroupBoundError",
    "RationalMatrix",
    "SubspaceBasis",
    "check_chain_map",
    "echelon",
    "enumerate_group",
    "fixed_subspace",
    "image_basis",
    "insert",
    "kernel_and_image",
    "kernel_basis",
    "rank",
]

Rational = int | Fraction  # under the number rule: a Fraction is never integral
Vector = tuple[Rational, ...]

# The most elements enumerate_group builds before it calls a group infinite.
GROUP_BOUND = 10000

_ZERO = 0  # immutable, so one zero fills every dense vector


def as_fraction(x) -> Rational:
    """Coerce int / str ('p/q') / Fraction to the number rule: an int when
    integral, a Fraction otherwise.  Floats are rejected."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        return as_fraction(Fraction(x.strip()))
    raise TypeError(f"not an exact rational: {x!r}")


def _all_int(values: Iterable) -> bool:
    """Whether every value is an int, in one scan at C speed; a bool's type is not int."""
    return set(map(type, values)) <= {int}


def as_vector(entries: Sequence) -> Vector:
    v = tuple(entries)
    return v if _all_int(v) else tuple(map(as_fraction, v))


def _uniform(vectors: Sequence[Sequence], length: int | None, kind: str) -> tuple[list[Vector], int]:
    """The vectors under the number rule, and their common length: given,
    or read off the first."""
    conv = [as_vector(v) for v in vectors]
    width = len(conv[0]) if conv else length
    if width is None:
        raise ValueError(f"an empty matrix needs an explicit {kind} length")
    if length not in (None, width) or any(len(v) != width for v in conv):
        raise ValueError(f"ragged {kind}s")
    return conv, width


class RationalMatrix(FrozenRecord):
    """Sparse matrix of exact rationals, stored column by column.

    entries[j] holds the nonzero entries of column j as (row, value) pairs
    in increasing row order, each value under the number rule.  No zero is
    stored, so the form is canonical: == and hash mean matrix equality.  The
    constructor takes that form as given; `from_entries` builds it from
    pairs in any order and values of either type.  `rows`, `column` and
    `columns` are dense views.
    """

    __slots__ = ("nrows", "entries")

    def __init__(self, nrows: int, entries: tuple[tuple[tuple[int, Rational], ...], ...]) -> None:
        set_field(self, "nrows", nrows)
        set_field(self, "entries", entries)

    def _key(self) -> tuple:
        return (self.nrows, self.entries)

    @classmethod
    def from_entries(cls, nrows: int, columns: Iterable[Iterable[tuple[int, Rational]]]) -> "RationalMatrix":
        """From each column's (row, value) pairs, rows distinct and in any
        order; zero values are dropped and each value goes through
        `as_fraction` (most columns hold one or two entries, too few for a
        type scan to pay)."""
        return cls(nrows, tuple(tuple(sorted((i, as_fraction(x)) for i, x in col if x)) for col in columns))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], ncols: int | None = None) -> "RationalMatrix":
        conv, ncols = _uniform(rows, ncols, "row")
        return cls(len(conv), tuple(tuple((i, r[j]) for i, r in enumerate(conv) if r[j]) for j in range(ncols)))

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], nrows: int | None = None) -> "RationalMatrix":
        conv, nrows = _uniform(cols, nrows, "column")
        return cls(nrows, tuple(tuple((i, x) for i, x in enumerate(c) if x) for c in conv))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, tuple(((j, 1),) for j in range(n)))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls(nrows, ((),) * ncols)

    @property
    def ncols(self) -> int:
        return len(self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, len(self.entries))

    @property
    def rows(self) -> tuple[Vector, ...]:
        return tuple(zip(*self.columns())) if self.entries else ((),) * self.nrows

    def column(self, j: int) -> Vector:
        out = [_ZERO] * self.nrows
        for i, x in self.entries[j]:
            out[i] = x
        return tuple(out)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "RationalMatrix":
        out: list[list[tuple[int, Rational]]] = [[] for _ in range(self.nrows)]
        for j, col in enumerate(self.entries):
            for i, x in col:
                out[i].append((j, x))
        return RationalMatrix(self.ncols, tuple(map(tuple, out)))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def mul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        if not (self.nrows and self.entries and other.entries):
            return RationalMatrix.zeros(self.nrows, other.ncols)
        return RationalMatrix.from_entries(self.nrows, (acc.items() for acc in _product_columns(self, other)))

    def add(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._plus(other, False)

    def sub(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._plus(other, True)

    def _plus(self, other: "RationalMatrix", negate: bool) -> "RationalMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        out = []
        for a, b in zip(self.entries, other.entries):
            acc = dict(a)
            for i, x in b:
                if negate:
                    x = -x  # keeps the type; -1 * x would take Fraction's mixed-type path
                acc[i] = acc[i] + x if i in acc else x
            out.append(acc.items())
        return RationalMatrix.from_entries(self.nrows, out)

    def inverse(self) -> "RationalMatrix":
        n = self.ncols
        if self.nrows != n:
            raise ValueError("inverse of a non-square matrix")
        aug = (r + ((n + i, 1),) for i, r in enumerate(self.transpose().entries))
        red = SubspaceBasis.from_echelon(echelon(aug), 2 * n)
        if red.pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        # column i of red is row i of [I | inverse]
        rows = tuple(tuple((k - n, x) for k, x in col if k >= n) for col in red.matrix.entries)
        return RationalMatrix(n, rows).transpose()


def _product_columns(a: RationalMatrix, b: RationalMatrix) -> Iterable[dict[int, Rational]]:
    """Each column of a b in turn as row -> exact sum, zero sums kept."""
    for col in b.entries:
        acc: dict[int, Rational] = {}
        for k, y in col:
            for i, x in a.entries[k]:
                acc[i] = acc[i] + x * y if i in acc else x * y
        yield acc


def _product_is_zero(a: RationalMatrix, b: RationalMatrix) -> bool:
    """Whether a b = 0, decided column by column without building the product."""
    return not any(any(acc.values()) for acc in _product_columns(a, b))


def _dual(d: RationalMatrix, domain: Sequence[int], codomain: Sequence[int], odd: int) -> RationalMatrix:
    """(-1)^odd R S d^T S' R in one pass: x at (i, j) of d goes to
    (ncols-1-j, nrows-1-i), negated when odd + domain[j] + codomain[i] is odd."""
    out: list[list[tuple[int, Rational]]] = [[] for _ in range(d.nrows)]
    top = d.nrows - 1
    for b, j in enumerate(range(d.ncols - 1, -1, -1)):  # one int object b for a column's entries
        s = odd + domain[j]
        for i, x in d.entries[j]:
            out[top - i].append((b, -x if (s + codomain[i]) & 1 else x))
    return RationalMatrix(d.ncols, tuple(map(tuple, out)))


def insert(basis: dict[int, dict[int, int]], entries: Iterable[tuple[int, Rational]]) -> int | None:
    """Insert a sparse rational vector into a pivot-keyed echelon basis.

    basis maps each pivot to the stored integer vector whose lowest nonzero
    index it is.  The vector is scaled to a primitive integer dict (clearing
    denominators only if a value is not an int), reduced by the stored vector
    at its lowest nonzero index until that index is free, and stored there.
    Returns the pivot, or None if the vector reduces to zero (it lay in the span).
    """
    v = {k: x for k, x in entries if x}
    if not _all_int(v.values()):
        den = lcm(*(x.denominator for x in v.values()))
        v = {k: x.numerator * (den // x.denominator) for k, x in v.items()}
    v = _primitive(v)
    while v:
        p = min(v)
        w = basis.get(p)
        if w is None:
            basis[p] = v
            return p
        v = _eliminate(v, w, p)
    return None


def _primitive(v: dict[int, int]) -> dict[int, int]:
    g = gcd(*v.values())
    return v if g == 1 else {k: x // g for k, x in v.items()}


def _eliminate(v: dict[int, int], w: dict[int, int], p: int) -> dict[int, int]:
    """The primitive integer combination of v and w that is zero at p."""
    g = gcd(w[p], v[p])
    a, b = w[p] // g, v[p] // g
    out = {k: a * x for k, x in v.items()} if a != 1 else dict(v)
    for k, x in w.items():
        y = out.get(k, 0) - b * x
        if y:
            out[k] = y
        else:
            del out[k]
    return _primitive(out) if out else out


def _back_substitute(basis: dict[int, dict[int, int]]) -> None:
    """Clear every stored vector at the other pivots (reduced echelon form).

    Higher pivots are cleared first; a cleared vector is zero at every pivot
    but its own, so eliminating with it never brings back another pivot.
    """
    for p in sorted(basis, reverse=True):
        v = basis[p]
        for q in sorted(k for k in v if k != p and k in basis):
            v = _eliminate(v, basis[q], q)
        basis[p] = v


def echelon(rows: Iterable[Iterable[tuple[int, Rational]]]) -> dict[int, dict[int, int]]:
    """The pivot-keyed echelon basis of sparse rows given as (index, value)
    pairs, before back substitution: its keys are the pivots of the reduced
    echelon basis of their span (`SubspaceBasis.from_echelon`)."""
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        insert(basis, row)
    return basis


def _quotient(x: int, y: int) -> Rational:
    """x / y under the number rule: x // y when y divides x."""
    q, r = divmod(x, y)
    return Fraction(x, y) if r else q


def _reduced(w: dict[int, int], p: int, shift: int = 0) -> tuple[tuple[int, Rational], ...]:
    """w divided by its pivot entry w[p], unless that is 1, as sorted (index - shift, value) pairs."""
    pairs = sorted(w.items() if w[p] == 1 else ((k, _quotient(x, w[p])) for k, x in w.items()))
    return tuple((k - shift, x) for k, x in pairs) if shift else tuple(pairs)


class GradedComplex(FrozenRecord):
    """A cochain complex of rational spaces in degrees 0..top.

    differentials[k] maps degree k into degree k+1.  Every instance has
    d^2 = 0, so consumers never re-check it: `create`, the only constructor
    the engine calls (tests/test_source_guards.py), checks the shapes and
    makes the one d^2 = 0 check (`_product_is_zero`).
    """

    __slots__ = ("dims", "differentials")

    def __init__(self, dims: tuple[int, ...], differentials: tuple[RationalMatrix, ...]) -> None:
        set_field(self, "dims", dims)
        set_field(self, "differentials", differentials)

    def _key(self) -> tuple:
        return (self.dims, self.differentials)

    @classmethod
    def create(cls, dims: Sequence[int], differentials: Sequence[RationalMatrix], *,
               duality: Sequence[Sequence[int]] | None = None) -> "GradedComplex":
        """The complex; with duality, one self-dual under a pairing of degree k
        with top - k (the wedge on a unimodular Lie algebra's forms), from d_k
        for k < L = ceil(top / 2) and the parity duality[k][I] of the sign S_k
        of e^I ^ e^(I^c) for k <= L.  It builds d_{top-1-k} = (-1)^(k+1) R S_k
        d_k^T S_{k+1} R, R reversing positions (I -> I^c), and forms only the
        products with a given factor: one of two built ones is +-R S (a formed one)^T S R."""
        ds = tuple(int(d) for d in dims)
        if not ds or any(d < 0 for d in ds):
            raise ValueError("degree dimensions must be a nonempty list of nonnegative ints")
        diffs, top = tuple(differentials), len(ds) - 1
        given = top if duality is None else (top + 1) // 2
        if len(diffs) != given:
            raise ValueError(f"expected {given} differentials, got {len(diffs)}")
        if duality is not None and [len(p) for p in duality] != list(ds[:given + 1]):
            raise ValueError(f"expected parities of the {ds[:given + 1]} monomials of degrees 0..{given}")
        for k, m in enumerate(diffs):
            if m.shape != (ds[k + 1], ds[k]):
                raise ValueError(
                    f"differential {k} has shape {m.shape}, expected {(ds[k + 1], ds[k])}"
                )
        for k in range(top - 1 - given, -1, -1):
            diffs += (_dual(diffs[k], duality[k], duality[k + 1], k + 1),)
        for k in range(min(given, top - 1)):
            if not _product_is_zero(diffs[k + 1], diffs[k]):
                raise ValueError(f"d^2 != 0 between degrees {k} and {k + 2}")
        return cls(ds, diffs)

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def dim(self, k: int) -> int:
        return self.dims[k] if 0 <= k <= self.top else 0

    def differential(self, k: int) -> RationalMatrix:
        if 0 <= k < len(self.differentials):
            return self.differentials[k]
        return RationalMatrix.zeros(self.dim(k + 1), self.dim(k))


def check_chain_map(cx: GradedComplex, maps: Sequence[RationalMatrix]) -> None:
    """Refuse maps unless they are one square matrix per degree of cx commuting with d.

    Every shape is checked; the commute test runs only where d_k != 0, since
    both sides are the zero matrix of the same shape where d_k = 0.
    """
    if len(maps) != cx.top + 1:
        raise ValueError(f"expected {cx.top + 1} degree maps, got {len(maps)}")
    for k, m in enumerate(maps):
        if m.shape != (cx.dims[k], cx.dims[k]):
            raise ValueError(f"degree-{k} map has shape {m.shape}, expected square {cx.dims[k]}")
    for k in range(cx.top):
        d_k = cx.differential(k)
        if not d_k.is_zero() and maps[k + 1].mul(d_k) != d_k.mul(maps[k]):
            raise ValueError(f"maps do not commute with the differential at degree {k}")


def rank(m: RationalMatrix) -> int:
    """Rank over Q: the number of pivots the columns take, with no back substitution."""
    return len(echelon(m.entries))


class SubspaceBasis(FrozenRecord):
    """A subspace of Q^n, held as the matrix whose columns are its reduced
    echelon basis in increasing pivot order.

    The constructor takes the matrix as given, like RationalMatrix's;
    `span`, `image_basis` and the kernels build it.  Two SubspaceBasis
    objects are equal iff they describe the same subspace.  `vectors` is a
    dense view of the columns.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: RationalMatrix) -> None:
        set_field(self, "matrix", matrix)

    def _key(self) -> tuple:
        return (self.matrix,)

    @classmethod
    def span(cls, vectors: Sequence[Sequence], ambient: int) -> "SubspaceBasis":
        return image_basis(RationalMatrix.from_columns(vectors, ambient))

    @classmethod
    def from_echelon(cls, basis: dict[int, dict[int, int]], ambient: int) -> "SubspaceBasis":
        """The reduced echelon basis of the span of an `echelon` basis: back
        substitution, which rewrites basis in place, then each vector divided
        by its pivot entry."""
        _back_substitute(basis)
        return cls(RationalMatrix(ambient, tuple(_reduced(w, p) for p, w in sorted(basis.items()))))

    @classmethod
    def zero(cls, ambient: int) -> "SubspaceBasis":
        return cls(RationalMatrix.zeros(ambient, 0))

    @classmethod
    def full(cls, ambient: int) -> "SubspaceBasis":
        return cls(RationalMatrix.identity(ambient))

    @classmethod
    def coordinate(cls, ambient: int, indices: Sequence[int]) -> "SubspaceBasis":
        """Span of the unit vectors at strictly increasing indices, which are
        already in reduced echelon form."""
        idx = tuple(indices)
        if idx != tuple(sorted(set(idx))) or not all(0 <= i < ambient for i in idx):
            raise ValueError(f"coordinate indices {idx} are not increasing in range({ambient})")
        return cls(RationalMatrix(ambient, tuple(((i, 1),) for i in idx)))

    @property
    def ambient(self) -> int:
        return self.matrix.nrows

    @property
    def dim(self) -> int:
        return self.matrix.ncols

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(col[0][0] for col in self.matrix.entries)

    @property
    def vectors(self) -> tuple[Vector, ...]:
        return tuple(self.matrix.columns())

    def _at_pivots(self, m: RationalMatrix) -> RationalMatrix:
        """The entries of m's columns at the pivots, which are their
        coordinates in this basis if they lie in the subspace."""
        if m.nrows != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        if not (self.matrix.entries and m.entries):
            return RationalMatrix.zeros(self.dim, m.ncols)
        index = {p: i for i, p in enumerate(self.pivots)}
        return RationalMatrix(self.dim, tuple(tuple((index[i], x) for i, x in c if i in index) for c in m.entries))

    def reduce(self, m: RationalMatrix) -> RationalMatrix:
        """Each column of m less its combination of the basis at the pivots:
        zero at every pivot, and zero iff the column lies in the subspace."""
        coords = self._at_pivots(m)
        return m.sub(self.matrix.mul(coords)) if any(coords.entries) else m

    def coordinate_matrix(self, m: RationalMatrix) -> RationalMatrix | None:
        """The coordinates of every column of m in this basis, one column
        each, or None if some column lies outside the subspace."""
        coords = self._at_pivots(m)
        return coords if self.matrix.mul(coords) == m else None


def kernel_and_image(m: RationalMatrix, cols: Sequence[int]) -> tuple[SubspaceBasis, dict[int, dict[int, int]]]:
    """The canonical basis of {x in Q^ncols supported on cols : m x = 0},
    and the `echelon` basis of the span of those columns of m; cols increase.

    Each column j in cols, last first, is inserted with the unit entry
    (nrows + j, 1) that records it.  Only vectors with an image left (pivot
    below nrows) reduce later ones, so a column whose image reduces to zero
    is stored at nrows + j with its other entries at later, non-free
    columns: divided by its pivot entry it is a reduced echelon vector.
    """
    n, basis = m.nrows, {}
    for j in reversed(cols):
        insert(basis, m.entries[j] + ((n + j, 1),))
    kernel = (_reduced(w, p, n) for p, w in sorted(basis.items()) if p >= n)
    image = {p: {k: x for k, x in w.items() if k < n} for p, w in basis.items() if p < n}
    return SubspaceBasis(RationalMatrix(m.ncols, tuple(kernel))), image


def kernel_basis(m: RationalMatrix) -> SubspaceBasis:
    """Canonical basis of {x : m x = 0}."""
    return kernel_and_image(m, range(m.ncols))[0]


def image_basis(m: RationalMatrix) -> SubspaceBasis:
    """Canonical basis of the column span of m."""
    return SubspaceBasis.from_echelon(echelon(m.entries), m.nrows)


def enumerate_group(generators: Sequence[RationalMatrix], bound: int = GROUP_BOUND) -> list[RationalMatrix]:
    """All elements of the matrix group generated by `generators` (BFS).

    Raises GroupBoundError if the closure exceeds `bound` elements.  This is
    the finiteness check for group actions; fixed subspaces need only the
    generators.
    """
    if not generators:
        raise ValueError("no generators")
    n = generators[0].ncols
    for g in generators:
        if g.shape != (n, n):
            raise ValueError("generators must be square matrices of equal size")
    ident = RationalMatrix.identity(n)
    seen = {ident: None}  # insertion order is the order of discovery
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                prod = m.mul(g)
                if prod not in seen:
                    if len(seen) >= bound:
                        raise GroupBoundError(
                            f"group closure exceeded the bound of {bound} elements"
                        )
                    seen[prod] = None
                    nxt.append(prod)
        frontier = nxt
    return list(seen)


def fixed_subspace(maps: Sequence[RationalMatrix]) -> SubspaceBasis:
    """{v : M v = v for every M in the group generated by `maps`}.

    The kernel of the stacked (M_i - I) over the generators alone: a vector
    fixed by the generators is fixed by every product of them.  Whether the
    group is finite is `enumerate_group`'s question, not this one's.
    """
    if not maps:
        raise ValueError("no maps")
    n = maps[0].ncols
    if any(m.shape != (n, n) for m in maps):
        raise ValueError("maps must be square matrices of equal size")
    ident = RationalMatrix.identity(n)
    rows = tuple(r for m in maps for r in m.sub(ident).transpose().entries)
    return kernel_basis(RationalMatrix(n, rows).transpose())
