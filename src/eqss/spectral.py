"""Spectral sequences of finite filtered cochain complexes.

A filtration is given by a nonnegative weight per basis vector; F^p is
spanned by the vectors of weight >= p, and the differential must not lower
weight.  FilteredComplex checks this when it is constructed, so every page
and audit below takes its input as valid.  Pages come in closed form from
the persistence pairing of the filtration (Edelsbrunner-Letscher-Zomorodian;
Romero-Rubio-Sergeraert): one column reduction of each d_n, with columns and
rows ordered by decreasing weight, pairs a source of weight a in degree n
with a target of weight b >= a in degree n + 1, which d_{b-a} kills.  Then

    dim E_r^{p,n-p} = #(degree-n basis vectors of weight p)
                      - #(those among them in a pair with b - a < r).

The inductive Ker/Im recursion is also implemented (pages_inductive) as an
independent cross-check that shares none of the pairing code: E_r^p is
Z_r^p / (Z_{r-1}^{p+1} + d Z_{r-1}^{p-r+1}), each distinct presentation is
one `insert` pass (the denominator's columns, then the numerator's) built
once, and each d_r is ranked by inserting d of the representatives into a
copy of the target's kept denominator echelon.  Every
stabilization run audits convergence: for each total degree n the E-infinity
dimensions across p+q = n must sum to dim H^n computed directly by ranks.
An audit failure means an engine bug and raises SpectralAuditError.

The product model builds base tensor relative-Chevalley-Eilenberg complexes
filtered by base degree, with d = d_base (x) 1 + (-1)^p 1 (x) d_fiber
assembled from Kronecker blocks, and twist_by_deck cuts out the subcomplex
invariant under a finite diagonal deck action (base map (x) fiber map, the
same blocks).  With each degree's basis in weight order every F^p is a tail
of the coordinates, so the reduced echelon basis of the fixed space is
weight-adapted: each vector takes the weight of its pivot.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Sequence

from .errors import SpectralAuditError, require_count, require_counts
from .linalg import (
    GradedComplex,
    Rational,
    RationalMatrix,
    SubspaceBasis,
    Vector,
    check_chain_map,
    echelon,
    enumerate_group,
    fixed_subspace,
    image_basis,
    insert,
    kernel_basis,
    rank,
)
from .records import FrozenRecord, set_fields

if TYPE_CHECKING:
    from .cohomology import RelativeModel
    from .liealg import LieAlgebra, LieAutomorphism, Subalgebra

__all__ = [
    "DeckAction",
    "FilteredComplex",
    "FilteredComplexError",
    "MAX_PAGES",
    "Page",
    "PageTable",
    "ProductComplex",
    "SpectralAuditError",
    "invariant_filtered_complex",
    "pages_inductive",
    "product_action",
    "product_model",
    "run_to_stabilization",
    "twist_by_deck",
]


# run_to_stabilization builds max(max weight + 2, max_page) + 1 pages; the
# shipped models need at most 10.
MAX_PAGES = 1000


class FilteredComplexError(ValueError):
    pass


def _lowered_weight(
    m: RationalMatrix, src: Sequence[int], tgt: Sequence[int]
) -> tuple[int, int] | None:
    """First (j, i), column by column, where m sends source vector j into
    target vector i of lower weight (tgt[i] < src[j]); None if m never does."""
    for j, (wj, col) in enumerate(zip(src, m.entries)):
        for i, _ in col:
            if tgt[i] < wj:
                return j, i
    return None


class FilteredComplex(FrozenRecord):
    """A cochain complex with a basis-adapted decreasing filtration.

    Construction checks the filtration (one int weight >= 0 per basis
    vector, by `require_counts`, and d never lowers weight), so every
    instance is valid.  d^2 = 0 is an invariant of GradedComplex.
    """

    __slots__ = ("complex", "weights")

    def __init__(self, complex: GradedComplex, weights: tuple[tuple[int, ...], ...]) -> None:
        set_fields(self, complex=complex, weights=weights)
        cx, ws = complex, weights
        if len(ws) != cx.top + 1:
            raise FilteredComplexError(f"expected weights for {cx.top + 1} degrees, got {len(ws)}")
        for n, degree_ws in enumerate(ws):
            if len(degree_ws) != cx.dims[n]:
                raise FilteredComplexError(
                    f"degree {n} has {cx.dims[n]} basis vectors but {len(degree_ws)} weights"
                )
            require_counts(degree_ws, f"filtration weights[{n}]")
        for n in range(cx.top):
            hit = _lowered_weight(cx.differential(n), ws[n], ws[n + 1])
            if hit is not None:
                j, i = hit
                raise FilteredComplexError(
                    f"differential lowers filtration: degree {n} vector {j} "
                    f"(weight {ws[n][j]}) hits degree {n + 1} vector {i} "
                    f"(weight {ws[n + 1][i]})"
                )

    @classmethod
    def create(cls, cx: GradedComplex, weights: Sequence[Sequence[int]]) -> "FilteredComplex":
        return cls(cx, tuple(map(tuple, weights)))

    @property
    def max_weight(self) -> int:
        return max((w for ws in self.weights for w in ws), default=0)

    def level_indices(self, n: int, p: int) -> tuple[int, ...]:
        """Basis indices of F^p in degree n."""
        if n < 0 or n > self.complex.top:
            return ()
        return tuple(i for i, w in enumerate(self.weights[n]) if w >= p)

    def level_space(self, n: int, p: int) -> SubspaceBasis:
        return SubspaceBasis.coordinate(self.complex.dim(n), self.level_indices(n, p))


class Page(FrozenRecord):
    """E_r: its nonzero dims as (p, q, dim) triples, sorted by p, then p + q."""

    __slots__ = ("r", "entries")

    def __init__(self, r: int, entries: tuple[tuple[int, int, int], ...]) -> None:
        set_fields(self, r=r, entries=entries)

    def dims(self) -> dict[tuple[int, int], int]:
        return {(p, q): dim for p, q, dim in self.entries}

    def total_dims(self, top: int) -> tuple[int, ...]:
        sums = [0] * (top + 1)
        for p, q, dim in self.entries:
            if 0 <= p + q <= top:
                sums[p + q] += dim
        return tuple(sums)


class PageTable(FrozenRecord):
    """All pages up to the stabilization bound, with E-infinity summary."""

    __slots__ = ("filtered", "pages", "stabilized_at", "einf", "total_cohomology")

    def __init__(self, filtered: FilteredComplex, pages: tuple[Page, ...], stabilized_at: int,
                 einf: dict, total_cohomology: tuple[int, ...]) -> None:
        set_fields(self, filtered=filtered, pages=pages, stabilized_at=stabilized_at, einf=einf,
                   total_cohomology=total_cohomology)


def _pairs(fc: FilteredComplex) -> list[tuple[int, int, int]]:
    """Persistence pairs (n, a, b): one column reduction per differential.

    The columns of d_n are inserted in order of decreasing weight into one
    echelon basis whose indices are the rows in order of increasing weight.
    A column is reduced only by earlier columns, which lie in F^a, so it
    stays d of a chain of weight a.  Its pivot, the lowest index, is its
    lowest-weight nonzero row, of weight b >= a, and d_{b-a} kills the pair:
    source in degree n, target in degree n + 1.
    """
    cx, ws = fc.complex, fc.weights
    out = []
    for n in range(cx.top):
        d = cx.differential(n)
        rows = sorted(range(cx.dims[n + 1]), key=lambda i: ws[n + 1][i])
        index = {i: k for k, i in enumerate(rows)}
        basis: dict[int, dict[int, int]] = {}
        for j in sorted(range(cx.dims[n]), key=lambda j: -ws[n][j]):
            low = insert(basis, ((index[i], x) for i, x in d.entries[j]))
            if low is not None:
                out.append((n, ws[n][j], ws[n + 1][rows[low]]))
    return out


def _page_from_pairs(fc: FilteredComplex, pairs: list[tuple[int, int, int]], r: int) -> Page:
    """dim E_r^{p, n-p}: the degree-n basis vectors of weight p, less those in
    a pair whose gap b - a is below r (killed by d_0, ..., d_{r-1})."""
    dims = Counter((p, n) for n, ws in enumerate(fc.weights) for p in ws)
    for n, a, b in pairs:
        if b - a < r:
            dims[(a, n)] -= 1
            dims[(b, n + 1)] -= 1
    return Page(r, tuple((p, n - p, dim) for (p, n), dim in sorted(dims.items()) if dim))


def _total_cohomology(cx: GradedComplex) -> tuple[int, ...]:
    ranks = [rank(cx.differential(n)) for n in range(cx.top)]
    out = []
    for n in range(cx.top + 1):
        r_out = ranks[n] if n < cx.top else 0
        r_in = ranks[n - 1] if n > 0 else 0
        out.append(cx.dims[n] - r_out - r_in)
    return tuple(out)


def _audit_convergence(fc: FilteredComplex, einf: Page, hdims: tuple[int, ...]) -> None:
    sums = einf.total_dims(fc.complex.top)
    for n, (got, want) in enumerate(zip(sums, hdims)):
        if got != want:
            raise SpectralAuditError(
                f"convergence audit failed in degree {n}: E-infinity dimensions sum to "
                f"{got} but dim H^{n} = {want}"
            )


def run_to_stabilization(fc: FilteredComplex, max_page: int | None = None) -> PageTable:
    """Compute pages through max weight + 2 (or further) and audit convergence.

    Refuses, before building any page, to build more than MAX_PAGES pages.
    """
    rmax = max(fc.max_weight + 2, 0 if max_page is None else require_count(max_page, "max_page"))
    if rmax + 1 > MAX_PAGES:
        raise ValueError(f"{rmax + 1} pages requested, more than the limit of {MAX_PAGES}")
    pairs = _pairs(fc)
    pages = tuple(_page_from_pairs(fc, pairs, r) for r in range(rmax + 1))
    einf_page = pages[fc.max_weight + 1]
    # page r is E-infinity exactly when every pair's gap b - a is below r
    stabilized_at = max((b - a + 1 for _, a, b in pairs), default=0)
    hdims = _total_cohomology(fc.complex)
    _audit_convergence(fc, einf_page, hdims)
    return PageTable(fc, pages, stabilized_at, einf_page.dims(), hdims)


class _ZChain:
    """Memoized spaces Z_s^p(n) = {a in F^p C^n : da in F^{p+s}}.

    Built by refining Z_{s-1} with one weight level of constraints at a
    time, so the construction shares nothing with the persistence pairs.
    A level that constrains nothing gives back Z_{s-1} itself, with no
    elimination; no level past the top weight constrains anything.
    """

    def __init__(self, fc: FilteredComplex):
        self.fc = fc
        self.cx = fc.complex
        self._memo: dict[tuple[int, int, int], SubspaceBasis] = {}

    def space(self, n: int, p: int, s: int) -> SubspaceBasis:
        cx = self.cx
        if n < 0 or n > cx.top:
            return SubspaceBasis.zero(0)
        if p < 0:
            # F^p = C^n for p <= 0; only the constraint target p + s matters.
            return self.space(n, 0, p + s)
        key = (n, p, max(s, 0))  # Z_s^p = F^p for s <= 0
        got = self._memo.get(key)
        if got is not None:
            return got
        if s <= 0:
            got = self._memo[key] = self.fc.level_space(n, p)
            return got
        prev = self.space(n, p, s - 1)
        rows = [i for i, w in enumerate(self.fc.weights[n + 1]) if w == p + s - 1] if n < cx.top else []
        if prev.dim == 0 or not rows or p + s - 1 < 0:
            self._memo[key] = prev
            return prev
        # d of prev's basis, read on the rows of weight p + s - 1 (in increasing order)
        index = {i: k for k, i in enumerate(rows)}
        images = cx.differential(n).mul(prev.matrix).entries
        on_rows = tuple(tuple((index[i], x) for i, x in col if i in index) for col in images)
        small = kernel_basis(RationalMatrix(len(rows), on_rows))
        cur = prev if small.dim == prev.dim else image_basis(prev.matrix.mul(small.matrix))
        self._memo[key] = cur
        return cur


def pages_inductive(fc: FilteredComplex, rmax: int | None = None) -> list[dict[tuple[int, int], int]]:
    """Page dimensions by the Ker/Im recursion, for cross-checking.

    E_r in degree n and filtration p is presented as N/D with N = Z_r^p
    and D = Z_{r-1}^{p+1} + d Z_{r-1}^{p-r+1} (page 0: D = F^{p+1}), in one
    elimination (`_presented`).  N needs no Z_{r-1}^{p+1} summand: F^{p+1}
    lies in F^p and both ask da in F^{p+r}, so Z_{r-1}^{p+1} lies in Z_r^p,
    as do the cocycles d Z_{r-1}^{p-r+1} of F^p; the audit that D lies in N
    checks dim(D + N) = dim N.  The Z spaces stop changing a few pages in,
    so each distinct presentation is built once per call.  d of the
    representatives must lie in the target's N', and rank d_r is the number
    of new pivots they take in the target's kept echelon of D'.  The
    dimensions predicted by rank counting must match the next page's
    presentation.  A failed audit raises SpectralAuditError.

    Refuses, before building any page, to build more than MAX_PAGES pages.
    """
    cx = fc.complex
    maxw = fc.max_weight
    rmax = maxw + 2 if rmax is None else require_count(rmax, "rmax")
    if rmax + 1 > MAX_PAGES:
        raise ValueError(f"{rmax + 1} pages requested, more than the limit of {MAX_PAGES}")
    zc = _ZChain(fc)
    built: dict[tuple, tuple] = {}

    def presentation(n: int, p: int, r: int) -> tuple:
        src = zc.space(n - 1, p - r + 1, r - 1) if r else None  # page 0: D = F^{p+1}
        key = (n, zc.space(n, p, r), zc.space(n, p + 1, r - 1), src)
        got = built.get(key)
        if got is None:
            _, num, den, _ = key
            cols = den.matrix.entries
            if src is not None and src.dim:
                cols += cx.differential(n - 1).mul(src.matrix).entries
            got = _presented(num.matrix.entries, cols)
            if len(got[0]) != num.dim:  # dim(D + N) = dim D + #reps
                raise SpectralAuditError(f"denominator escaped the numerator at (n,p,r)=({n},{p},{r})")
            built[key] = got
        return got

    out: list[dict[tuple[int, int], int]] = []
    predicted: dict[tuple[int, int], int] | None = None
    for r in range(rmax + 1):
        pres = {(n, p): presentation(n, p, r) for n in range(cx.top + 1) for p in range(maxw + 1)}
        dims_r = _quotient_dims(pres, {}, r)
        if predicted is not None and dims_r != predicted:
            raise SpectralAuditError(f"Ker/Im step prediction disagrees with the page {r} presentation")
        out.append(dims_r)
        if r == rmax:
            break
        ranks: dict[tuple[int, int], int] = {}
        for (n, p), (_, _, reps) in pres.items():
            target = pres.get((n + 1, p + r))
            if not reps or target is None or not target[2]:
                continue
            tnum, tden, _ = target
            img = cx.differential(n).mul(RationalMatrix(cx.dims[n], reps)).entries
            if _new_pivots(tnum, img):
                raise SpectralAuditError("differential left the page presentation")
            m = _new_pivots(tden, img)
            if m:
                ranks[(n, p)] = m
        predicted = _quotient_dims(pres, ranks, r)
    return out


def _presented(num: Sequence, den: Sequence) -> tuple[dict, dict, tuple]:
    """N/D from the columns of N and of D, in one elimination: the echelon
    basis of D + N, a shallow copy of it taken after D's columns (D's
    echelon; a stored vector is never changed in place), and the columns of
    N that take a new pivot after D's, which represent N mod D."""
    basis = echelon(den)
    kept = dict(basis)
    return basis, kept, tuple(col for col in num if insert(basis, col) is not None)


def _new_pivots(basis: dict, cols: Sequence) -> int:
    """How many of cols take a new pivot in a copy of an echelon basis."""
    basis = dict(basis)
    return sum(insert(basis, col) is not None for col in cols)


def _quotient_dims(pres: dict, ranks: dict[tuple[int, int], int], r: int) -> dict[tuple[int, int], int]:
    """dim N/D at each (p, q), from the echelon bases of N and of D, less
    the ranks of d_r out of it and into it."""
    dims = {}
    for (n, p), (num, den, _) in pres.items():
        d = len(num) - len(den) - ranks.get((n, p), 0) - ranks.get((n - 1, p - r), 0)
        if d:
            dims[(p, n - p)] = d
    return dims


# ---------------------------------------------------------------------------
# Product models and deck twists


class ProductComplex(FilteredComplex):
    """Base tensor relative-complex total complex, filtered by base degree.

    blocks[n] lists (p, q, start): coordinates start..start+size of degree n
    belong to base degree p and fiber degree q, ordered with the fiber index
    fastest.  Zero-size blocks are omitted.
    """

    __slots__ = ("base", "fiber", "blocks")

    def __init__(self, complex: GradedComplex, weights: tuple[tuple[int, ...], ...],
                 base: GradedComplex, fiber: RelativeModel, blocks: tuple) -> None:
        super().__init__(complex, weights)
        set_fields(self, base=base, fiber=fiber, blocks=blocks)


def _effective_top(cx: GradedComplex) -> int:
    top = 0
    for k, d in enumerate(cx.dims):
        if d:
            top = k
    return top


def product_model(base: GradedComplex, g: LieAlgebra, h: Subalgebra | None = None) -> ProductComplex:
    """Total complex base (x) relative complex of (g, h), filtered by base degree.

    d(b (x) w) = d_base(b) (x) w + (-1)^p b (x) d(w) on base degree p.
    """
    from .cohomology import relative_model

    fiber = relative_model(g, h)
    fcx = fiber.complex
    btop = _effective_top(base)
    ftop = _effective_top(fcx)
    top = btop + ftop
    dims = []
    blocks_all = []
    for n in range(top + 1):
        start = 0
        blocks = []
        for p in range(min(n, btop) + 1):
            q = n - p
            if q > ftop:
                continue
            size = base.dims[p] * fcx.dims[q]
            if size:
                blocks.append((p, q, start))
                start += size
        dims.append(start)
        blocks_all.append(tuple(blocks))

    starts = [{p: start for p, _, start in blocks} for blocks in blocks_all]
    diffs = []
    for n in range(top):
        cols: list[dict[int, Rational]] = [{} for _ in range(dims[n])]
        for p, q, start in blocks_all[n]:
            t1 = starts[n + 1].get(p + 1)
            if t1 is not None:  # d_base (x) 1
                _add_kron(cols, t1, start, base.differential(p), RationalMatrix.identity(fcx.dims[q]))
            t2 = starts[n + 1].get(p)
            if t2 is not None:  # (-1)^p 1 (x) d_fiber
                ident = RationalMatrix.identity(base.dims[p])
                _add_kron(cols, t2, start, ident, fcx.differential(q), -1 if p % 2 else 1)
        diffs.append(RationalMatrix.from_entries(dims[n + 1], (col.items() for col in cols)))
    cx = GradedComplex.create(tuple(dims), diffs)
    weights = tuple(
        tuple(p for p, q, start in blocks_all[n] for _ in range(base.dims[p] * fcx.dims[q]))
        for n in range(top + 1)
    )
    return ProductComplex(cx, weights, base, fiber, tuple(blocks_all))


def _add_kron(
    cols: list[dict[int, Rational]],
    row0: int,
    col0: int,
    a: RationalMatrix,
    b: RationalMatrix,
    sign: int = 1,
) -> None:
    """Add sign * (a (x) b) into sparse columns at offset (row0, col0), b's index fastest."""
    for i, acol in enumerate(a.entries):
        for j, bcol in enumerate(b.entries):
            out = cols[col0 + i * b.ncols + j]
            for i2, av in acol:
                r = row0 + i2 * b.nrows
                for j2, bv in bcol:
                    x = av * bv if sign > 0 else -(av * bv)
                    out[r + j2] = out[r + j2] + x if r + j2 in out else x


def product_action(
    model: ProductComplex,
    base_maps: Sequence[RationalMatrix],
    fiber_maps: Sequence[RationalMatrix],
) -> list[RationalMatrix]:
    """Blockwise tensor action (base map (x) fiber map) on the total complex."""
    out = []
    for n, size in enumerate(model.complex.dims):
        cols: list[dict[int, Rational]] = [{} for _ in range(size)]
        for p, q, start in model.blocks[n]:
            _add_kron(cols, start, start, base_maps[p], fiber_maps[q])
        out.append(RationalMatrix.from_entries(size, (col.items() for col in cols)))
    return out


class DeckAction(FrozenRecord):
    """A finite group acting on a filtered complex, one matrix per degree."""

    __slots__ = ("generators",)

    def __init__(self, generators: tuple[tuple[RationalMatrix, ...], ...]) -> None:
        set_fields(self, generators=generators)

    @classmethod
    def create(
        cls,
        fc: FilteredComplex,
        generators: Sequence[Sequence[RationalMatrix]],
    ) -> "DeckAction":
        gens = tuple(tuple(maps) for maps in generators)
        cx = fc.complex
        for maps in gens:
            check_chain_map(cx, maps)
            for n, (m, ws) in enumerate(zip(maps, fc.weights)):
                hit = _lowered_weight(m, ws, ws)
                if hit is not None:
                    j, i = hit
                    raise FilteredComplexError(
                        f"action lowers filtration in degree {n}: "
                        f"vector {j} (weight {ws[j]}) hits vector {i} (weight {ws[i]})"
                    )
        for n in range(cx.top + 1):
            mats = [maps[n] for maps in gens if cx.dims[n]]
            if mats:
                enumerate_group(mats)  # raises GroupBoundError past linalg.GROUP_BOUND
        return cls(gens)


def _permuted(m: RationalMatrix, rows: Sequence[int], cols: Sequence[int]) -> RationalMatrix:
    """m with its rows and columns put in the given orders (permutations)."""
    index = {i: k for k, i in enumerate(rows)}
    return RationalMatrix.from_entries(len(rows), (((index[i], x) for i, x in m.entries[j]) for j in cols))


def invariant_filtered_complex(
    fc: FilteredComplex,
    action: DeckAction,
) -> tuple[FilteredComplex, tuple[tuple[Vector, ...], ...]]:
    """Fixed subcomplex of a deck action, with a weight-adapted basis.

    Returns the restricted filtered complex and, per degree, the embedding
    vectors identifying its basis inside the original complex.  The action
    was checked to be finite when it was created, so only its generators
    are used here.  Each degree's basis is put in weight order by a stable
    sort (the identity for every ProductComplex), so every F^p is a tail of
    the coordinates.  The reduced echelon basis of the fixed space meets
    every tail in a sub-basis: a fixed vector in F^p has coefficient zero on
    each basis vector whose pivot lies before the tail.  So each basis
    vector takes the weight of its pivot, the basis is already in weight
    order, and d restricts by reading coordinates at the pivots.
    """
    cx = fc.complex
    orders = [sorted(range(d), key=ws.__getitem__) for d, ws in zip(cx.dims, fc.weights)]
    spaces = [
        fixed_subspace([_permuted(maps[n], order, order) for maps in action.generators])
        if action.generators else SubspaceBasis.full(len(order))
        for n, order in enumerate(orders)
    ]
    diffs = []
    for n in range(cx.top):
        d_n = _permuted(cx.differential(n), orders[n + 1], orders[n])
        diffs.append(spaces[n + 1].coordinate_matrix(d_n.mul(spaces[n].matrix)))
        if diffs[-1] is None:
            raise FilteredComplexError(
                f"fixed spaces are not closed under the differential at degree {n}"
            )
    new_cx = GradedComplex.create(tuple(s.dim for s in spaces), diffs)
    weights = [tuple(ws[order[p]] for p in s.pivots) for ws, order, s in zip(fc.weights, orders, spaces)]
    # back to the original coordinates: entry k of a vector sits at order[k]
    embeddings = tuple(
        tuple(tuple(x for _, x in sorted(zip(order, v))) for v in s.vectors)
        for order, s in zip(orders, spaces)
    )
    return FilteredComplex.create(new_cx, weights), embeddings


def twist_by_deck(
    fc: FilteredComplex,
    base_action: Sequence[RationalMatrix],
    coeff_action: LieAutomorphism,
) -> FilteredComplex:
    """Invariant subcomplex under the diagonal action base (x) induced-on-forms.

    The coefficient automorphism must preserve the subalgebra of the pair
    (otherwise it does not act on the relative complex), and the base action
    must commute with the base differential.
    """
    from .cohomology import restricted_action

    if not isinstance(fc, ProductComplex):
        raise TypeError("twist_by_deck needs the ProductComplex built by product_model")
    base_maps = list(base_action)
    check_chain_map(fc.base, base_maps)
    fiber_maps = restricted_action(fc.fiber, coeff_action)
    total = product_action(fc, base_maps, fiber_maps)
    deck = DeckAction.create(fc, [total])
    new_fc, _ = invariant_filtered_complex(fc, deck)
    return new_fc
