"""Cohomology of finite rational cochain complexes.

Covers the absolute complex of a Lie algebra, the relative complex of a
pair (algebra, subalgebra), induced actions of finite automorphism groups on
cohomology, invariants of cohomology, and the cup product on absolute
cohomology.  The restrict-first route to invariants is
`spectral.invariant_filtered_complex` on the zero filtration.  Every complex
is a `linalg.GradedComplex`, re-exported here with `check_chain_map`.

Representatives are chosen canonically: in degree k they are the reduced
echelon basis of the cocycles that vanish at the pivots of the coboundary
space im d_{k-1}.  This is the canonical complement of the coboundaries in
the cocycles, so equal inputs always produce identical representative
vectors, and a class is read off a cocycle by reducing it by the
coboundaries.  One column elimination of d_k, on the columns off those
pivots, gives the representatives as its kernel and im d_k as its image.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .errors import require_count
from .forms import ce_complex, pull_back, relative_subcomplex, wedge
from .liealg import LieAlgebra, LieAutomorphism, Subalgebra
from .linalg import (
    GROUP_BOUND,
    GradedComplex,
    RationalMatrix,
    SubspaceBasis,
    Vector,
    check_chain_map,
    enumerate_group,
    fixed_subspace,
    kernel_and_image,
)
from .records import FrozenRecord, set_fields

__all__ = [
    "CohomologyResult",
    "GradedComplex",
    "MAX_FORM_ENTRIES",
    "RelativeModel",
    "check_chain_map",
    "action_on_cohomology",
    "cohomology",
    "cup_product",
    "invariant_cohomology",
    "lie_cohomology",
    "relative_model",
    "restricted_action",
]

# The largest route size relative_model accepts, in the units of its checks:
# entries of dense differentials on the absolute route; monomials of Lambda(g),
# then entries of a dense kernel and lift, on the relative one.  Forms and
# bases are sparse, so every count is an upper bound on what a route holds.
# Measured in process with Python 3.11 on 2 vCPUs, model and cohomology
# after import: so(6) absolute (145,422,675 entries, refused) takes 0.8-1.1 s
# (0.6-0.75 s of it ce_complex) and 45 MB, so(7)/so(6) (2^21 monomials)
# 0.007 s and 16 MB, and so(9)/so(8) (2^36, refused) 0.007 s and 16 MB.
MAX_FORM_ENTRIES = 3_000_000

# The matrix and the space of a degree of dimension zero, which costs nothing.
_EMPTY, _NOTHING = RationalMatrix.zeros(0, 0), SubspaceBasis.zero(0)


class CohomologyResult(FrozenRecord):
    """Cohomology of a GradedComplex with canonical representative cocycles.

    classes[k] is the basis of representatives in degree k, and
    `representatives` is its dense view.  The representatives need only the
    pivots of the coboundaries, so `cohomology` keeps echelons[k], the
    echelon basis of im d_{k-1} from the pass that gave classes[k-1], and
    `coboundary(k)` turns it (in place) into the reduced echelon basis the
    first time a class is expressed in degree k, then keeps that.  dims[k]
    = dim H^k is stored once.  Only complex and classes take part in == and
    hash.
    """

    __slots__ = ("complex", "classes", "echelons", "dims", "_coboundaries")
    _fields = ("complex", "classes")

    def __init__(self, complex: GradedComplex, classes: tuple[SubspaceBasis, ...],
                 echelons: tuple[dict[int, dict[int, int]], ...]) -> None:
        set_fields(self, complex=complex, classes=classes, echelons=echelons,
                   dims=tuple(c.dim for c in classes), _coboundaries={})

    def coboundary(self, k: int) -> SubspaceBasis:
        """The reduced echelon basis of im d_{k-1}, built once."""
        got = self._coboundaries.get(k)
        if got is None:
            got = self._coboundaries[k] = SubspaceBasis.from_echelon(self.echelons[k], self.complex.dims[k])
        return got

    @property
    def representatives(self) -> tuple[tuple[Vector, ...], ...]:
        return tuple(c.vectors for c in self.classes)

    def express_columns(self, k: int, m: RationalMatrix) -> RationalMatrix:
        """Coordinates of the class of each cocycle column of m in the
        representative basis of H^k.

        Reducing a cocycle by the coboundaries leaves a cocycle that vanishes
        at their pivots, a combination of the representatives alone.
        """
        coords = self.classes[k].coordinate_matrix(self.coboundary(k).reduce(m))
        if coords is None:
            raise ValueError(f"vector is not a cocycle in degree {k}")
        return coords


def cohomology(cx: GradedComplex) -> CohomologyResult:
    classes, echelons = [], [{}]
    for k, dim in enumerate(cx.dims):
        if dim:
            # e_p at a coboundary pivot p is a coboundary less columns off the pivots: those span im d_k
            cols = [j for j in range(dim) if j not in echelons[k]]
            kernel, image = kernel_and_image(cx.differential(k), cols)
        else:
            kernel, image = _NOTHING, {}
        classes.append(kernel)
        echelons.append(image)
    return CohomologyResult(cx, tuple(classes), tuple(echelons[:-1]))


class RelativeModel(FrozenRecord):
    """The relative complex of a pair, with its embedding into the forms.

    bases[k] identifies degree k of the abstract complex with a subspace of
    the full space of k-forms; the trivial subalgebra recovers the absolute
    complex with identity embeddings.
    """

    __slots__ = ("algebra", "subalgebra", "complex", "bases")

    def __init__(self, algebra: LieAlgebra, subalgebra: Subalgebra, complex: GradedComplex,
                 bases: tuple[SubspaceBasis, ...]) -> None:
        set_fields(self, algebra=algebra, subalgebra=subalgebra, complex=complex, bases=bases)


def relative_model(g: LieAlgebra, h: Subalgebra | None = None) -> RelativeModel:
    """The complex C(g, h) = (Lambda(g/h)*)^h in the basis of its forms.

    For h = 0 this is the full Chevalley-Eilenberg complex with identity
    bases.  Otherwise `relative_subcomplex` builds the small complex alone:
    its bases, the lifted kernel of h's isotropy action (`_constraint`), and
    d from the bracket of g/h, read in the next degree's basis; a d that
    leaves it raises AssertionError.  Algebras that fail the Jacobi
    identity are refused in both cases.

    Before any form is built, the size of the route is checked against
    MAX_FORM_ENTRIES.  The absolute route counts the sum_k C(n,k) C(n,k+1)
    = C(2n, n-1) entries (Vandermonde) of its differentials as dense
    matrices.  The relative route counts the 2^n monomials of the
    n-dimensional algebra, and then, with m = dim g - dim h, the
    sum_k C(m,k) C(n,k) = C(n+m, m) entries of a kernel over the horizontal
    monomials and its lift to the forms on g, as dense vectors.  It holds
    its forms sparsely and converts monomials and positions by arithmetic,
    so both of its counts are upper bounds.  Both first counts are at least
    2^n, so past dim 64 that bound names the size: the count itself may have
    more digits than an int converts to a string.
    """
    if h is None:
        h = Subalgebra(g, SubspaceBasis.zero(g.dim), name="0")
    if h.algebra != g:
        raise ValueError("subalgebra belongs to a different algebra")
    n = g.dim
    route = "relative" if h.dim else "absolute"
    if n > 64:  # both counts are at least 2^n: refuse without forming either
        size = f"at least 2^{n}"
    elif h.dim:
        size = 2**n
    else:
        size = comb(2 * n, n - 1) if n else 0
    if n > 64 or size > MAX_FORM_ENTRIES:
        raise ValueError(
            f"the {route} complex of {g.name} (dim {n}) needs {size} form entries,"
            f" more than the limit of {MAX_FORM_ENTRIES}"
        )
    m = n - h.dim
    if h.dim and comb(n + m, m) > MAX_FORM_ENTRIES:
        raise ValueError(
            f"the relative complex of {g.name} (dim {n}) over a subalgebra of codimension {m}"
            f" needs {comb(n + m, m)} kernel and lift entries, more than the limit of {MAX_FORM_ENTRIES}"
        )
    if h.dim == 0:
        cx = ce_complex(g)
        return RelativeModel(g, h, cx, tuple(SubspaceBasis.full(d) for d in cx.dims))
    spaces, diffs = relative_subcomplex(g, h)
    cx = GradedComplex.create(tuple(s.dim for s in spaces), diffs)
    return RelativeModel(g, h, cx, tuple(spaces))


def lie_cohomology(g: LieAlgebra, h: Subalgebra | None = None) -> CohomologyResult:
    return cohomology(relative_model(g, h).complex)


def restricted_action(model: RelativeModel, aut: LieAutomorphism) -> list[RationalMatrix]:
    """Per-degree matrices of the form pullback on the model's complex.

    Only the model's basis forms are pulled back.  Fails if the automorphism
    does not preserve the relative subcomplex (i.e. does not normalize the
    subalgebra pair in the right way).
    """
    if aut.algebra != model.algebra:
        raise ValueError("automorphism belongs to a different algebra")
    out = []
    images = pull_back(aut, [basis.matrix for basis in model.bases])
    for k, (basis, image) in enumerate(zip(model.bases, images)):
        m = basis.coordinate_matrix(image)
        if m is None:
            raise ValueError(f"automorphism does not preserve the relative subcomplex in degree {k}")
        out.append(m)
    return out


def action_on_cohomology(result: CohomologyResult, maps: Sequence[RationalMatrix]) -> list[RationalMatrix]:
    """Induced action on each H^k of a chain map given degreewise; the 0 x 0
    matrix where H^k = 0."""
    check_chain_map(result.complex, maps)
    pairs = enumerate(zip(maps, result.classes))
    return [result.express_columns(k, m.mul(reps.matrix)) if reps.dim else _EMPTY for k, (m, reps) in pairs]


class InvariantCohomology(FrozenRecord):
    __slots__ = ("dims", "bases")

    def __init__(self, dims: tuple[int, ...], bases: tuple[SubspaceBasis, ...]) -> None:
        set_fields(self, dims=dims, bases=bases)  # bases[k] inside H^k, in representative coordinates


def invariant_cohomology(
    result: CohomologyResult,
    generators: Sequence[Sequence[RationalMatrix]],
    bound: int = GROUP_BOUND,
) -> InvariantCohomology:
    """Fixed part of cohomology; GroupBoundError if the group acting on a
    nonzero H^k passes bound.  A degree with H^k = 0 carries the trivial
    group, which no bound refuses, so it needs no enumeration."""
    require_count(bound, "the group bound")
    acts = [action_on_cohomology(result, maps) for maps in generators]
    bases = []
    for k, dim in enumerate(result.dims):
        gens = [a[k] for a in acts]
        if gens and dim:
            enumerate_group(gens, bound=bound)
            bases.append(fixed_subspace(gens))
        else:
            bases.append(SubspaceBasis.full(dim))
    return InvariantCohomology(tuple(b.dim for b in bases), tuple(bases))


def cup_product(
    g: LieAlgebra,
    result: CohomologyResult,
    p: int,
    u_class: Sequence,
    q: int,
    v_class: Sequence,
) -> Vector:
    """Cup product on absolute cohomology, in representative coordinates.

    u_class and v_class are coordinates over the representative bases of
    H^p and H^q; the result is given over the basis of H^{p+q}.  Degrees
    beyond the algebra dimension give the empty (zero) space; negative
    degrees are refused.
    """
    n = g.dim
    if result.complex.dims != tuple(comb(n, k) for k in range(n + 1)):
        raise ValueError("cup product needs the absolute complex of the algebra")
    require_count(p, "the degree p")
    require_count(q, "the degree q")
    if p + q > n:
        return ()
    forms = []
    for k, coords in ((p, u_class), (q, v_class)):
        cs, reps = RationalMatrix.from_columns([coords]), result.classes[k]
        if cs.nrows != reps.dim:
            raise ValueError(f"expected {reps.dim} class coordinates, got {cs.nrows}")
        forms.append(reps.matrix.mul(cs))
    u, v = forms
    return result.express_columns(p + q, wedge(n, p, u.entries[0], q, v)).column(0)
