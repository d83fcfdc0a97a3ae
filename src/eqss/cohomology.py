"""Cohomology of finite rational cochain complexes.

Covers the absolute complex of a Lie algebra, the relative complex of a
pair (algebra, subalgebra), induced actions of finite automorphism groups on
cohomology, invariant subspaces, and the cup product on absolute cohomology.

Representatives are chosen canonically: in each degree the cocycle space is
complemented against the coboundary space in echelon form, so equal inputs
always produce identical representative vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .forms import (
    ExteriorForm,
    ce_complex,
    differential_images,
    multi_indices,
    pull_back,
    relative_subcomplex,
    wedge,
)
from .liealg import LieAlgebra, LieAutomorphism, Subalgebra
from .linalg import (
    RationalMatrix,
    SubspaceBasis,
    Vector,
    as_vector,
    complement_in,
    fixed_subspace,
    image_basis,
    kernel_basis,
    solve,
)

__all__ = [
    "CohomologyResult",
    "GradedComplex",
    "RelativeModel",
    "absolute_complex",
    "check_chain_map",
    "action_on_cohomology",
    "cohomology",
    "cup_product",
    "fixed_subcomplex",
    "invariant_cohomology",
    "lie_cohomology",
    "relative_model",
    "restricted_action",
]


@dataclass(frozen=True)
class GradedComplex:
    """A cochain complex of rational spaces in degrees 0..top.

    differentials[k] maps degree k into degree k+1; d^2 = 0 is enforced
    at construction.
    """

    dims: tuple[int, ...]
    differentials: tuple[RationalMatrix, ...]

    @classmethod
    def create(cls, dims: Sequence[int], differentials: Sequence[RationalMatrix]) -> "GradedComplex":
        ds = tuple(int(d) for d in dims)
        if not ds or any(d < 0 for d in ds):
            raise ValueError("degree dimensions must be a nonempty list of nonnegative ints")
        diffs = tuple(differentials)
        if len(diffs) != len(ds) - 1:
            raise ValueError(f"expected {len(ds) - 1} differentials, got {len(diffs)}")
        for k, m in enumerate(diffs):
            if m.shape != (ds[k + 1], ds[k]):
                raise ValueError(
                    f"differential {k} has shape {m.shape}, expected {(ds[k + 1], ds[k])}"
                )
        for k in range(len(diffs) - 1):
            if not diffs[k + 1].mul(diffs[k]).is_zero():
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

    def euler_characteristic(self) -> int:
        return sum(d if k % 2 == 0 else -d for k, d in enumerate(self.dims))


@dataclass(frozen=True)
class CohomologyResult:
    """Cohomology of a GradedComplex with canonical representative cocycles."""

    complex: GradedComplex
    dims: tuple[int, ...]
    representatives: tuple[tuple[Vector, ...], ...]
    cocycles: tuple[SubspaceBasis, ...]
    coboundaries: tuple[SubspaceBasis, ...]

    def express(self, k: int, vec: Sequence) -> Vector:
        """Coordinates of a cocycle's class in the representative basis."""
        v = as_vector(vec)
        if k < 0 or k > self.complex.top:
            if any(v):
                raise ValueError("nonzero vector in a degree outside the complex")
            return ()
        if not self.cocycles[k].contains(v):
            raise ValueError(f"vector is not a cocycle in degree {k}")
        reps = self.representatives[k]
        cols = list(reps) + list(self.coboundaries[k].vectors)
        if not cols:
            return ()
        coords = solve(RationalMatrix.from_columns(cols, self.complex.dims[k]), v)
        assert coords is not None  # reps + coboundaries span the cocycles
        return coords[: len(reps)]


def cohomology(cx: GradedComplex) -> CohomologyResult:
    dims = []
    reps = []
    cocycles = []
    coboundaries = []
    for k in range(cx.top + 1):
        z = kernel_basis(cx.differential(k))
        b = image_basis(cx.differential(k - 1))
        rep = complement_in(z, b)
        d_k = cx.differential(k)
        for v in rep.vectors:
            assert not any(d_k.apply(v)), "representative is not a cocycle"
        dims.append(rep.dim)
        reps.append(rep.vectors)
        cocycles.append(z)
        coboundaries.append(b)
    return CohomologyResult(cx, tuple(dims), tuple(reps), tuple(cocycles), tuple(coboundaries))


def absolute_complex(g: LieAlgebra) -> GradedComplex:
    ce = ce_complex(g)
    n = g.dim
    dims = [len(multi_indices(n, k)) for k in range(n + 1)]
    return GradedComplex(tuple(dims), ce.differentials)


@dataclass(frozen=True)
class RelativeModel:
    """The relative complex of a pair, with its embedding into the forms.

    bases[k] identifies degree k of the abstract complex with a subspace of
    the full space of k-forms; the trivial subalgebra recovers the absolute
    complex with identity embeddings.
    """

    algebra: LieAlgebra
    subalgebra: Subalgebra
    complex: GradedComplex
    bases: tuple[SubspaceBasis, ...]


def relative_model(g: LieAlgebra, h: Subalgebra | None = None) -> RelativeModel:
    """The complex C(g, h) = (Lambda(g/h)*)^h in the basis of its forms.

    For h = 0 this is the full Chevalley-Eilenberg complex with identity
    bases.  Otherwise the small complex of `relative_subcomplex` is built
    without the full one: d of each basis form is computed from the
    structure constants over its nonzero monomials, and looking it up in the
    next degree's basis doubles as the closure check.  Algebras that fail
    the Jacobi identity are refused in both cases.
    """
    if h is None:
        h = Subalgebra(g, SubspaceBasis.zero(g.dim), name="0")
    if h.algebra != g:
        raise ValueError("subalgebra belongs to a different algebra")
    if h.dim == 0:
        cx = absolute_complex(g)
        return RelativeModel(g, h, cx, tuple(SubspaceBasis.full(d) for d in cx.dims))
    spaces = relative_subcomplex(g, h)
    diffs = []
    for k in range(g.dim):
        cols = []
        for w in differential_images(g, k, spaces[k].vectors):
            coords = spaces[k + 1].coordinates(w)
            if coords is None:
                raise AssertionError("relative subcomplex is not closed under d")
            cols.append(coords)
        diffs.append(RationalMatrix.from_columns(cols, spaces[k + 1].dim))
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
    for k, basis in enumerate(model.bases):
        cols = []
        for w in pull_back(aut, k, basis.vectors):
            coords = basis.coordinates(w)
            if coords is None:
                raise ValueError(
                    f"automorphism does not preserve the relative subcomplex in degree {k}"
                )
            cols.append(coords)
        out.append(RationalMatrix.from_columns(cols, basis.dim))
    return out


def check_chain_map(cx: GradedComplex, maps: Sequence[RationalMatrix]) -> None:
    if len(maps) != cx.top + 1:
        raise ValueError(f"expected {cx.top + 1} degree maps, got {len(maps)}")
    for k, m in enumerate(maps):
        if m.shape != (cx.dims[k], cx.dims[k]):
            raise ValueError(f"degree-{k} map has shape {m.shape}, expected square {cx.dims[k]}")
    for k in range(cx.top):
        d_k = cx.differential(k)
        if maps[k + 1].mul(d_k) != d_k.mul(maps[k]):
            raise ValueError(f"maps do not commute with the differential at degree {k}")


def action_on_cohomology(result: CohomologyResult, maps: Sequence[RationalMatrix]) -> list[RationalMatrix]:
    """Induced action on each H^k of a chain map given degreewise."""
    cx = result.complex
    check_chain_map(cx, maps)
    out = []
    for k in range(cx.top + 1):
        cols = [result.express(k, maps[k].apply(rep)) for rep in result.representatives[k]]
        out.append(RationalMatrix.from_columns(cols, result.dims[k]))
    return out


@dataclass(frozen=True)
class InvariantCohomology:
    dims: tuple[int, ...]
    bases: tuple[SubspaceBasis, ...]  # inside each H^k in representative coordinates


def invariant_cohomology(
    result: CohomologyResult,
    generators: Sequence[Sequence[RationalMatrix]],
    bound: int = 10000,
) -> InvariantCohomology:
    """Fixed part of cohomology under the finite group the generators produce."""
    acts = [action_on_cohomology(result, maps) for maps in generators]
    dims = []
    bases = []
    for k in range(result.complex.top + 1):
        gens_k = [a[k] for a in acts]
        fixed = fixed_subspace(gens_k, bound=bound) if gens_k else SubspaceBasis.full(result.dims[k])
        dims.append(fixed.dim)
        bases.append(fixed)
    return InvariantCohomology(tuple(dims), tuple(bases))


def fixed_subcomplex(
    cx: GradedComplex,
    generators: Sequence[Sequence[RationalMatrix]],
    bound: int = 10000,
) -> tuple[GradedComplex, tuple[SubspaceBasis, ...]]:
    """Degreewise fixed subspaces with the restricted differential.

    The second route to invariants: restrict first, then take cohomology.
    Over the rationals this matches taking invariants of cohomology.
    """
    for maps in generators:
        check_chain_map(cx, maps)
    spaces = []
    for k in range(cx.top + 1):
        gens_k = [maps[k] for maps in generators]
        spaces.append(fixed_subspace(gens_k, bound=bound) if gens_k else SubspaceBasis.full(cx.dims[k]))
    diffs = []
    for k in range(cx.top):
        d_k = cx.differential(k)
        cols = []
        for v in spaces[k].vectors:
            coords = spaces[k + 1].coordinates(d_k.apply(v))
            if coords is None:
                raise ValueError(f"differential does not preserve the fixed spaces at degree {k}")
            cols.append(coords)
        diffs.append(RationalMatrix.from_columns(cols, spaces[k + 1].dim))
    return GradedComplex.create(tuple(s.dim for s in spaces), diffs), tuple(spaces)


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
    beyond the algebra dimension give the empty (zero) space.
    """
    n = g.dim
    if result.complex.dims != tuple(len(multi_indices(n, k)) for k in range(n + 1)):
        raise ValueError("cup product needs the absolute complex of the algebra")
    if p + q > n:
        return ()
    u = _combine(result.representatives[p], u_class, len(multi_indices(n, p)))
    v = _combine(result.representatives[q], v_class, len(multi_indices(n, q)))
    w = wedge(ExteriorForm(n, p, u), ExteriorForm(n, q, v))
    return result.express(p + q, w.coeffs)


def _combine(vectors: Sequence[Vector], coeffs: Sequence, ambient: int) -> tuple[Fraction, ...]:
    cs = as_vector(coeffs)
    if len(cs) != len(vectors):
        raise ValueError(f"expected {len(vectors)} class coordinates, got {len(cs)}")
    out = [Fraction(0)] * ambient
    for c, vec in zip(cs, vectors):
        if c:
            for i, a in enumerate(vec):
                if a:
                    out[i] += c * a
    return tuple(out)
