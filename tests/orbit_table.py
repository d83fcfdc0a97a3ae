"""The SU(2) orbit-type table, re-derived with the cohomology engine.

Each orbit type G/H of a nontrivial SU(2)-type action (S^3/Gamma, S^2,
RP^2 or a fixed point) has the cohomology of the pair (su2, h) for an
isotropy algebra h of the stated dimension, with RP^2 the invariants of
the antipodal reflection on S^2.  `orbit_table_verify` recomputes each
entry and returns an `obstructions.Verdict` that says "ok" or names the
first mismatch.  No command runs it, so it lives beside the tests.
"""

from __future__ import annotations

from typing import Sequence

from eqss.cohomology import cohomology, invariant_cohomology, lie_cohomology, relative_model, restricted_action
from eqss.liealg import LieAlgebra, LieAutomorphism, Subalgebra, coordinate_subalgebra, su2
from eqss.linalg import RationalMatrix
from eqss.obstructions import Verdict
from eqss.records import FrozenRecord, set_fields


class OrbitType(FrozenRecord):
    """One orbit type of an SU(2)-style action, with its expected cohomology;
    antipodal_invariants: quotient by the normalizer's two components."""

    __slots__ = ("orbit", "isotropy", "orbit_dim", "isotropy_dim", "cohomology", "antipodal_invariants")

    def __init__(self, orbit: str, isotropy: str, orbit_dim: int, isotropy_dim: int,
                 cohomology: tuple[int, ...], antipodal_invariants: bool = False) -> None:
        set_fields(self, orbit=orbit, isotropy=isotropy, orbit_dim=orbit_dim, isotropy_dim=isotropy_dim,
                   cohomology=cohomology, antipodal_invariants=antipodal_invariants)


def su2_orbit_table() -> tuple[OrbitType, ...]:
    return (
        OrbitType("S^3/Gamma", "finite subgroup", 3, 0, (1, 0, 0, 1)),
        OrbitType("S^2", "circle subgroup", 2, 1, (1, 0, 1)),
        OrbitType(
            "RP^2", "two circles (normalizer of a circle)", 2, 1, (1, 0, 0),
            antipodal_invariants=True,
        ),
        OrbitType("point", "the whole group", 0, 3, (1,)),
    )


def _orbit_cohomology(g: LieAlgebra, entry: OrbitType) -> tuple[int, ...]:
    if entry.isotropy_dim == 0:
        return lie_cohomology(g).dims
    if entry.isotropy_dim == g.dim:
        h = Subalgebra.span(g, RationalMatrix.identity(g.dim).columns(), name=g.name)
        return lie_cohomology(g, h).dims
    if entry.isotropy_dim == 1:
        h = coordinate_subalgebra(g, [3], name="e3")
        model = relative_model(g, h)
        result = cohomology(model.complex)
        if not entry.antipodal_invariants:
            return result.dims
        refl = LieAutomorphism.create(
            g, [[1, 0, 0], [0, -1, 0], [0, 0, -1]], name="antipodal"
        )
        maps = restricted_action(model, refl)
        return invariant_cohomology(result, [maps]).dims
    raise ValueError(f"no subalgebra of dimension {entry.isotropy_dim} in {g.name}")


def orbit_table_verify(table: Sequence[OrbitType] | None = None) -> Verdict:
    """Cross-check the orbit table against the cohomology engine."""
    if table is None:
        table = su2_orbit_table()
    if not table:
        return Verdict(
            False, "ok", "empty table: nothing verified (vacuous)", completeness="warning"
        )
    g = su2()
    for entry in table:
        if entry.orbit_dim != g.dim - entry.isotropy_dim:
            return Verdict(
                False,
                "mismatch",
                f"entry {entry.orbit}: orbit dimension {entry.orbit_dim}"
                f" != {g.dim} - {entry.isotropy_dim}",
            )
        try:
            computed = _orbit_cohomology(g, entry)
        except ValueError as exc:
            return Verdict(False, "mismatch", f"entry {entry.orbit}: {exc}")
        top = entry.orbit_dim
        if len(entry.cohomology) != top + 1:
            return Verdict(
                False,
                "mismatch",
                f"entry {entry.orbit}: expected {top + 1} cohomology dims,"
                f" table has {len(entry.cohomology)}",
            )
        if computed[: top + 1] != entry.cohomology or any(computed[top + 1 :]):
            return Verdict(
                False,
                "mismatch",
                f"entry {entry.orbit}: engine computed {list(computed)},"
                f" table says {list(entry.cohomology)}",
            )
    return Verdict(
        False,
        "ok",
        "all orbit types agree with the cohomology engine",
        citation=(
            "orbits of a nontrivial SU(2)-type action are S^3/Gamma, S^2, RP^2,"
            " or a fixed point"
        ),
    )
