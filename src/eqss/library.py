"""Pieces of the shipped corpus: base complexes, the orthogonal pair family
and the cup examples.

Command-line file arguments of the form builtin:NAME resolve to the JSON
files under eqss/data (`documents.builtin_text`, re-exported here).
`tools/corpus.py` builds that directory from these pieces and the engine,
so a test can insist the shipped bytes match a fresh build byte for byte.
"""

from __future__ import annotations

from .documents import builtin_names, builtin_text
from .errors import require_count
from .liealg import LieAlgebra, LieAutomorphism, Subalgebra, coordinate_subalgebra, so_algebra, so_pairs
from .linalg import GradedComplex, RationalMatrix
from .obstructions import CupForm

__all__ = [
    "builtin_cups",
    "builtin_names",
    "builtin_text",
    "circle_base",
    "double_cover_base",
    "point_base",
    "sheet_swap_maps",
    "so_pair",
    "so_pair_reflection",
    "sphere_base",
]


# ---------------------------------------------------------------------------
# base complexes (de Rham models with zero or near-zero differential)


def point_base() -> GradedComplex:
    return GradedComplex.create((1,), [])


def circle_base() -> GradedComplex:
    return GradedComplex.create((1, 1), [RationalMatrix.zeros(1, 1)])


def sphere_base(k: int) -> GradedComplex:
    """Minimal model of S^k: one generator each in degrees 0 and k."""
    require_count(k, "the sphere dimension k", 1)
    dims = [1] + [0] * (k - 1) + [1]
    diffs = [RationalMatrix.zeros(dims[t + 1], dims[t]) for t in range(k)]
    return GradedComplex.create(dims, diffs)


def double_cover_base() -> GradedComplex:
    """Two-sheet circle cover: d(u1) = (v1 - v2)/2 = -d(u2)."""
    from fractions import Fraction

    h = Fraction(1, 2)
    d = RationalMatrix.from_rows([[h, -h], [-h, h]])
    return GradedComplex.create((2, 2), [d])


def sheet_swap_maps() -> list[RationalMatrix]:
    swap = RationalMatrix.from_rows([[0, 1], [1, 0]])
    return [swap, swap]


# ---------------------------------------------------------------------------
# the orthogonal pair family and its normalizer reflection


def so_pair(l: int) -> tuple[LieAlgebra, Subalgebra]:
    """(so(l+1), so(l)) with so(l) spanned by the A_ij having i, j <= l."""
    require_count(l, "the pair's l", 2)
    g = so_algebra(l + 1)
    indices = [k + 1 for k, (i, j) in enumerate(so_pairs(l + 1)) if j <= l]
    return g, coordinate_subalgebra(g, indices, f"so{l}")


def so_pair_reflection(l: int) -> LieAutomorphism:
    """Conjugation by the rotation w = diag(1, ..., 1, -1, -1) of so(l+1).

    w normalizes so(l) and represents the nontrivial component of the
    normalizer; on the quotient sphere it acts as the antipodal map.
    A_ij picks up the sign s_i s_j with s = (1, ..., 1, -1, -1).
    """
    g = so_algebra(require_count(l, "the pair's l", 2) + 1)
    s = [1] * (l - 1) + [-1, -1]
    pairs = so_pairs(l + 1)
    rows = [
        [s[i - 1] * s[j - 1] if t == u else 0 for u in range(g.dim)]
        for t, (i, j) in enumerate(pairs)
    ]
    return LieAutomorphism.create(g, rows, f"so{l + 1}_reflection")


# ---------------------------------------------------------------------------
# the cup examples


def builtin_cups() -> dict[str, CupForm]:
    return {
        "cup_line": CupForm.create(1, [[[1]]]),
        "cup_hyperbolic": CupForm.create(2, [[[0, 1], [1, 0]]]),
        "cup_definite": CupForm.create(2, [[[1, 0], [0, 1]]]),
    }
