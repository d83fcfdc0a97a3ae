"""Shipped corpus: algebra library, prebuilt filtered models, cup examples.

Command-line file arguments of the form builtin:NAME resolve to the JSON
files under eqss/data (`documents.builtin_text`, re-exported here).
Everything in that directory is rebuilt here from the engine itself, so a
test can insist the shipped bytes match a fresh regeneration byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

from .cohomology import restricted_action
from .documents import (
    ActionEntry,
    ComplexEntry,
    InputDocument,
    _data_dir,
    builtin_names,
    builtin_text,
    cup_to_dict,
    serialize_document,
)
from .liealg import (
    LieAlgebra,
    LieAutomorphism,
    Subalgebra,
    coordinate_subalgebra,
    so_algebra,
    so_pairs,
    su2,
    u_algebra,
)
from .linalg import GradedComplex, RationalMatrix
from .obstructions import CupForm
from .spectral import product_action, product_model, twist_by_deck

__all__ = [
    "builtin_cups",
    "builtin_library",
    "builtin_models",
    "builtin_names",
    "builtin_text",
    "circle_base",
    "double_cover_base",
    "point_base",
    "regenerate",
    "render_all",
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
    if k < 1:
        raise ValueError("sphere dimension must be at least 1")
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
    if l < 2:
        raise ValueError("the pair needs l >= 2")
    g = so_algebra(l + 1)
    indices = [k + 1 for k, (i, j) in enumerate(so_pairs(l + 1)) if j <= l]
    return g, coordinate_subalgebra(g, indices, f"so{l}")


def so_pair_reflection(l: int) -> LieAutomorphism:
    """Conjugation by the rotation w = diag(1, ..., 1, -1, -1) of so(l+1).

    w normalizes so(l) and represents the nontrivial component of the
    normalizer; on the quotient sphere it acts as the antipodal map.
    A_ij picks up the sign s_i s_j with s = (1, ..., 1, -1, -1).
    """
    g = so_algebra(l + 1)
    s = [1] * (l - 1) + [-1, -1]
    pairs = so_pairs(l + 1)
    rows = [
        [s[i - 1] * s[j - 1] if t == u else 0 for u in range(g.dim)]
        for t, (i, j) in enumerate(pairs)
    ]
    return LieAutomorphism.create(g, rows, f"so{l + 1}_reflection")


# ---------------------------------------------------------------------------
# the shipped documents


def builtin_library() -> InputDocument:
    g2 = su2()
    so3 = so_algebra(3)
    so4 = so_algebra(4)
    so5 = so_algebra(5)
    u2 = u_algebra(2)
    algebras = {g.name: g for g in (g2, so3, so4, so5, u2)}

    _, so2 = so_pair(2)
    _, so3_in_so4 = so_pair(3)
    so3_in_so4 = Subalgebra(so4, so3_in_so4.basis, "so3_in_so4")
    _, so4_in_so5 = so_pair(4)
    so4_in_so5 = Subalgebra(so5, so4_in_so5.basis, "so4_in_so5")
    subalgebras = {
        "e3": Subalgebra.span(g2, [[0, 0, 1]], "e3"),
        "so2": so2,
        "so3_in_so4": so3_in_so4,
        "so4_in_so5": so4_in_so5,
        "u1": coordinate_subalgebra(u2, [1], "u1"),
    }

    su2_reflection = LieAutomorphism.create(
        g2, [[1, 0, 0], [0, -1, 0], [0, 0, -1]], "su2_reflection"
    )
    automorphisms = {"su2_reflection": su2_reflection}
    for l in (2, 3, 4):
        ref = so_pair_reflection(l)
        automorphisms[ref.name] = ref

    return InputDocument(algebras, subalgebras, automorphisms, {}, {})


def _entry_from_filtered(name: str, fc) -> ComplexEntry:
    return ComplexEntry(name, fc.complex, tuple(tuple(w) for w in fc.weights))


def builtin_models() -> InputDocument:
    g2 = su2()
    so3, so2 = so_pair(2)
    reflect = so_pair_reflection(2)
    ident = LieAutomorphism.create(so3, RationalMatrix.identity(3), "identity")

    double = product_model(double_cover_base(), so3, so2)
    swap = sheet_swap_maps()

    complexes = {}
    for name, fc in (
        ("su2_trivial", product_model(point_base(), g2)),
        ("s1_x_su2", product_model(circle_base(), g2)),
        ("s2_x_so3_so2", product_model(sphere_base(2), so3, so2)),
        ("s4_x_su2", product_model(sphere_base(4), g2)),
        ("s1_double_x_so3_so2", double),
        ("antipodal_twisted", twist_by_deck(double, swap, reflect)),
        ("antipodal_control", twist_by_deck(double, swap, ident)),
    ):
        complexes[name] = _entry_from_filtered(name, fc)

    deck_maps = product_action(double, swap, restricted_action(double.fiber, reflect))
    actions = {
        "antipodal_deck": ActionEntry("antipodal_deck", "s1_double_x_so3_so2", tuple(deck_maps))
    }
    return InputDocument({}, {}, {}, complexes, actions)


def builtin_cups() -> dict[str, CupForm]:
    return {
        "cup_line": CupForm.create(1, [[[1]]]),
        "cup_hyperbolic": CupForm.create(2, [[[0, 1], [1, 0]]]),
        "cup_definite": CupForm.create(2, [[[1, 0], [0, 1]]]),
    }


def render_all() -> dict[str, str]:
    """Canonical file contents for everything shipped under eqss/data."""
    out = {
        "library.json": serialize_document(builtin_library()),
        "models.json": serialize_document(builtin_models()),
    }
    for name, cup in builtin_cups().items():
        out[f"{name}.json"] = json.dumps(cup_to_dict(cup), indent=2, sort_keys=True) + "\n"
    return out


def regenerate(dest: Path | None = None) -> list[Path]:
    """Rewrite the data directory from the engine; returns the written paths."""
    directory = Path(dest) if dest is not None else _data_dir()
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in sorted(render_all().items()):
        path = directory / name
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written


if __name__ == "__main__":
    for p in regenerate():
        print(p)
