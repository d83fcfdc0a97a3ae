"""The document writer, and the shipped corpus (the JSON files under
src/eqss/data) built with it from the engine.

    python3 tools/corpus.py [DIR]

writes library.json, models.json and one file per cup example into DIR
(default: this checkout's src/eqss/data), with this checkout's src, and
prints each path written.  tests/test_documents.py requires the shipped
files to equal a fresh build byte for byte.

eqss only reads documents.  `serialize_document` and `cup_to_dict` write
them canonically, for this corpus, tools/ladder.py and the tests: rationals
by `render_rational`, entries sorted by name and object keys sorted, so
serialize(parse(text)) is a fixed point.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from eqss.cohomology import restricted_action  # noqa: E402
from eqss.documents import _SECTIONS, ActionEntry, ComplexEntry, InputDocument, render_rational  # noqa: E402
from eqss.library import (  # noqa: E402
    builtin_cups, circle_base, double_cover_base, point_base, sheet_swap_maps, so_pair, so_pair_reflection, sphere_base,
)
from eqss.liealg import LieAutomorphism, Subalgebra, coordinate_subalgebra, su2, u_algebra  # noqa: E402
from eqss.linalg import RationalMatrix  # noqa: E402
from eqss.obstructions import CupForm  # noqa: E402
from eqss.spectral import product_action, product_model, twist_by_deck  # noqa: E402


def _matrix_rows(m: RationalMatrix) -> list:
    return [[render_rational(x) for x in row] for row in m.rows]


def document_to_dict(doc: InputDocument) -> dict:
    """Plain-data form with sorted entries and canonical rationals."""
    payload: dict = {section: [] for section in _SECTIONS}
    for name, g in sorted(doc.algebras.items()):
        brackets = [[i, j, [render_rational(c) for c in coeffs]] for (i, j), coeffs in g.brackets]
        payload["lie_algebras"].append({"name": name, "dim": g.dim, "brackets": brackets})
    for name, h in sorted(doc.subalgebras.items()):
        basis = [[render_rational(c) for c in v] for v in h.basis.vectors]
        payload["subalgebras"].append({"name": name, "parent": h.algebra.name, "basis": basis})
    for name, a in sorted(doc.automorphisms.items()):
        payload["automorphisms"].append({"name": name, "algebra": a.algebra.name, "matrix": _matrix_rows(a.matrix)})
    for name, entry in sorted(doc.complexes.items()):
        differentials = [_matrix_rows(m) for m in entry.complex.differentials]
        item = {"name": name, "dims": list(entry.complex.dims), "differentials": differentials}
        if entry.weights is not None:
            item["filtration"] = [list(w) for w in entry.weights]
        payload["complexes"].append(item)
    for name, act in sorted(doc.actions.items()):
        maps = [_matrix_rows(m) for m in act.maps]
        payload["actions"].append({"name": name, "complex": act.complex_name, "maps": maps})
    return payload


def serialize_document(doc: InputDocument) -> str:
    return json.dumps(document_to_dict(doc), indent=2, sort_keys=True) + "\n"


def cup_to_dict(cup: CupForm) -> dict:
    return {"b2": cup.b2, "matrices": [_matrix_rows(m) for m in cup.matrices]}


def builtin_library() -> InputDocument:
    g2, u2 = su2(), u_algebra(2)
    reflection = LieAutomorphism.create(g2, [[1, 0, 0], [0, -1, 0], [0, 0, -1]], "su2_reflection")
    algebras = {g.name: g for g in (g2, u2)}
    subalgebras = {"e3": Subalgebra.span(g2, [[0, 0, 1]], "e3"), "u1": coordinate_subalgebra(u2, [1], "u1")}
    automorphisms = {reflection.name: reflection}
    for l in (2, 3, 4):
        g, h = so_pair(l)
        name = h.name if l == 2 else f"{h.name}_in_{g.name}"
        algebras[g.name], subalgebras[name] = g, Subalgebra(g, h.basis, name)
        reflection = so_pair_reflection(l)
        automorphisms[reflection.name] = reflection
    return InputDocument(algebras, subalgebras, automorphisms, {}, {})


def builtin_models() -> InputDocument:
    g2 = su2()
    so3, so2 = so_pair(2)
    reflect = so_pair_reflection(2)
    ident = LieAutomorphism.create(so3, RationalMatrix.identity(3), "identity")
    double, swap = product_model(double_cover_base(), so3, so2), sheet_swap_maps()
    models = {
        "su2_trivial": product_model(point_base(), g2),
        "s1_x_su2": product_model(circle_base(), g2),
        "s2_x_so3_so2": product_model(sphere_base(2), so3, so2),
        "s4_x_su2": product_model(sphere_base(4), g2),
        "s1_double_x_so3_so2": double,
        "antipodal_twisted": twist_by_deck(double, swap, reflect),
        "antipodal_control": twist_by_deck(double, swap, ident),
    }
    complexes = {name: ComplexEntry(name, fc.complex, tuple(map(tuple, fc.weights))) for name, fc in models.items()}
    deck_maps = product_action(double, swap, restricted_action(double.fiber, reflect))
    actions = {"antipodal_deck": ActionEntry("antipodal_deck", "s1_double_x_so3_so2", tuple(deck_maps))}
    return InputDocument({}, {}, {}, complexes, actions)


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
    """Write the corpus into dest (default: src/eqss/data); returns the written paths."""
    directory = Path(dest) if dest is not None else ROOT / "src" / "eqss" / "data"
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in sorted(render_all().items()):
        path = directory / name
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written


if __name__ == "__main__":
    for p in regenerate(sys.argv[1] if len(sys.argv) > 1 else None):
        print(p)
