"""JSON input documents: algebras, subalgebra pairs, automorphisms, complexes.

One document carries five optional sections, each a list of named entries:

    lie_algebras   name, dim, brackets as triples [i, j, coefficients]
    subalgebras    name, parent, basis vectors in the parent's coordinates
    automorphisms  name, algebra, square matrix (columns = images)
    complexes      name, dims, differentials, optional filtration weights
    actions        name, complex, one square matrix per degree

Rational entries are JSON integers or strings "p/q"; floats are rejected
because they are not exact.  This module only reads documents; the
canonical writer is tools/corpus.py, and `render_rational` (an integer
when the denominator is 1, "p/q" otherwise) is the one rendering of a
rational that it and the command line share.

Malformed structure, bad rationals, and unresolved references raise
DocumentError.  Mathematical validation (Jacobi, closure of a subalgebra,
the automorphism property, d^2 = 0) is left to the engine constructors,
which raise ValueError; the command line maps the two kinds to different
exit codes.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import DocumentError
from .linalg import GradedComplex, Rational, RationalMatrix, as_fraction
from .records import FrozenRecord, set_fields

if TYPE_CHECKING:
    from .liealg import LieAlgebra, LieAutomorphism, Subalgebra
    from .obstructions import CupForm
    from .spectral import FilteredComplex

__all__ = [
    "ActionEntry",
    "ComplexEntry",
    "DocumentError",
    "InputDocument",
    "builtin_names",
    "builtin_text",
    "parse_cup_document",
    "parse_document",
    "parse_rational",
    "render_rational",
]


_RATIONAL = re.compile(r"-?\d+(/\d+)?\Z")


def parse_rational(value, where: str) -> Rational:
    """JSON integer or "p/q" string, under the number rule of `linalg`;
    anything else (floats, decimal strings, booleans) is rejected because
    the format is exact by contract."""
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str) and _RATIONAL.match(value):
        try:
            return as_fraction(Fraction(value))
        except ZeroDivisionError:
            raise DocumentError(f"{where}: {value!r} divides by zero") from None
        except ValueError as e:  # e.g. more digits than int() converts
            raise DocumentError(f"{where}: {e}") from None
    if isinstance(value, str):
        raise DocumentError(f"{where}: {value!r} is not a rational p/q")
    raise DocumentError(f"{where}: expected an integer or 'p/q' string, got {type(value).__name__}")


def render_rational(x: Rational):
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentError(message)


def _expect_list(value, where: str) -> list:
    _expect(isinstance(value, list), f"{where}: expected a list")
    return value


def _expect_int(value, where: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), f"{where}: expected an integer")
    return value


def _expect_name(entry: dict, where: str) -> str:
    _expect(isinstance(entry, dict), f"{where}: expected an object")
    name = entry.get("name")
    _expect(isinstance(name, str) and name != "", f"{where}: missing nonempty 'name'")
    return name


def _expect_ref(entry: dict, key: str, table: dict, kind: str, where: str) -> str:
    """entry[key], which must be a string naming an entry of table."""
    ref = entry[key]
    _expect(isinstance(ref, str), f"{where}.{key}: expected a string")
    _expect(ref in table, f"{where}: {kind} '{ref}' not in the document")
    return ref


def _fields(entry: dict, required: Sequence[str], optional: Sequence[str], where: str) -> None:
    for key in required:
        _expect(key in entry, f"{where}: missing field '{key}'")
    allowed = set(required) | set(optional)
    for key in entry:
        _expect(key in allowed, f"{where}: unknown field '{key}'")


def _parse_vector(value, length: int, where: str) -> tuple[Rational, ...]:
    row = _expect_list(value, where)
    _expect(len(row) == length, f"{where}: expected {length} entries, got {len(row)}")
    if all(type(v) is int for v in row):  # one pass; `type` keeps bool out
        return tuple(row)
    return tuple(parse_rational(v, f"{where}[{k}]") for k, v in enumerate(row))


def _parse_matrix(value, nrows: int, ncols: int, where: str) -> RationalMatrix:
    rows = _expect_list(value, where)
    _expect(len(rows) == nrows, f"{where}: expected {nrows} rows, got {len(rows)}")
    parsed = [_parse_vector(r, ncols, f"{where}[{k}]") for k, r in enumerate(rows)]
    return RationalMatrix.from_rows(parsed, ncols)


class ComplexEntry(FrozenRecord):
    """A named cochain complex, optionally carrying filtration weights."""

    __slots__ = ("name", "complex", "weights")

    def __init__(self, name: str, complex: GradedComplex,
                 weights: tuple[tuple[int, ...], ...] | None = None) -> None:
        set_fields(self, name=name, complex=complex, weights=weights)

    def filtered(self) -> FilteredComplex:
        from .spectral import FilteredComplex

        if self.weights is None:
            raise ValueError(f"complex '{self.name}' has no filtration")
        return FilteredComplex.create(self.complex, self.weights)


class ActionEntry(FrozenRecord):
    """Per-degree square matrices on a named complex (chain-map checks are
    left to the consumer)."""

    __slots__ = ("name", "complex_name", "maps")

    def __init__(self, name: str, complex_name: str, maps: tuple[RationalMatrix, ...]) -> None:
        set_fields(self, name=name, complex_name=complex_name, maps=maps)


class InputDocument(FrozenRecord):
    """The five sections of a document, each by entry name."""

    __slots__ = ("algebras", "subalgebras", "automorphisms", "complexes", "actions")

    def __init__(self, algebras: dict[str, LieAlgebra], subalgebras: dict[str, Subalgebra],
                 automorphisms: dict[str, LieAutomorphism], complexes: dict[str, ComplexEntry],
                 actions: dict[str, ActionEntry]) -> None:
        set_fields(self, algebras=algebras, subalgebras=subalgebras, automorphisms=automorphisms,
                   complexes=complexes, actions=actions)

    def _lookup(self, table: dict, kind: str, name: str):
        if name not in table:
            known = ", ".join(sorted(table)) or "none"
            raise DocumentError(f"no {kind} named '{name}' in the document (available: {known})")
        return table[name]

    def algebra(self, name: str) -> LieAlgebra:
        return self._lookup(self.algebras, "lie algebra", name)

    def subalgebra(self, name: str) -> Subalgebra:
        return self._lookup(self.subalgebras, "subalgebra", name)

    def automorphism(self, name: str) -> LieAutomorphism:
        return self._lookup(self.automorphisms, "automorphism", name)

    def complex_entry(self, name: str) -> ComplexEntry:
        return self._lookup(self.complexes, "complex", name)

    def action(self, name: str) -> ActionEntry:
        return self._lookup(self.actions, "action", name)


_SECTIONS = ("lie_algebras", "subalgebras", "automorphisms", "complexes", "actions")


def _named_entries(data: dict, section: str, required: Sequence[str],
                   optional: Sequence[str] = ()) -> Iterator[tuple[str, str, dict]]:
    """(where, name, entry) for each entry of a section, its name and fields checked."""
    for k, entry in enumerate(_expect_list(data.get(section, []), section)):
        where = f"{section}[{k}]"
        name = _expect_name(entry, where)
        _fields(entry, ("name", *required), optional, where)
        yield where, name, entry


def _register(table: dict, name: str, value, where: str) -> None:
    _expect(name not in table, f"{where}: duplicate name '{name}'")
    table[name] = value


def _load_object(text: str) -> dict:
    """The top-level JSON object of a document.

    Every way json.loads can refuse text (syntax, an integer with more digits
    than int() converts, nesting deeper than the recursion limit) is a
    malformed document.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise DocumentError(f"invalid JSON: {e}") from None
    _expect(isinstance(data, dict), "top level must be a JSON object")
    return data


def parse_document(text: str) -> InputDocument:
    data = _load_object(text)
    for key in data:
        _expect(key in _SECTIONS, f"unknown section '{key}'")
    if any(data.get(section) for section in _SECTIONS[:3]):  # a complex alone needs no Lie algebra
        from .liealg import LieAlgebra, LieAutomorphism, Subalgebra

    algebras: dict[str, LieAlgebra] = {}
    for where, name, entry in _named_entries(data, "lie_algebras", ("dim", "brackets")):
        dim = _expect_int(entry["dim"], f"{where}.dim")
        _expect(dim >= 1, f"{where}.dim: must be at least 1")
        table = []
        for t, item in enumerate(_expect_list(entry["brackets"], f"{where}.brackets")):
            w = f"{where}.brackets[{t}]"
            trip = _expect_list(item, w)
            _expect(len(trip) == 3, f"{w}: expected [i, j, coefficients]")
            i = _expect_int(trip[0], f"{w}[0]")
            j = _expect_int(trip[1], f"{w}[1]")
            table.append(((i, j), _parse_vector(trip[2], dim, f"{w}[2]")))
        try:
            g = LieAlgebra.from_brackets(name, dim, table)
        except ValueError as e:
            raise DocumentError(f"{where}: {e}") from None
        _register(algebras, name, g, where)

    subalgebras: dict[str, Subalgebra] = {}
    for where, name, entry in _named_entries(data, "subalgebras", ("parent", "basis")):
        g = algebras[_expect_ref(entry, "parent", algebras, "parent algebra", where)]
        vecs = [
            _parse_vector(v, g.dim, f"{where}.basis[{t}]")
            for t, v in enumerate(_expect_list(entry["basis"], f"{where}.basis"))
        ]
        # closure under the bracket is mathematical validation, not parsing
        _register(subalgebras, name, Subalgebra.span(g, vecs, name), where)

    automorphisms: dict[str, LieAutomorphism] = {}
    for where, name, entry in _named_entries(data, "automorphisms", ("algebra", "matrix")):
        g = algebras[_expect_ref(entry, "algebra", algebras, "algebra", where)]
        m = _parse_matrix(entry["matrix"], g.dim, g.dim, f"{where}.matrix")
        _register(automorphisms, name, LieAutomorphism.create(g, m, name), where)

    complexes: dict[str, ComplexEntry] = {}
    for where, name, entry in _named_entries(data, "complexes", ("dims", "differentials"), ("filtration",)):
        dims = [
            _expect_int(d, f"{where}.dims[{t}]")
            for t, d in enumerate(_expect_list(entry["dims"], f"{where}.dims"))
        ]
        _expect(bool(dims), f"{where}.dims: must be nonempty")
        _expect(all(d >= 0 for d in dims), f"{where}.dims: dimensions must be nonnegative")
        raw = _expect_list(entry["differentials"], f"{where}.differentials")
        _expect(
            len(raw) == len(dims) - 1,
            f"{where}.differentials: expected {len(dims) - 1} matrices, got {len(raw)}",
        )
        diffs = [
            _parse_matrix(m, dims[t + 1], dims[t], f"{where}.differentials[{t}]")
            for t, m in enumerate(raw)
        ]
        weights = None
        if "filtration" in entry:
            wlists = _expect_list(entry["filtration"], f"{where}.filtration")
            _expect(
                len(wlists) == len(dims),
                f"{where}.filtration: expected {len(dims)} weight lists",
            )
            weights = []
            for n, wl in enumerate(wlists):
                wn = f"{where}.filtration[{n}]"
                lst = _expect_list(wl, wn)
                _expect(len(lst) == dims[n], f"{wn}: expected {dims[n]} weights")
                vals = tuple(_expect_int(w, f"{wn}[{t}]") for t, w in enumerate(lst))
                _expect(all(w >= 0 for w in vals), f"{wn}: weights must be nonnegative")
                weights.append(vals)
            weights = tuple(weights)
        cx = GradedComplex.create(dims, diffs)  # d^2 = 0 checked by the engine
        _register(complexes, name, ComplexEntry(name, cx, weights), where)

    actions: dict[str, ActionEntry] = {}
    for where, name, entry in _named_entries(data, "actions", ("complex", "maps")):
        target = _expect_ref(entry, "complex", complexes, "complex", where)
        cx = complexes[target].complex
        raw = _expect_list(entry["maps"], f"{where}.maps")
        _expect(
            len(raw) == cx.top + 1,
            f"{where}.maps: expected {cx.top + 1} matrices, got {len(raw)}",
        )
        maps = tuple(
            _parse_matrix(m, cx.dims[t], cx.dims[t], f"{where}.maps[{t}]")
            for t, m in enumerate(raw)
        )
        _register(actions, name, ActionEntry(name, target, maps), where)

    return InputDocument(algebras, subalgebras, automorphisms, complexes, actions)


# ---------------------------------------------------------------------------
# cup-form documents (used by the 5-manifold obstruction)


def parse_cup_document(text: str) -> CupForm:
    """{"b2": int, "matrices": [b2 x b2 symmetric matrices...]}"""
    from .obstructions import CupForm

    data = _load_object(text)
    _fields(data, ("b2", "matrices"), (), "cup document")
    b2 = _expect_int(data["b2"], "b2")
    _expect(b2 >= 0, "b2 must be nonnegative")
    mats = [
        _parse_matrix(m, b2, b2, f"matrices[{k}]")
        for k, m in enumerate(_expect_list(data["matrices"], "matrices"))
    ]
    return CupForm.create(b2, mats)  # symmetry checked by the engine


# ---------------------------------------------------------------------------
# the shipped documents, read as builtin:NAME (built by tools/corpus.py)


def builtin_names() -> list[str]:
    return sorted(p.stem for p in _data_dir().iterdir() if p.suffix == ".json")


def _data_dir() -> Path:
    return Path(__file__).resolve().parent / "data"


def builtin_text(name: str) -> str:
    """Shipped bytes for builtin:NAME, exactly as hashed into reports.  Only
    a shipped name resolves: NAME is never joined onto a path unchecked."""
    names = builtin_names()
    if name not in names:
        known = ", ".join(names) or "none"
        raise DocumentError(f"no builtin document '{name}' (available: {known})")
    return (_data_dir() / f"{name}.json").read_text(encoding="utf-8")
