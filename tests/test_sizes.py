"""Every size, degree, index and bound a library caller passes goes through
the one gate, `errors.require_count`: the value must be an int, not a bool,
float or Fraction equal to one, and at least its minimum.

`selected` reads the signature of every callable a module exports in
`__all__` (a class by its constructor) and of every public classmethod of an
exported class, and keeps those with a parameter annotated `int`,
`int | None`, or a sequence or tuple of them (nested, or beside `str`).
CALLS gives one valid call of each, by keyword, and the minimum of each such
parameter.  The guard feeds each of those parameters, or each int entry of
a sequence, True, 2.0, Fraction(2), the valid value as a float and as a
Fraction, and minimum - 1 in turn, and every call must raise ValueError or
TypeError: a return means the value was truncated or misread, and any other
exception that no gate refused it.  EXEMPT names the callables that take
their form as given, and EXEMPT_PARAMETERS single parameters, each with the
reason.  A selected callable in no table, a parameter without a minimum, or
a table entry that names nothing selected fails the guard by name, so the
tables cannot go stale.
"""

import importlib
import inspect
import pkgutil
import re
import types
from fractions import Fraction

import eqss
from eqss.cohomology import lie_cohomology
from eqss.library import circle_base
from eqss.liealg import so_algebra, su2
from eqss.linalg import GradedComplex, RationalMatrix
from eqss.obstructions import CupForm
from eqss.spectral import FilteredComplex, product_model

MODULES = sorted(m.name for m in pkgutil.iter_modules(eqss.__path__))
CONTAINERS = {"Sequence", "tuple", "list", "Iterable"}
BAD = (True, 2.0, Fraction(2))


def int_typed(annotation) -> bool:
    """Whether an annotation is int, optionally with None, or containers of it, optionally beside str."""
    words = set(re.findall(r"\w+", inspect.formatannotation(annotation)))
    return "int" in words and words <= CONTAINERS | {"int", "str", "None"}


def selected(module: types.ModuleType) -> dict[str, tuple]:
    """module.qualname -> (callable, its int-typed parameters), for what the module defines and exports."""
    short = module.__name__.rsplit(".", 1)[-1]
    found = {}
    for name in module.__all__:
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # a re-export is read in the module that defines it
        candidates = [(name, obj)]
        if inspect.isclass(obj):
            candidates += [(f"{name}.{attr}", getattr(obj, attr)) for attr, raw in vars(obj).items()
                           if isinstance(raw, (classmethod, staticmethod)) and not attr.startswith("_")]
        for qualname, f in candidates:
            try:
                params = inspect.signature(f).parameters.values()
            except (TypeError, ValueError):  # not callable, or a builtin without a signature
                continue
            ints = [p.name for p in params if int_typed(p.annotation)]
            if ints:
                found[f"{short}.{qualname}"] = (f, ints)
    return found


def int_paths(value, path: tuple = ()):
    """The index path of every int in value, itself an int or nested tuples and lists."""
    if type(value) is int:
        yield path
    elif isinstance(value, (tuple, list)):
        for i, v in enumerate(value):
            yield from int_paths(v, path + (i,))


def got_at(value, path: tuple):
    return got_at(value[path[0]], path[1:]) if path else value


def replaced(value, path: tuple, new):
    """value with the entry at path replaced by new, each container keeping its type."""
    if not path:
        return new
    items = list(value)
    items[path[0]] = replaced(value[path[0]], path[1:], new)
    return type(value)(items)


def failures(found: dict, calls: dict, exempt: dict, exempt_parameters: dict) -> list[str]:
    """What the guard refuses: untabled or stale names, parameters without a
    minimum or an int to probe, and every probe the callable returns on."""
    out = [f"{name}: in neither CALLS nor EXEMPT" for name in sorted(found.keys() - calls.keys() - exempt.keys())]
    out += [f"{name}: a table entry for nothing selected"
            for name in sorted((calls.keys() | exempt.keys() | exempt_parameters.keys()) - found.keys())]
    out += [f"{name}: {param} is exempt but not an int parameter"
            for name, params in exempt_parameters.items() if name in found
            for param in params if param not in found[name][1]]
    for name in sorted(found.keys() & calls.keys()):
        f, params = found[name]
        make, minimums = calls[name]
        kwargs = make()
        f(**kwargs)  # the valid call must return
        for param in params:
            if param in exempt_parameters.get(name, {}):
                continue
            paths = list(int_paths(kwargs.get(param)))
            if param not in minimums or not paths:
                out.append(f"{name}: {param} has no minimum or no int in the valid call")
                continue
            for path in paths:
                valid = got_at(kwargs[param], path)
                probes = (*BAD, float(valid), Fraction(valid), minimums[param] - 1)
                for _, bad in dict.fromkeys((type(b), b) for b in probes):  # 2.0 == Fraction(2): keep both
                    try:
                        f(**dict(kwargs, **{param: replaced(kwargs[param], path, bad)}))
                        got = "returned"
                    except (ValueError, TypeError):
                        continue
                    except Exception as e:  # a refusal, but not the gate's
                        got = f"raised {type(e).__name__}"
                    out.append(f"{name}: {got} on {param}{''.join(f'[{i}]' for i in path)} = {bad!r}")
    return out


def _filtered() -> FilteredComplex:
    return FilteredComplex.create(GradedComplex.create((1, 1), [RationalMatrix.from_rows([[1]])]), ((0,), (1,)))


def _product_fields() -> dict:
    m = product_model(circle_base(), su2())
    return dict(complex=m.complex, weights=m.weights, base=m.base, fiber=m.fiber, blocks=m.blocks)


_SU2 = {(1, 2): [0, 0, 1], (2, 3): [1, 0, 0], (1, 3): [0, -1, 0]}

# module.qualname -> (the keyword arguments of one valid call, the minimum of each int parameter)
CALLS = {
    "cohomology.cup_product": (lambda: dict(g=su2(), result=lie_cohomology(su2()), p=0, u_class=(1,), q=3,
                                            v_class=(1,)), {"p": 0, "q": 0}),
    "cohomology.invariant_cohomology": (lambda: dict(result=lie_cohomology(su2()), generators=[], bound=10),
                                        {"bound": 0}),
    "errors.require_count": (lambda: dict(value=3, what="n", minimum=0), {}),
    "errors.require_counts": (lambda: dict(values=(1, 2), what="dims", minimum=0), {"values": 0}),
    "forms.wedge": (lambda: dict(dim=3, p=1, a=((0, 1),), q=1, b=RationalMatrix.from_columns([[0, 1, 0]])),
                    {"dim": 0, "p": 0, "q": 0}),
    "library.sphere_base": (lambda: dict(k=2), {"k": 1}),
    "library.so_pair": (lambda: dict(l=2), {"l": 2}),
    "library.so_pair_reflection": (lambda: dict(l=2), {"l": 2}),
    "liealg.LieAlgebra.from_brackets": (lambda: dict(name="x", dim=3, table=_SU2), {"dim": 0}),
    "liealg.coordinate_subalgebra": (lambda: dict(g=so_algebra(3), indices=(1,)), {"indices": 1}),
    "liealg.so_algebra": (lambda: dict(n=3), {"n": 0}),
    "liealg.u_algebra": (lambda: dict(n=1), {"n": 1}),
    "linalg.GradedComplex.create": (lambda: dict(dims=(1, 1), differentials=(RationalMatrix.zeros(1, 1),)),
                                    {"dims": 0}),
    "linalg.SubspaceBasis.span": (lambda: dict(vectors=[[1, 0]], ambient=2), {"ambient": 0}),
    "linalg.SubspaceBasis.coordinate": (lambda: dict(ambient=3, indices=(0, 2)), {"ambient": 0, "indices": 0}),
    "linalg.enumerate_group": (lambda: dict(generators=[RationalMatrix.from_rows([[0, 1], [1, 0]])], bound=10),
                               {"bound": 0}),
    "obstructions.CupForm.create": (lambda: dict(b2=1, matrices=[[[1]]]), {"b2": 0}),
    "obstructions.LesProblem": (lambda: dict(terms=(1, "A", 1), period=1, forced_zero_ranks=(0,)),
                                {"terms": 0, "period": 1, "forced_zero_ranks": 0}),
    "obstructions.gysin_assemble": (lambda: dict(l=3, basic_dims=(1, 1), total_dims=(1, 1, 0, 1, 1)),
                                    {"l": 1, "basic_dims": 0, "total_dims": 0}),
    "obstructions.s3_check_4manifold": (lambda: dict(betti=(1, 0, 3, 0, 1)), {"betti": 0}),
    "obstructions.s3_check_5manifold": (lambda: dict(b2=1, cup=CupForm.create(1, [[[1]]]),
                                                     sphere_hyperplane_exists=False), {"b2": 0}),
    "obstructions.wang_check": (lambda: dict(codim=3, simply_connected=True, oriented=True, gh_dims=(1, 0, 0, 1),
                                             total_dims=(1, 0, 0, 2, 0, 0, 1)),
                                {"codim": 0, "gh_dims": 0, "total_dims": 0}),
    "spectral.FilteredComplex": (lambda: dict(complex=_filtered().complex, weights=((0,), (1,))), {"weights": 0}),
    "spectral.FilteredComplex.create": (lambda: dict(cx=_filtered().complex, weights=((0,), (1,))),
                                        {"weights": 0}),
    "spectral.ProductComplex": (_product_fields, {"weights": 0}),
    "spectral.pages_inductive": (lambda: dict(fc=_filtered(), rmax=3), {"rmax": 0}),
    "spectral.run_to_stabilization": (lambda: dict(fc=_filtered(), max_page=3), {"max_page": 0}),
}

_RAW = "a raw record __init__: it stores the fields as given, and only the engine or a checked constructor calls it"
_SHAPE = "a shape builder: it takes its sizes as given from the engine, which computed them"

# module.qualname -> why its int parameters are taken as given
EXEMPT = {
    "documents.ComplexEntry": _RAW + "; parse_document checks the weights, and FilteredComplex again when built",
    "liealg.LieAlgebra": _RAW + " (LieAlgebra.from_brackets checks)",
    "linalg.GradedComplex": _RAW + " (GradedComplex.create checks; tests/test_source_guards.py)",
    "linalg.RationalMatrix": _RAW,
    "linalg.RationalMatrix.from_columns": _SHAPE,
    "linalg.RationalMatrix.from_entries": _SHAPE,
    "linalg.RationalMatrix.from_rows": _SHAPE,
    "linalg.RationalMatrix.identity": _SHAPE,
    "linalg.RationalMatrix.zeros": _SHAPE,
    "linalg.SubspaceBasis.from_echelon": _SHAPE,
    "linalg.SubspaceBasis.full": _SHAPE,
    "linalg.SubspaceBasis.zero": _SHAPE,
    "linalg.kernel_and_image": "its cols are column indices the engine computed, read on its elimination path",
    "obstructions.CupForm": _RAW + " (CupForm.create checks)",
    "obstructions.LesSolution": _RAW + "; solve_les builds each one",
    "spectral.Page": _RAW + "; run_to_stabilization builds each one",
    "spectral.PageTable": _RAW + "; run_to_stabilization builds each one",
}

# module.qualname -> {parameter: why that parameter is taken as given}
EXEMPT_PARAMETERS = {
    "errors.require_count": {"minimum": "the gate's own minimum, a literal at every call"},
    "errors.require_counts": {"minimum": "the gate's own minimum, a literal at every call"},
    "linalg.GradedComplex.create": {"duality": "parities forms.ce_complex computes for the Chevalley-Eilenberg "
                                               "complex, read on the build path"},
    "obstructions.LesProblem": {"degree_range": "a label of the degrees the terms span, rendered by as_dict "
                                                "and never computed with; its type is gated (a tuple of two "
                                                "ints), but a degree may be negative"},
}


def test_every_int_parameter_refuses_bools_floats_fractions_and_values_below_its_minimum():
    found: dict = {}
    for name in MODULES:
        found.update(selected(importlib.import_module(f"eqss.{name}")))
    assert failures(found, CALLS, EXEMPT, EXEMPT_PARAMETERS) == []


PLANTED = '''
from __future__ import annotations

from typing import Sequence

from eqss.errors import require_count, require_counts

__all__ = ["Sizes", "gated", "truncating", "untabled"]


def truncating(n: int, dims: Sequence[int]) -> tuple:
    return int(n), tuple(int(d) for d in dims)


def gated(n: int, dims: Sequence[int]) -> tuple:
    return require_count(n, "n", 1), require_counts(dims, "dims")


def untabled(k: int | None = None) -> None:
    pass


class Sizes:
    @classmethod
    def create(cls, width: int) -> "Sizes":
        return cls()
'''


def test_the_guard_names_a_planted_truncating_function():
    planted = types.ModuleType("eqss.planted")
    exec(compile(PLANTED, "planted.py", "exec"), planted.__dict__)
    found = selected(planted)
    assert {name: params for name, (_, params) in found.items()} == {
        "planted.truncating": ["n", "dims"], "planted.gated": ["n", "dims"], "planted.untabled": ["k"],
        "planted.Sizes.create": ["width"]}
    calls = {name: (lambda: dict(n=2, dims=(0, 3)), {"n": 1, "dims": 0})
             for name in ("planted.truncating", "planted.gated")}
    calls["planted.Sizes.create"] = (lambda: dict(width=4), {})
    probes = {"n": (*BAD, 0), "dims[0]": (*BAD, 0.0, Fraction(0), -1), "dims[1]": (*BAD, 3.0, Fraction(3), -1)}
    truncated = [f"planted.truncating: returned on {param} = {bad!r}" for param, bads in probes.items() for bad in bads]
    assert failures(found, calls, {"planted.gone": "stale"}, {}) == [
        "planted.untabled: in neither CALLS nor EXEMPT",
        "planted.gone: a table entry for nothing selected",
        "planted.Sizes.create: width has no minimum or no int in the valid call",
        *truncated,
    ]
    assert failures(found, calls, {"planted.untabled": "planted"}, {"planted.gated": {"k": "none"}}) == [
        "planted.gated: k is exempt but not an int parameter",
        "planted.Sizes.create: width has no minimum or no int in the valid call",
        *truncated,
    ]
