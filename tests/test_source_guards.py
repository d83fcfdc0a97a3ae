"""Source-level guards for invariants the engine relies on without re-checking.

FilteredComplex does not recompute d^2 = 0: it is an invariant of every
GradedComplex, because `GradedComplex.create` is the only constructor the
engine calls and makes the one d^2 = 0 check.  No direct GradedComplex(...)
call is allowed anywhere.

The inductive pages (`pages_inductive`, `_ZChain`) cross-check the closed
form (pages read off the persistence pairs), so they must not reach the
closed form's code, directly or through a module-level helper of `spectral`.

No cache in the engine is unbounded (`functools.cache` or
`lru_cache(maxsize=None)`): such a cache keeps, for the life of the process,
every table it was ever asked for, as the monomial tables of Lambda(g) once
did.  Bounded caches, such as `ce_complex`'s, are allowed.

No function or lambda in the engine has a mutable default argument.  Such
a default is one object for every call, so a memo passed that way would
keep the columns of one algebra and hand them to the next of the same
dimension; every memo is made afresh inside the call that owns it.

No engine module builds a list (or tuple) sized by a binomial,
`[x] * comb(...)` or `[x] * (comb(...) ...)`: that is a dense form over
every monomial of a degree, and forms are sparse columns everywhere.

The commands that need no engine load none: the modules `cli`,
`documents` and `obstructions` import neither `forms`, `cohomology`,
`spectral` nor `library` when they are imported, `cli` neither `linalg`
nor `obstructions`, `obstructions` neither `liealg` nor `linalg`, and
`documents` not `obstructions`; each handler imports the layers it runs.
So `obstruct s3-4m`, `gysin --l` and `wang` load only `cli`, `errors`,
`obstructions` and `records`, and neither `fractions` nor `decimal`, nor
`json` unless they print --json; `s3-5m` adds `documents` and `linalg`.
`spectral` imports no Lie algebra module when it is imported
(`product_model` and `twist_by_deck` import `cohomology` when called), so
`specseq` loads `documents`, `linalg` and `spectral` and nothing of the Lie
algebra engine, and neither it nor `cohomology` loads `obstructions`.  The
records are plain `__slots__` classes, so no command of the README, heavy
or light, imports `dataclasses` or, through it, `inspect`.  No command
loads OpenSSL (`_hashlib`, through `hashlib`): the shipped documents are
hashed by the interpreter's built-in SHA-256, unless the interpreter was
built without it (neither `_sha256` nor `_sha2`).

No engine module states a safety check as a bare `assert`: `python -O`
drops those, so each check raises AssertionError explicitly, and a run
under -O still refuses what it refuses.

No engine module divides with `/`: integral entries are Python ints (the
number rule of `linalg`), and int / int is a float.  Exact quotients are
`x // y` or `Fraction(x, y)`.  The only true divisions are the path joins
of `documents`.

`library`, which the tests and the corpus build import, loads no form or
spectral engine.  The benchmark (perfbench/), tools/ladder.py,
tools/corpus.py and the acceptance tests import only names of eqss that
resolve.

The engine reads documents and writes none: no eqss module defines a
document writer (tools/corpus.py holds it), and `documents` never names
json's `dumps`.

The README's "### Environment" section names exactly the EQSS_* variables
that `cli` reads through `_env_count`, so that every variable the command
honours, and whose bad value exits 2, is documented, and no documented one
is gone.

No engine function converts with `int(...)`, or passes `int` to a call as
`map(int, ...)` does: `int(1.7)` is 1, so a size a library caller passes
goes through `errors.require_count`, which refuses it instead.
INT_CONVERSIONS names the few that parse text or read an integral rational,
each with the reason.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import eqss

from ladder import readme_commands

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(Path(eqss.__file__).parent.glob("*.py"))
ALLOWED: set[tuple[str, str | None]] = set()


def direct_constructor_calls(source: str, module: str) -> set[tuple[str, str | None]]:
    """(module, enclosing function) of each direct GradedComplex(...) call."""
    tree = ast.parse(source)
    names = {"GradedComplex"} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "GradedComplex" and alias.asname
    }
    found = set()

    def visit(node: ast.AST, func: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if callee in names:
                    found.add((module, func))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(tree, None)
    return found


def test_graded_complexes_are_built_only_by_checked_constructors():
    calls = set()
    for path in SOURCES:
        calls |= direct_constructor_calls(path.read_text(), path.name)
    assert calls == ALLOWED, f"unchecked GradedComplex(...) calls: {calls - ALLOWED}"


def test_guard_sees_aliased_and_qualified_calls():
    source = (
        "from eqss.linalg import GradedComplex as G\n"
        "import eqss.linalg as la\n"
        "def f():\n"
        "    return G((1,), ())\n"
        "def g():\n"
        "    return la.GradedComplex((1,), ())\n"
        "h = GradedComplex.create((1,), ())\n"
    )
    assert direct_constructor_calls(source, "m.py") == {("m.py", "f"), ("m.py", "g")}


ORACLE = ("pages_inductive", "_ZChain")
CLOSED_FORM = {"_pairs", "_page_from_pairs"}


def oracle_reaches(source: str) -> set[str]:
    """Closed-form names that the oracle definitions reference, following
    references to the module's other top-level definitions."""
    tree = ast.parse(source)
    defs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    seen, todo, hits = set(), [name for name in ORACLE if name in defs], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            ref = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if ref in CLOSED_FORM:
                hits.add(ref)
            elif ref in defs:
                todo.append(ref)
    return hits


def test_inductive_pages_share_no_code_with_the_closed_form():
    source = (Path(eqss.__file__).parent / "spectral.py").read_text()
    tree = ast.parse(source)
    top = {getattr(node, "name", None) for node in tree.body}
    assert set(ORACLE) | CLOSED_FORM <= top
    assert oracle_reaches(source) == set()


def test_oracle_guard_sees_direct_and_indirect_references():
    source = (
        "def _pairs(fc): pass\n"
        "def _page_from_pairs(fc, pairs, r): pass\n"
        "def helper(fc):\n"
        "    return _page_from_pairs(fc, [], 0)\n"
        "class _ZChain:\n"
        "    def space(self):\n"
        "        return helper(self.fc)\n"
        "def pages_inductive(fc):\n"
        "    return spectral._pairs(fc)\n"
    )
    assert oracle_reaches(source) == {"_pairs", "_page_from_pairs"}


def unbounded_caches(source: str) -> list[int]:
    """Lines that use functools.cache or lru_cache(maxsize=None), imported
    or qualified, as a decorator or as a call."""
    tree = ast.parse(source)
    hits = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                hits.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if getattr(node.value, "id", None) == "functools":
                hits.add(node.lineno)
        elif isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "lru_cache":
                size = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
                if size and isinstance(size[0], ast.Constant) and size[0].value is None:
                    hits.add(node.lineno)
    return sorted(hits)


def test_no_unbounded_caches_in_the_engine():
    found = {path.name: unbounded_caches(path.read_text()) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_cache_guard_sees_every_spelling():
    source = (
        "import functools\n"
        "from functools import lru_cache, cache\n"
        "@lru_cache(maxsize=None)\n"
        "def a(): pass\n"
        "@functools.lru_cache(None)\n"
        "def b(): pass\n"
        "@functools.cache\n"
        "def c(): pass\n"
        "@lru_cache(maxsize=32)\n"
        "def d(): pass\n"
        "@lru_cache\n"
        "def e(): pass\n"
    )
    assert unbounded_caches(source) == [2, 3, 5, 7]


PATH_JOINS = {
    ("documents.py", 'Path(__file__).resolve().parent / "data"'),
    ("documents.py", '_data_dir() / f"{name}.json"'),
}


def true_divisions(source: str, module: str) -> set[tuple[str, str]]:
    """(module, source text) of each true division, x / y or x /= y."""
    return {
        (module, ast.get_source_segment(source, node))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    }


def test_no_true_division_in_the_engine():
    found = set()
    for path in SOURCES:
        found |= true_divisions(path.read_text(), path.name)
    assert found == PATH_JOINS, f"true divisions: {found - PATH_JOINS}"


def test_division_guard_sees_every_spelling():
    source = (
        "from fractions import Fraction\n"
        "def f(x, y):\n"
        "    a = x / y\n"
        "    a /= 2\n"
        "    return a // y + Fraction(x, y) + (x / (y / 2))\n"
    )
    assert true_divisions(source, "m.py") == {
        ("m.py", "x / y"), ("m.py", "a /= 2"), ("m.py", "x / (y / 2)"), ("m.py", "y / 2"),
    }


MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp, ast.GeneratorExp)
MUTABLE_CALLS = {"dict", "list", "set"}


def mutable_defaults(source: str) -> list[int]:
    """Lines of the mutable default arguments of functions and lambdas: a
    dict, list or set display, a comprehension, or a dict(), list() or
    set() call, positional or keyword-only."""
    hits = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for default in node.args.defaults + [d for d in node.args.kw_defaults if d is not None]:
                call = isinstance(default, ast.Call) and getattr(default.func, "id", None) in MUTABLE_CALLS
                if call or isinstance(default, MUTABLE_DISPLAYS):
                    hits.add(default.lineno)
    return sorted(hits)


def test_no_mutable_default_arguments_in_the_engine():
    found = {path.name: mutable_defaults(path.read_text()) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_mutable_default_guard_sees_every_spelling():
    source = (
        "def a(x, memo={}): pass\n"
        "def b(x=[]): pass\n"
        "def c(*, x=set()): pass\n"
        "f = lambda idx, memo=dict(): memo\n"
        "class K:\n"
        "    def e(self, x=list()): pass\n"
        "def g(x={i: i for i in range(3)}):\n"
        "    def inner(y=[i for i in x]): pass\n"
        "async def h(x={i for i in ()}, y=(i for i in ())): pass\n"
        "def ok(x=(), y=None, z=frozenset(), k=0, s='', t=tuple()): pass\n"
        "g = lambda k=3, m=None: k\n"
        "d = dict()\n"
    )
    assert mutable_defaults(source) == [1, 2, 3, 4, 6, 7, 8, 9]


def comb_sized_lists(source: str) -> list[int]:
    """Lines that multiply a list or tuple display by an expression calling
    comb (imported, aliased or qualified), on either side."""
    tree = ast.parse(source)
    names = {"comb"} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "comb" and alias.asname
    }

    def calls_comb(node: ast.AST) -> bool:
        calls = (n.func for n in ast.walk(node) if isinstance(n, ast.Call))
        return any((f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) in names for f in calls)

    hits = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            for seq, size in ((node.left, node.right), (node.right, node.left)):
                if isinstance(seq, (ast.List, ast.Tuple)) and calls_comb(size):
                    hits.add(node.lineno)
    return sorted(hits)


def test_no_comb_sized_lists_in_the_engine():
    found = {path.name: comb_sized_lists(path.read_text()) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_comb_sized_list_guard_sees_every_spelling():
    source = (
        "import math\n"
        "from math import comb, comb as C\n"
        "a = [0] * comb(4, 2)\n"
        "b = [0] * (comb(4, 2) if k >= 0 else 0)\n"
        "c = math.comb(4, 2) * [None]\n"
        "d = (0,) * C(4, 2)\n"
        "e = [0] * (comb(4, 2) - 1)\n"
        "f = [0] * n + [1] * 2\n"
        "g = comb(4, 2) * 3\n"
    )
    assert comb_sized_lists(source) == [3, 4, 5, 6, 7]


ENGINE = {"forms", "cohomology", "spectral", "library"}
LIGHT_MODULES = {
    "cli.py": ENGINE | {"linalg", "obstructions"},
    "documents.py": ENGINE | {"obstructions"},
    "obstructions.py": ENGINE | {"liealg", "linalg"},
    "spectral.py": {"forms", "cohomology", "liealg", "library"},
}


def _is_type_checking(test: ast.expr) -> bool:
    return (test.id if isinstance(test, ast.Name) else getattr(test, "attr", None)) == "TYPE_CHECKING"


def module_level_imports(source: str) -> set[str]:
    """The eqss modules a module imports when it is itself imported: relative
    or absolute, `from .m import x`, `from . import m` or `import eqss.m`,
    anywhere but inside a function or an `if TYPE_CHECKING:` block."""
    found = set()

    def visit(body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level or module.split(".")[0] == "eqss":
                    module = module if node.level else module.removeprefix("eqss").lstrip(".")
                    if module:
                        found.add(module.split(".")[0])
                    else:
                        found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update(
                    alias.name.split(".")[1] for alias in node.names if alias.name.startswith("eqss.")
                )
            if isinstance(node, ast.If) and _is_type_checking(node.test):
                visit(node.orelse)
                continue
            for field in ("body", "orelse", "finalbody", "handlers"):
                visit(getattr(node, field, []))

    visit(ast.parse(source).body)
    return found


def test_light_modules_import_no_engine_at_module_level():
    root = Path(eqss.__file__).parent
    found = {name: module_level_imports((root / name).read_text()) & banned
             for name, banned in LIGHT_MODULES.items()}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_import_layer_guard_sees_every_spelling():
    source = (
        "import typing\n"
        "from typing import TYPE_CHECKING\n"
        "from .forms import ce_complex\n"
        "from . import cohomology, linalg\n"
        "import eqss.spectral as sp, json\n"
        "import eqss_other\n"
        "from eqss_other import x\n"
        "from eqss.library import builtin_text\n"
        "from eqss import liealg\n"
        "try:\n"
        "    from .errors import DocumentError\n"
        "except ImportError:\n"
        "    from .fallback import DocumentError\n"
        "if TYPE_CHECKING:\n"
        "    from .documents import InputDocument\n"
        "if typing.TYPE_CHECKING:\n"
        "    from .obstructions import CupForm\n"
        "else:\n"
        "    from .trace import span\n"
        "class K:\n"
        "    from .klass import attribute\n"
        "def f():\n"
        "    from .deferred import g\n"
        "async def h():\n"
        "    import eqss.deferred_too\n"
    )
    assert module_level_imports(source) == {
        "forms", "cohomology", "linalg", "spectral", "library", "liealg",
        "errors", "fallback", "trace", "klass",
    }


PURE = ["eqss", "eqss.cli", "eqss.errors", "eqss.obstructions", "eqss.records"]
DOCUMENTS = ["eqss", "eqss.cli", "eqss.documents", "eqss.errors", "eqss.linalg", "eqss.records"]
HEAVY_STDLIB = ["fractions", "decimal", "json"]
LIGHT_COMMANDS = [
    pytest.param(["obstruct", "s3-4m", "--betti", "1,0,3,0,1"], 0, PURE, [], id="s3-4m"),
    pytest.param(["obstruct", "s3-5m", "--b2", "2", "--cup", "builtin:cup_definite"], 0,
                 sorted(DOCUMENTS + ["eqss.obstructions"]), HEAVY_STDLIB, id="s3-5m"),
    pytest.param(["obstruct", "gysin", "--l", "3", "--basic", "1,1", "--total", "1,1,0,1,1"], 0,
                 PURE, [], id="gysin --l"),
    pytest.param(["obstruct", "gysin", "--l", "3", "--basic", "1,1", "--json"], 0, PURE, ["json"],
                 id="gysin --l --json"),
    pytest.param(["obstruct", "wang", "--codim", "3", "--gh", "1,0,0,1", "--total",
                  "1,0,0,2,0,0,1", "--simply-connected", "--oriented"], 0, PURE, [], id="wang"),
    pytest.param(["obstruct", "gysin", "--l", "3", "--total", "1,1"], 2, PURE, [], id="gysin exit 2"),
    pytest.param(["obstruct", "s3-4m", "--betti", "2,0,3,0,1"], 3, PURE, [], id="s3-4m exit 3"),
    pytest.param(["obstruct", "wang", "--codim", "2", "--gh", "1,0,1"], 3, PURE, [], id="wang exit 3"),
    pytest.param(["specseq", "builtin:models", "--complex", "s1_x_su2"], 0,
                 sorted(DOCUMENTS + ["eqss.spectral"]), HEAVY_STDLIB, id="specseq"),
    pytest.param(["cohomology", "builtin:library", "--algebra", "su2"], 0,
                 sorted(DOCUMENTS + ["eqss.cohomology", "eqss.forms", "eqss.liealg"]), HEAVY_STDLIB,
                 id="cohomology"),
]
# The interpreter's built-in SHA-256: `_sha256` up to Python 3.11, `_sha2` after.
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2"))
LOADED = (
    "import contextlib, io, sys\n"
    "openssl_before = '_hashlib' in sys.modules\n"
    "from eqss import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "found = [code, sorted(m for m in sys.modules if m.split('.')[0] == 'eqss'),\n"
    "         [m for m in ('dataclasses', 'inspect') if m in sys.modules],\n"
    "         [m for m in ('fractions', 'decimal', 'json') if m in sys.modules],\n"
    "         '_hashlib' in sys.modules and not openssl_before]\n"
    "import json\n"
    "print(json.dumps(found))\n"
)


def run_fresh(*args: str) -> str:
    """The stdout of `python args` in a fresh interpreter with this
    checkout's src first on its path and no EQSS_* variables."""
    src = str(Path(eqss.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("EQSS_")}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded(argv: list[str]) -> list:
    """[exit code, the eqss modules loaded, which of dataclasses and inspect
    are loaded, which of fractions, decimal and json are loaded, whether
    OpenSSL's `_hashlib` was loaded by then and not at start] after
    importing `eqss.cli` and running `cli.main(argv)` in a fresh
    interpreter."""
    return json.loads(run_fresh("-c", LOADED, *argv))


@pytest.mark.parametrize("argv, code, modules, numbers", LIGHT_COMMANDS)
def test_light_commands_load_only_their_layer(argv, code, modules, numbers):
    openssl = not BUILTIN_SHA256 and "eqss.documents" in modules
    assert loaded(argv) == [code, modules, [], numbers, openssl]


@pytest.mark.parametrize("argv", readme_commands(ROOT / "README.md"), ids=" ".join)
def test_readme_commands_never_import_dataclasses(argv):
    code, modules, heavy, _, openssl = loaded(argv)
    assert (code, heavy, openssl) == (0, [], not BUILTIN_SHA256 and "eqss.documents" in modules)


def test_library_loads_no_form_or_spectral_engine():
    modules = json.loads(run_fresh("-c", "import json, sys, eqss.library\nprint(json.dumps(sorted(sys.modules)))"))
    assert "eqss.library" in modules
    assert {"eqss.forms", "eqss.cohomology", "eqss.spectral"}.isdisjoint(modules)


def unresolved_imports(source: str) -> set[str]:
    """Each `from eqss... import name` (one per name) and `import eqss...`
    in source, wherever it stands, that fails when run on its own."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").split(".")[0] == "eqss":
            found.update(f"from {node.module} import {alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(f"import {alias.name}" for alias in node.names if alias.name.split(".")[0] == "eqss")
    missing = set()
    for statement in found:
        try:
            exec(statement, {})
        except ImportError:
            missing.add(statement)
    return missing


def test_import_resolution_guard_sees_every_spelling():
    source = (
        "import eqss.cli, eqss.gone, json\n"
        "import eqss_other\n"
        "from eqss import cli as c, gone\n"
        "from eqss.linalg import (rank,\n    gone)\n"
        "from eqss_other import x\n"
        "from . import sibling\n"
        "def f():\n"
        "    from eqss.cli import main, gone\n"
    )
    assert unresolved_imports(source) == {
        "import eqss.gone", "from eqss import gone", "from eqss.linalg import gone", "from eqss.cli import gone",
    }


@pytest.mark.parametrize("path", [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py",
                                  ROOT / "tools" / "ladder.py", ROOT / "tools" / "corpus.py"],
                         ids=lambda path: path.name)
def test_files_outside_the_package_import_names_that_resolve(path):
    assert unresolved_imports(path.read_text()) == set()


WRITERS = {"serialize_document", "document_to_dict", "cup_to_dict"}


def document_writing(source: str) -> set[str]:
    """The writers that source defines or assigns, and "dumps" if it names
    json's dumps at all (an attribute or an import, aliased or not)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif getattr(node, "attr", None) == "dumps" or isinstance(node, ast.alias) and node.name == "dumps":
            found.add("dumps")
    return found & (WRITERS | {"dumps"})


def test_the_engine_reads_documents_and_writes_none():
    found = {path.name: document_writing(path.read_text()) for path in SOURCES}
    assert {name: hits & WRITERS for name, hits in found.items() if hits & WRITERS} == {}
    assert "dumps" not in found["documents.py"]


@pytest.mark.parametrize("source, found", [
    ("import json as j\nj.dumps({})\n", {"dumps"}),
    ("from json import dumps as d\n", {"dumps"}),
    ("def serialize_document(doc):\n    pass\n", {"serialize_document"}),
    ("class document_to_dict:\n    pass\n", {"document_to_dict"}),
    ("cup_to_dict = str\n", {"cup_to_dict"}),
    ("json.loads('1')\ndef parse_document(text):\n    pass\n", set()),
])
def test_writer_guard_sees_every_spelling(source, found):
    assert document_writing(source) == found


def bare_asserts(source: str) -> list[int]:
    """Lines of the assert statements, which python -O removes."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_no_bare_asserts_in_the_engine():
    found = {path.name: bare_asserts(path.read_text()) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_assert_guard_sees_every_spelling():
    source = (
        "assert True\n"
        "def f(x):\n"
        "    assert x, 'message'\n"
        "    if not x:\n"
        "        raise AssertionError('kept under -O')\n"
        "class K:\n"
        "    def g(self):\n"
        "        assert (self, 1)\n"
    )
    assert bare_asserts(source) == [1, 3, 8]


BROKEN_CHECK = (
    "import sys\n"
    "from eqss import cohomology, liealg, linalg, obstructions\n"
    "assert not __debug__, 'run under python -O'\n"
    "g = liealg.su2()\n"
    "h = liealg.coordinate_subalgebra(g, [3])\n"
    "obstructions.verify_exactness = lambda problem, solution: False\n"
    "linalg.SubspaceBasis.coordinate_matrix = lambda self, m: None\n"
    "checks = {\n"
    "    'solve_les': lambda: obstructions.solve_les(obstructions.LesProblem(('A', 3))),\n"
    "    'relative closure': lambda: cohomology.relative_model(g, h),\n"
    "}\n"
    "try:\n"
    "    print('passed', checks[sys.argv[1]]())\n"
    "except AssertionError as e:\n"
    "    print('refused:', e)\n"
)


@pytest.mark.parametrize("check", ["solve_les", "relative closure"])
def test_safety_checks_hold_under_python_O(check):
    """With the check made to fail, the call still refuses under -O."""
    out = run_fresh("-O", "-c", BROKEN_CHECK, check)
    assert out.startswith("refused:"), out


def env_reads(source: str) -> set[str]:
    """The names of the `_env_count("NAME")` calls."""
    return {node.args[0].value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_env_count"
            and node.args and isinstance(node.args[0], ast.Constant)}


def readme_environment(text: str) -> set[str]:
    """The EQSS_* names in the README's "### Environment" section."""
    section = text.split("### Environment\n", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"\bEQSS_[A-Z_]+", section))


def test_the_readme_names_the_environment_the_command_reads():
    names = env_reads((ROOT / "src" / "eqss" / "cli.py").read_text())
    assert names == readme_environment((ROOT / "README.md").read_text()) == {"EQSS_GROUP_BOUND"}


def test_environment_guard_sees_every_spelling():
    source = (
        "def main(args):\n"
        "    args.a = _env_count('EQSS_A')\n"
        "    b = _env_count(\"EQSS_B\") or 1\n"
        "    os.environ.get('EQSS_C')\n"
        "    other_count('EQSS_D')\n"
    )
    assert env_reads(source) == {"EQSS_A", "EQSS_B"}
    text = "## Use\nEQSS_X\n### Environment\n\n- `EQSS_A` and EQSS_B.\n\n## Layout\nEQSS_Y\n"
    assert readme_environment(text) == {"EQSS_A", "EQSS_B"}


# module.function -> why it converts with int(...)
INT_CONVERSIONS = {
    "linalg.as_fraction": "an int subclass (a bool) entry of a matrix, under the number rule",
    "documents.render_rational": "an integral Fraction printed as a JSON integer",
    "cli._decimal": "parses the ASCII digits of a command-line option or list or an environment variable",
    "obstructions._primitive_normal": "an integral Fraction, the normal scaled by its denominators",
}


def int_conversions(source: str, module: str) -> list[str]:
    """module.qualname of the function (module.<module> at top level) of each
    int(...) call, and of each call that passes int itself, as map(int, ...)
    does; isinstance and issubclass only test against it."""
    found = []

    def visit(node: ast.AST, qualname: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                passed = [a for a in child.args + [k.value for k in child.keywords]
                          if isinstance(a, ast.Name) and a.id == "int"]
                if callee == "int" or passed and callee not in ("isinstance", "issubclass"):
                    found.append(f"{module}.{qualname or '<module>'}")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, (f"{qualname}.{child.name}" if qualname else child.name) if named else qualname)

    visit(ast.parse(source), None)
    return found


def test_no_engine_function_truncates_with_int():
    # a size is refused by errors.require_count, never converted: int(1.7) is 1
    found = {hit for path in SOURCES for hit in int_conversions(path.read_text(), path.stem)}
    assert found == INT_CONVERSIONS.keys(), f"int(...) conversions: {sorted(found)}"


def test_int_conversion_guard_sees_every_spelling():
    source = (
        "import builtins\n"
        "n = int('3')\n"
        "class C:\n"
        "    @classmethod\n"
        "    def f(cls, x, ws):\n"
        "        if isinstance(x, int) and type(x) is int:\n"
        "            return x\n"
        "        def inner(w):\n"
        "            return builtins.int(w)\n"
        "        return tuple(map(int, ws)), sorted(ws, key=int), {int}, inner\n"
    )
    assert int_conversions(source, "m") == ["m.<module>", "m.C.f.inner", "m.C.f", "m.C.f"]
