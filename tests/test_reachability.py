"""Every function in src/eqss is reached by what the project runs: a README
command (text and --json) through `cli.main`, tools/corpus.py building the
corpus into a temporary directory, or round 0 of a perfbench workload.

`collect` runs those under `sys.setprofile` and returns the (file, first
line) of the code of each Python function called.  The guard runs it in a
fresh interpreter (this file run as a script, which prints that list), so
every module is imported and every cache is cold under the profile.
`defined` reads every `def` of a module (methods, properties and nested defs
included) with the first line of its code, which for a decorated function
is its first decorator's.  A def that nothing calls must leave `src`, unless
ALLOWED names it with the reason; an ALLOWED entry that is in fact reached,
or names no def, fails the guard too, so the list cannot go stale.
"""

import ast
import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "eqss").glob("*.py"))

# module.qualname -> why no command, corpus build or benchmark job calls it
ALLOWED = {
    "cli.run": "the console entry point; it runs only in child processes, which the profile cannot see",
    "records.FrozenRecord._key": "== and hash of the records that no command compares or hashes",
    "records.FrozenRecord.__repr__": "the repr protocol",
    "records.FrozenRecord.__setattr__": "refuses assignment to a field",
    "records.FrozenRecord.__delattr__": "refuses deletion of a field",
    "records.FrozenRecord.__getstate__": "the copy and pickle protocols, which leave the cached hash behind",
    "records.FrozenRecord.__setstate__": "the copy and pickle protocols",
}


def defined(source: str) -> dict[str, int]:
    """qualname -> first line of the code of every def in a module."""
    found: dict[str, int] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found[name if name not in found else f"{name}@{child.lineno}"] = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list])
                visit(child, name + ".")
            else:
                visit(child, prefix + child.name + "." if isinstance(child, ast.ClassDef) else prefix)

    visit(ast.parse(source), "")
    return found


def profiled(run) -> set[tuple[str, int]]:
    """(file, first line) of the code of every Python function called while run() runs."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(code.co_filename, code.co_firstlineno) for code in codes}


def unreached(paths, hits: set[tuple[str, int]], allowed) -> tuple[list[str], list[str]]:
    """(defs of the modules at paths that hits miss and allowed does not name,
    allowed names that are reached or name no def), each as module.qualname."""
    at = {f"{path.stem}.{name}": (str(path), line)
          for path in paths for name, line in defined(path.read_text(encoding="utf-8")).items()}
    missing = sorted(name for name, where in at.items() if where not in hits and name not in allowed)
    stale = sorted(name for name in allowed if name not in at or at[name] in hits)
    return missing, stale


def exercise() -> None:
    """Every README command through cli.main, the corpus build and round 0 of
    each perfbench workload, each job's answer checked."""
    from eqss import cli

    import corpus
    import jobs
    from ladder import readme_commands
    from tracing import NoTrace

    for argv in readme_commands(ROOT / "README.md"):
        text = [a for a in argv if a != "--json"]
        for args in (text, text + ["--json"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(args)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        corpus.regenerate(root / "data")
        # a workload runs in its root: cli_obstruct writes its cup files there
        # and starts its commands there, with root/src on PYTHONPATH
        (root / "src").symlink_to(ROOT / "src")
        os.chdir(root)
        try:
            for workload in jobs.WORKLOADS.values():
                for label, job, check in workload(0, NoTrace(), root, False).round(0):
                    problem = check(job(NoTrace()))
                    if problem:
                        raise SystemExit(f"{workload.name} {label}: {problem}")
        finally:
            os.chdir(ROOT)


def collect() -> list[tuple[str, int]]:
    for part in ("perfbench", "tools", "src"):
        sys.path.insert(0, str(ROOT / part))
    src = str(ROOT / "src" / "eqss")
    return sorted(hit for hit in profiled(exercise) if os.path.dirname(hit[0]) == src)


def test_every_function_in_src_is_reached():
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    hits = {(file, line) for file, line in json.loads(proc.stdout)}
    missing, stale = unreached(SOURCES, hits, ALLOWED)
    assert missing == [], f"no command, corpus build or benchmark job calls {missing}"
    assert stale == [], f"allowed but reached, or no such def: {stale}"
    assert len(ALLOWED) <= 15


SYNTHETIC = '''
import functools

def called():
    def inner_called():
        return 1

    def inner_uncalled():
        return 2

    return inner_called()

def uncalled():
    return 3

@functools.lru_cache(maxsize=4)
def decorated_called(n):
    return n

@functools.lru_cache(maxsize=4)
def decorated_uncalled(n):
    return n

class Box:
    def used(self):
        return self.size

    def unused(self):
        return 4

    @property
    def size(self):
        return 5

    @property
    def weight(self):
        return 6

    @staticmethod
    def allowed_and_called():
        return 7

    def allowed_uncalled(self):
        return 8
'''


def test_guard_sees_every_kind_of_uncalled_def(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC, encoding="utf-8")

    def run():
        module = runpy.run_path(str(path))
        module["called"](), module["decorated_called"](1)
        module["Box"]().used(), module["Box"].allowed_and_called()

    hits = profiled(run)
    allowed = {"synthetic.Box.allowed_and_called": "", "synthetic.Box.allowed_uncalled": "",
               "synthetic.gone": ""}
    missing, stale = unreached([path], hits, allowed)
    assert missing == ["synthetic.Box.unused", "synthetic.Box.weight", "synthetic.called.inner_uncalled",
                       "synthetic.decorated_uncalled", "synthetic.uncalled"]
    assert stale == ["synthetic.Box.allowed_and_called", "synthetic.gone"]


if __name__ == "__main__":
    json.dump(collect(), sys.stdout)
