"""The eqss ladder: the end-to-end cost of `eqss` commands, process start
included, on five rungs.

    python3 tools/ladder.py LABEL [--rung readme|lie|pairs|cup|les] [--runs N] [--src DIR]
                            [--base BASE_LABEL BASE_DIR] [--bytecode compiled|cached]

The readme rung (the default) reads the commands from the README's
"Command line" block (its lines that start with `eqss `) and writes
bench/BENCH_readme_LABEL.json.  The lie rung runs `eqss cohomology` on
so(n) absolute for n = 3..6 and on the pairs (so(l+1), so(l)) for
l = 2..16, and writes bench/BENCH_ladder_LABEL.json.  The pairs rung runs
`eqss cohomology` on (so(l+1), so(l)) for l = 2..6 and on the Stiefel
manifolds V(n, 2) = so(n)/so(n-2) and the Grassmannians G2(R^n) =
so(n)/(so(n-2) + so(2)) for n = 4..6, each pair in the basis of the
columns of an integer matrix of determinant 1 drawn with the seed
PAIRS_SEED, and writes bench/BENCH_pairs_LABEL.json.  The cup rung runs
`eqss obstruct s3-5m` on four cup forms for each b2 = 3..6 (a definite one,
one of rank 1 and one of rank 2 with no null hyperplane of small normal,
and none at all) and writes bench/BENCH_cup_LABEL.json.  The les rung runs
`eqss obstruct gysin --l 1 --basic` on k fives for k = 3..9, an open
sequence with 6^(k-2) solutions (6 to 279,936), and writes
bench/BENCH_les_LABEL.json; a row past `obstructions.MAX_SOLUTIONS`
solutions exits 3.  The documents of the lie and pairs rungs are written
by `corpus.serialize_document` (tools/corpus.py), with this checkout's
src, and those of the cup rung by `json.dumps`, into a temporary directory
(they are not shipped), and the report records each one's size and
sha256.  A refused input exits 3, so its time is the cost of reading,
parsing and refusing the document.

Each command runs N times as `python -m eqss.cli ARGS` in a fresh process,
with DIR (default: this checkout's src) first on PYTHONPATH and no EQSS_*
variables.  Two floor rows come first in every rung: `python -c pass` (the
interpreter with `site`) and `python -S -c pass` (without it).  With
`--bytecode compiled` (the default) every `__pycache__` under DIR is
removed first and the children run with PYTHONDONTWRITEBYTECODE=1, so each
compiles the eqss modules it imports from source; with `--bytecode cached`
compileall writes DIR's bytecode first, and the `__pycache__` directories it
made are removed when the ladder ends, so a later run from DIR (a perfbench
pair, say) finds its bytecode as it was.  The standard library reads its
installed bytecode in both modes.  The runs go round-robin over the
commands, so drift in machine load touches every command alike.  With
--base, every run of a command is also made with the eqss package under
BASE_DIR, the two trees taking turns to go first, and a second report is
written under BASE_LABEL: a before/after pair measured interleaved.  Per
command the report holds the exit code, the sha256 of its stdout (which
must not vary between runs), the median wall time, and each child's max
RSS from os.wait4; with --base (and at least two runs), each row of LABEL's
report also holds `paired`, tools/claim.py's `compare` of the base's and
this tree's wall times run by run: medians, quartiles, wins and whether the
gap exceeds the base's interquartile range.

A child's ru_maxrss starts from the resident size of the process that
forks it (subprocess's vfork shares the forker's memory, and so its peak,
until exec), so the commands are not forked by the ladder but by a small
launcher process (`LAUNCHER`, run by `python -S`), one per tree.  A row's
RSS then does not depend on how large the ladder has grown
(tests/test_ladder.py).
Standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import platform
import random
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]


def readme_commands(readme: Path) -> list[list[str]]:
    """The argv of each `eqss ...` line in the fenced block after "## Command line"."""
    lines = readme.read_text(encoding="utf-8").split("## Command line", 1)[1].splitlines()
    start = lines.index("```") + 1
    block = lines[start:lines.index("```", start)]
    return [shlex.split(line)[1:] for line in block if line.startswith("eqss ")]


# The seed of the pairs rung's bases; its documents are the same on every run.
PAIRS_SEED = 95


def lie_cases():
    """The lie rung's (document, file name, options) cases."""
    from eqss.documents import InputDocument
    from eqss.library import so_pair
    from eqss.liealg import so_algebra

    cases = []
    for n in range(3, 7):
        g = so_algebra(n)
        cases.append((InputDocument({g.name: g}, {}, {}, {}, {}), f"so{n}.json", ["--algebra", g.name]))
    for l in range(2, 17):
        g, h = so_pair(l)
        doc = InputDocument({g.name: g}, {h.name: h}, {}, {}, {})
        cases.append((doc, f"so{l + 1}_so{l}.json", ["--algebra", g.name, "--relative", h.name]))
    return cases


def unimodular_columns(rng, n: int) -> list[list[int]]:
    """The columns of a random integer n x n matrix of determinant 1: the
    identity after 2n draws of columns i, j, each adding -2..2 times column
    i to column j when i != j."""
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            cols[j] = [a + c * b for a, b in zip(cols[j], cols[i])]
    return cols


def pairs_cases():
    """The pairs rung's (document, file name, options) cases: each pair
    (g, h) carried to the basis of the columns t_i of T, with brackets
    T^-1 [t_i, t_j] and h spanned by T^-1 v over h's basis vectors v."""
    from eqss.documents import InputDocument
    from eqss.library import so_pair
    from eqss.liealg import LieAlgebra, Subalgebra, bracket_terms, coordinate_subalgebra, so_algebra, so_pairs
    from eqss.linalg import RationalMatrix

    def so_over(n, circle, name):  # so(n) over so(n-2), or so(n-2) + so(2)
        g = so_algebra(n)
        return g, coordinate_subalgebra(g, [k + 1 for k, (i, j) in enumerate(so_pairs(n))
                                            if j <= n - 2 or circle and i == n - 1], name)

    pairs = [(so_pair(l), f"so{l + 1}_so{l}.json") for l in range(2, 7)]
    pairs += [(so_over(n, False, f"so{n - 2}"), f"V{n}_2.json") for n in range(4, 7)]
    pairs += [(so_over(n, True, f"so{n - 2}+so2"), f"G2_R{n}.json") for n in range(4, 7)]
    cases = []
    for (g, h), name in pairs:
        t = RationalMatrix.from_columns(unimodular_columns(random.Random(PAIRS_SEED), g.dim))
        tinv = t.inverse()

        def back(terms):  # T^-1 x for x given by its (k, c) terms
            x = RationalMatrix.from_entries(g.dim, [[(k - 1, c) for k, c in terms]])
            return tinv.mul(x).column(0)

        cols = [tuple((k + 1, c) for k, c in col) for col in t.entries]
        table = {(i + 1, j + 1): back(bracket_terms(g, cols[i], cols[j]).items())
                 for i in range(g.dim) for j in range(i + 1, g.dim)}
        g2 = LieAlgebra.from_brackets(g.name, g.dim, table)
        h2 = Subalgebra.span(g2, [back((k + 1, c) for k, c in v) for v in h.basis.matrix.entries], h.name)
        doc = InputDocument({g2.name: g2}, {h2.name: h2}, {}, {}, {})
        cases.append((doc, name, ["--algebra", g2.name, "--relative", h2.name]))
    return cases


def cup_cases():
    """The cup rung's (document, file name, options) cases, for b2 = 3..6:
    I + J (definite), J = l l^T with l = (1, ..., 1) (null on l.x = 0),
    n m^T + m n^T with n = 6 e1 + e2 and m = e2 + 6 e3 (null only on
    normals of height 6), and no matrix (null on every hyperplane)."""
    cases = []
    for b2 in range(3, 7):
        n, m = [6, 1] + [0] * (b2 - 2), [0, 1, 6] + [0] * (b2 - 3)
        forms = {
            "definite": [[[1 + (i == j) for j in range(b2)] for i in range(b2)]],
            "rank1": [[[1] * b2 for _ in range(b2)]],
            "rank2": [[[n[i] * m[j] + m[i] * n[j] for j in range(b2)] for i in range(b2)]],
            "empty": [],
        }
        for kind, matrices in forms.items():
            cases.append(({"b2": b2, "matrices": matrices}, f"cup{b2}_{kind}.json", ["--b2", str(b2)]))
    return cases


def les_commands() -> list[list[str]]:
    """The les rung's argv: a circle over a base with k basic dims 5, k = 3..9."""
    return [["obstruct", "gysin", "--l", "1", "--basic", ",".join(["5"] * k)] for k in range(3, 10)]


def write_documents(directory: Path, rung: str) -> list[tuple[list[str], dict]]:
    """Write the lie, pairs or cup rung's documents into directory with this
    checkout's src; each case's argv, relative to directory, and the size
    and sha256 of its document."""
    sys.path.insert(0, str(ROOT / "src"))
    from corpus import serialize_document

    if rung == "cup":
        command, serialize = ["obstruct", "s3-5m", "--cup"], json.dumps
    else:
        command, serialize = ["cohomology"], serialize_document
    out = []
    for doc, name, options in {"lie": lie_cases, "pairs": pairs_cases, "cup": cup_cases}[rung]():
        data = serialize(doc).encode("utf-8")
        (directory / name).write_bytes(data)
        facts = {"document_bytes": len(data), "document_sha256": hashlib.sha256(data).hexdigest()}
        out.append(([*command, name, *options], facts))
    return out


# Reads one JSON [args, cwd] per line; forks `python ARGS` in cwd with stdin
# and stderr on /dev/null, and answers with one JSON line
# [exit code, stdout sha256, wall ms, max RSS in KB].
LAUNCHER = """
import hashlib, json, os, sys, time
for line in sys.stdin:
    args, cwd = json.loads(line)
    r, w = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            null = os.open(os.devnull, os.O_RDWR)
            os.dup2(null, 0)
            os.dup2(w, 1)
            os.dup2(null, 2)
            os.chdir(cwd or ".")
            os.execv(sys.executable, [sys.executable, *args])
        finally:
            os._exit(127)
    os.close(w)
    digest = hashlib.sha256()
    while chunk := os.read(r, 1 << 16):
        digest.update(chunk)
    os.close(r)
    _, status, usage = os.wait4(pid, 0)
    wall_ms = (time.perf_counter() - start) * 1000
    print(json.dumps([os.waitstatus_to_exitcode(status), digest.hexdigest(), wall_ms, usage.ru_maxrss]),
          flush=True)
"""


# The interpreter arguments of the floor rows.
FLOORS = (("-c", "pass"), ("-S", "-c", "pass"))


def child_env(src: Path) -> dict:
    """This environment less EQSS_* variables, with src first on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EQSS_")}
    env["PYTHONPATH"] = str(src.resolve()) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@contextlib.contextmanager
def prepare_bytecode(src: Path, bytecode: str, env: dict) -> Iterator[dict]:
    """Yields env for children that run the package under src with its
    bytecode "cached" (compileall writes it now) or "compiled" from source
    (every __pycache__ under src removed, and PYTHONDONTWRITEBYTECODE=1 so
    that no child writes one).  On exit every __pycache__ under src that
    was not there before is removed."""
    before = set(src.rglob("__pycache__"))
    env = dict(env)
    try:
        if bytecode == "cached":
            if not compileall.compile_dir(str(src), quiet=1):
                raise RuntimeError(f"compileall failed under {src}")
            env.pop("PYTHONDONTWRITEBYTECODE", None)
        else:
            for cache in list(src.rglob("__pycache__")):
                shutil.rmtree(cache)
            env["PYTHONDONTWRITEBYTECODE"] = "1"
        yield env
    finally:
        for cache in set(src.rglob("__pycache__")) - before:
            shutil.rmtree(cache)


def start_launcher(env: dict) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER], env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def run_python(launcher: subprocess.Popen, args, cwd: Path | None = None) -> tuple[int, str, float, int]:
    """(exit code, stdout sha256, wall ms, max RSS in KB) of one `python ARGS` process."""
    launcher.stdin.write(json.dumps([list(args), str(cwd) if cwd else None]) + "\n")
    launcher.stdin.flush()
    return tuple(json.loads(launcher.stdout.readline()))


def run_once(launcher: subprocess.Popen, argv: list[str], cwd: Path | None = None) -> tuple[int, str, float, int]:
    """run_python of `python -m eqss.cli ARGV`."""
    return run_python(launcher, ["-m", "eqss.cli", *argv], cwd)


def command_row(head: dict, runs: list, base_runs: list | None = None) -> dict:
    """A report row: head, then the exit code and stdout sha256 of the first
    run, and the median, every wall time and every max RSS of the runs, each
    (exit code, stdout sha256, wall ms, max RSS in KB).  Given the base tree's
    runs of the same rounds, `paired` holds `claim.compare` of the two trees'
    wall times, lower being better."""
    codes, digests, walls, rss = zip(*runs)
    row = {
        **head,
        "exit": codes[0],
        "stdout_sha256": digests[0],
        "wall_ms_median": round(statistics.median(walls), 2),
        "wall_ms": [round(w, 2) for w in walls],
        "max_rss_kb": list(rss),
    }
    if base_runs is not None:
        from claim import compare  # imported here: claim imports this module

        row["paired"] = compare([round(r[2], 2) for r in base_runs], row["wall_ms"], "lower")
    return row


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("label", help="names the output file: bench/BENCH_readme_LABEL.json, "
                                  "bench/BENCH_ladder_LABEL.json for the lie rung, "
                                  "bench/BENCH_pairs_LABEL.json for the pairs rung, "
                                  "bench/BENCH_cup_LABEL.json for the cup rung, "
                                  "or bench/BENCH_les_LABEL.json for the les rung")
    p.add_argument("--rung", choices=("readme", "lie", "pairs", "cup", "les"), default="readme",
                   help="the README commands (default), the so(n) and (so(l+1), so(l)) ladder, "
                        "the spheres, V(n, 2) and G2(R^n) in a random basis, "
                        "s3-5m on cup forms for b2 = 3..6, "
                        "or open Gysin sequences with 3..9 basic dims")
    p.add_argument("--runs", type=int, default=15, help="processes per command (default 15)")
    p.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the eqss package")
    p.add_argument("--base", nargs=2, metavar=("BASE_LABEL", "BASE_DIR"),
                   help="also run every command with the eqss package under BASE_DIR, interleaved")
    p.add_argument("--bytecode", choices=("compiled", "cached"), default="compiled",
                   help="compile the eqss modules from source in every process (default), "
                        "or compileall each tree's src first")
    args = p.parse_args()
    if args.runs < 1 or args.base and args.runs < 2:
        p.error("--runs must be at least 1, and at least 2 with --base")
    trees = [(args.label, args.src)] + ([(args.base[0], Path(args.base[1]))] if args.base else [])
    for _, src in trees:
        if not (src / "eqss" / "cli.py").is_file():
            p.error(f"no eqss package under {src}")

    if args.bytecode == "compiled":  # this process imports eqss too, for the lie and pairs documents
        sys.dont_write_bytecode = True
    with contextlib.ExitStack() as stack, tempfile.TemporaryDirectory() as tmp:
        envs = [stack.enter_context(prepare_bytecode(src, args.bytecode, child_env(src))) for _, src in trees]
        launchers = [start_launcher(env) for env in envs]
        if args.rung == "readme":
            cwd, commands = None, [(argv, {}) for argv in readme_commands(ROOT / "README.md")]
        elif args.rung == "les":
            cwd, commands = None, [(argv, {}) for argv in les_commands()]
        else:
            cwd, commands = Path(tmp), write_documents(Path(tmp), args.rung)
        # (interpreter arguments, the row's head) per case, the floors first
        cases = [(floor, {"python": list(floor)}) for floor in FLOORS]
        cases += [(["-m", "eqss.cli", *argv], {"argv": argv, **facts}) for argv, facts in commands]
        runs = {(t, i): [] for t in range(len(trees)) for i in range(len(cases))}
        for r in range(args.runs):
            for i, (python_args, _) in enumerate(cases):
                for t in (range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))):
                    runs[t, i].append(run_python(launchers[t], python_args, cwd))
        for launcher in launchers:
            launcher.stdin.close()
            launcher.wait()

    for t, (label, _) in enumerate(trees):
        print(label)
        rows = []
        for i, (_, head) in enumerate(cases):
            name = shlex.join(["python", *head["python"]] if "python" in head else ["eqss", *head["argv"]])
            if len({(code, digest) for code, digest, _, _ in runs[t, i]}) > 1:
                print(f"error: {name} varies between runs", file=sys.stderr)
                return 1
            row = command_row(head, runs[t, i], runs[1, i] if t == 0 and args.base else None)
            rows.append(row)
            paired = row.get("paired")
            versus = f"  wins {paired['wins']}/{paired['pairs']} gap {paired['gap']:+.1f} ms" if paired else ""
            print(f"{row['wall_ms_median']:8.1f} ms {max(row['max_rss_kb']) / 1024:6.1f} MB"
                  f"  exit {row['exit']}{versus}  {name}")
        report = {
            "label": label,
            "runs": args.runs,
            "interleaved_with": [other for other, _ in trees if other != label],
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "bytecode": args.bytecode,
            "PYTHONDONTWRITEBYTECODE": envs[t].get("PYTHONDONTWRITEBYTECODE"),
            "commands": rows,
        }
        out = ROOT / "bench" / f"BENCH_{'ladder' if args.rung == 'lie' else args.rung}_{label}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
