"""The eqss ladder: the end-to-end cost of `eqss` commands, process start
included, on two rungs.

    python3 tools/ladder.py LABEL [--rung readme|lie] [--runs N] [--src DIR]

The readme rung (the default) reads the commands from the README's
"Command line" block (its lines that start with `eqss `) and writes
bench/BENCH_readme_LABEL.json.  The lie rung runs `eqss cohomology` on
so(n) absolute for n = 3..6 and on the pairs (so(l+1), so(l)) for
l = 2..16, and writes bench/BENCH_ladder_LABEL.json.  Its documents are
written by `documents.serialize_document`, with this checkout's src, into a
temporary directory (they are not shipped), and the report records each
one's size and sha256.  A refused input exits 3, so its time is the cost of
reading, parsing and refusing the document.

Each command runs N times as `python -m eqss.cli ARGS` in a fresh process,
with DIR (default: this checkout's src) first on PYTHONPATH and no EQSS_*
variables.  The runs go round-robin over the commands, so drift in machine
load touches every command alike.  Per command the report holds the exit
code, the sha256 of its stdout (which must not vary between runs), the
median wall time, and each child's max RSS from os.wait4.  Standard
library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def readme_commands(readme: Path) -> list[list[str]]:
    """The argv of each `eqss ...` line in the fenced block after "## Command line"."""
    lines = readme.read_text(encoding="utf-8").split("## Command line", 1)[1].splitlines()
    start = lines.index("```") + 1
    block = lines[start:lines.index("```", start)]
    return [shlex.split(line)[1:] for line in block if line.startswith("eqss ")]


def write_lie_documents(directory: str) -> list[tuple[list[str], dict]]:
    """Write the lie rung's documents into directory; each case's argv,
    relative to directory, and the size and sha256 of its document.

    Runs in a child process, because a child's ru_maxrss starts from the
    peak RSS of the process that forked it: the ladder itself must stay
    smaller than the commands it measures.
    """
    from eqss.documents import InputDocument, serialize_document
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
    out = []
    for doc, name, options in cases:
        data = serialize_document(doc).encode("utf-8")
        Path(directory, name).write_bytes(data)
        facts = {"document_bytes": len(data), "document_sha256": hashlib.sha256(data).hexdigest()}
        out.append((["cohomology", name, *options], facts))
    return out


def lie_cases(directory: Path) -> list[tuple[list[str], dict]]:
    """`write_lie_documents` run by this checkout's src in a child process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "tools"), str(ROOT / "src")]))
    code = "import json, sys, ladder; print(json.dumps(ladder.write_lie_documents(sys.argv[1])))"
    proc = subprocess.run([sys.executable, "-c", code, str(directory)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def run_once(argv: list[str], env: dict, cwd: Path | None = None) -> tuple[int, str, float, int]:
    """(exit code, stdout sha256, wall ms, max RSS in KB) of one process."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "eqss.cli", *argv], env=env, cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall_ms = (perf_counter() - start) * 1000
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, hashlib.sha256(out).hexdigest(), wall_ms, usage.ru_maxrss


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("label", help="names the output file: bench/BENCH_readme_LABEL.json, "
                                  "or bench/BENCH_ladder_LABEL.json for the lie rung")
    p.add_argument("--rung", choices=("readme", "lie"), default="readme",
                   help="the README commands (default) or the so(n) and (so(l+1), so(l)) ladder")
    p.add_argument("--runs", type=int, default=15, help="processes per command (default 15)")
    p.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the eqss package")
    args = p.parse_args()
    if args.runs < 1:
        p.error("--runs must be at least 1")
    if not (args.src / "eqss" / "cli.py").is_file():
        p.error(f"no eqss package under {args.src}")

    env = {k: v for k, v in os.environ.items() if not k.startswith("EQSS_")}
    src = str(args.src.resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with tempfile.TemporaryDirectory() as tmp:
        if args.rung == "lie":
            cwd, cases = Path(tmp), lie_cases(Path(tmp))
        else:
            cwd, cases = None, [(argv, {}) for argv in readme_commands(ROOT / "README.md")]
        runs = {i: [] for i in range(len(cases))}
        for _ in range(args.runs):
            for i, (argv, _) in enumerate(cases):
                runs[i].append(run_once(argv, env, cwd))

    rows = []
    for i, (argv, facts) in enumerate(cases):
        codes, digests, walls, rss = zip(*runs[i])
        if len(set(codes)) > 1 or len(set(digests)) > 1:
            print(f"error: eqss {shlex.join(argv)} varies between runs", file=sys.stderr)
            return 1
        rows.append({
            "argv": argv,
            **facts,
            "exit": codes[0],
            "stdout_sha256": digests[0],
            "wall_ms_median": round(statistics.median(walls), 2),
            "wall_ms": [round(w, 2) for w in walls],
            "max_rss_kb": list(rss),
        })
        print(f"{statistics.median(walls):8.1f} ms {max(rss) / 1024:6.1f} MB  exit {codes[0]}  eqss {shlex.join(argv)}")

    report = {
        "label": args.label,
        "runs": args.runs,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "commands": rows,
    }
    out = ROOT / "bench" / f"BENCH_{'ladder' if args.rung == 'lie' else 'readme'}_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
