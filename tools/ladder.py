"""The eqss ladder: the end-to-end cost of `eqss` commands, process start
included, on two rungs.

    python3 tools/ladder.py LABEL [--rung readme|lie] [--runs N] [--src DIR]
                            [--base BASE_LABEL BASE_DIR]

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
load touches every command alike.  With --base, every run of a command is
also made with the eqss package under BASE_DIR, the two trees taking turns
to go first, and a second report is written under BASE_LABEL: a
before/after pair measured interleaved.  Per command the report holds the
exit code, the sha256 of its stdout (which must not vary between runs), the
median wall time, and each child's max RSS from os.wait4.

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

ROOT = Path(__file__).resolve().parents[1]


def readme_commands(readme: Path) -> list[list[str]]:
    """The argv of each `eqss ...` line in the fenced block after "## Command line"."""
    lines = readme.read_text(encoding="utf-8").split("## Command line", 1)[1].splitlines()
    start = lines.index("```") + 1
    block = lines[start:lines.index("```", start)]
    return [shlex.split(line)[1:] for line in block if line.startswith("eqss ")]


def write_lie_documents(directory: Path) -> list[tuple[list[str], dict]]:
    """Write the lie rung's documents into directory with this checkout's
    src; each case's argv, relative to directory, and the size and sha256
    of its document."""
    sys.path.insert(0, str(ROOT / "src"))
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
        (directory / name).write_bytes(data)
        facts = {"document_bytes": len(data), "document_sha256": hashlib.sha256(data).hexdigest()}
        out.append((["cohomology", name, *options], facts))
    return out


# Reads one JSON [argv, cwd] per line; forks `python -m eqss.cli ARGV` in cwd
# with stdin and stderr on /dev/null, and answers with one JSON line
# [exit code, stdout sha256, wall ms, max RSS in KB].
LAUNCHER = """
import hashlib, json, os, sys, time
for line in sys.stdin:
    argv, cwd = json.loads(line)
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
            os.execv(sys.executable, [sys.executable, "-m", "eqss.cli", *argv])
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


def child_env(src: Path) -> dict:
    """This environment less EQSS_* variables, with src first on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EQSS_")}
    env["PYTHONPATH"] = str(src.resolve()) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_launcher(env: dict) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER], env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def run_once(launcher: subprocess.Popen, argv: list[str], cwd: Path | None = None) -> tuple[int, str, float, int]:
    """(exit code, stdout sha256, wall ms, max RSS in KB) of one process."""
    launcher.stdin.write(json.dumps([argv, str(cwd) if cwd else None]) + "\n")
    launcher.stdin.flush()
    return tuple(json.loads(launcher.stdout.readline()))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("label", help="names the output file: bench/BENCH_readme_LABEL.json, "
                                  "or bench/BENCH_ladder_LABEL.json for the lie rung")
    p.add_argument("--rung", choices=("readme", "lie"), default="readme",
                   help="the README commands (default) or the so(n) and (so(l+1), so(l)) ladder")
    p.add_argument("--runs", type=int, default=15, help="processes per command (default 15)")
    p.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the eqss package")
    p.add_argument("--base", nargs=2, metavar=("BASE_LABEL", "BASE_DIR"),
                   help="also run every command with the eqss package under BASE_DIR, interleaved")
    args = p.parse_args()
    if args.runs < 1:
        p.error("--runs must be at least 1")
    trees = [(args.label, args.src)] + ([(args.base[0], Path(args.base[1]))] if args.base else [])
    for _, src in trees:
        if not (src / "eqss" / "cli.py").is_file():
            p.error(f"no eqss package under {src}")

    launchers = [start_launcher(child_env(src)) for _, src in trees]
    with tempfile.TemporaryDirectory() as tmp:
        if args.rung == "lie":
            cwd, cases = Path(tmp), write_lie_documents(Path(tmp))
        else:
            cwd, cases = None, [(argv, {}) for argv in readme_commands(ROOT / "README.md")]
        runs = {(t, i): [] for t in range(len(trees)) for i in range(len(cases))}
        for r in range(args.runs):
            for i, (argv, _) in enumerate(cases):
                for t in (range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))):
                    runs[t, i].append(run_once(launchers[t], argv, cwd))
    for launcher in launchers:
        launcher.stdin.close()
        launcher.wait()

    for t, (label, _) in enumerate(trees):
        print(label)
        rows = []
        for i, (argv, facts) in enumerate(cases):
            codes, digests, walls, rss = zip(*runs[t, i])
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
            print(f"{statistics.median(walls):8.1f} ms {max(rss) / 1024:6.1f} MB  exit {codes[0]}  "
                  f"eqss {shlex.join(argv)}")
        report = {
            "label": label,
            "runs": args.runs,
            "interleaved_with": [other for other, _ in trees if other != label],
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "commands": rows,
        }
        out = ROOT / "bench" / f"BENCH_{'ladder' if args.rung == 'lie' else 'readme'}_{label}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
