"""README-command rung of the eqss ladder: the end-to-end cost of each
`eqss` command in the README, process start included.

    python3 tools/ladder.py LABEL [--runs N] [--src DIR]

Reads the commands from the README's "Command line" block (its lines that
start with `eqss `) and runs each one N times as `python -m eqss.cli ARGS`
in a fresh process, with DIR (default: this checkout's src) first on
PYTHONPATH and no EQSS_* variables.  The runs go round-robin over the
commands, so drift in machine load touches every command alike.  Writes
bench/BENCH_readme_LABEL.json: per command the exit code, the sha256 of its
stdout (which must not vary between runs), the median wall time, and each
child's max RSS from os.wait4.  Standard library only.
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
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def readme_commands(readme: Path) -> list[list[str]]:
    """The argv of each `eqss ...` line in the fenced block after "## Command line"."""
    lines = readme.read_text(encoding="utf-8").split("## Command line", 1)[1].splitlines()
    start = lines.index("```") + 1
    block = lines[start:lines.index("```", start)]
    return [shlex.split(line)[1:] for line in block if line.startswith("eqss ")]


def run_once(argv: list[str], env: dict) -> tuple[int, str, float, int]:
    """(exit code, stdout sha256, wall ms, max RSS in KB) of one process."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "eqss.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall_ms = (perf_counter() - start) * 1000
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, hashlib.sha256(out).hexdigest(), wall_ms, usage.ru_maxrss


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("label", help="names the output file bench/BENCH_readme_LABEL.json")
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
    commands = readme_commands(ROOT / "README.md")
    runs = {i: [] for i in range(len(commands))}
    for _ in range(args.runs):
        for i, argv in enumerate(commands):
            runs[i].append(run_once(argv, env))

    rows = []
    for i, argv in enumerate(commands):
        codes, digests, walls, rss = zip(*runs[i])
        if len(set(codes)) > 1 or len(set(digests)) > 1:
            print(f"error: eqss {shlex.join(argv)} varies between runs", file=sys.stderr)
            return 1
        rows.append({
            "argv": argv,
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
    out = ROOT / "bench" / f"BENCH_readme_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
