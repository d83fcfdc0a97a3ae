"""A benchmark claim in one command and one file: this checkout against a
base revision, in alternating pairs of perfbench runs.

    python3 tools/claim.py LABEL --workload WORKLOAD --pairs N --base REV

`git archive REV` is unpacked into a temporary directory, and each tree's
own perfbench/run.py (the base's, and this checkout's with its working-tree
files) runs N times with `--trace 0`, each run as long as BENCHMARK.json's
`run_seconds`.  Pair i runs both trees on the seed `seed_base(LABEL) + i`,
the base first in even pairs and this checkout first in odd ones, so drift
in machine load touches both sides alike.  Every module is compiled from
source in every process, as in a fresh checkout: every `__pycache__` under
each tree's src and perfbench is removed first and the runs set
PYTHONDONTWRITEBYTECODE=1 (tools/ladder.py's `prepare_bytecode`).

bench/BENCH_claim_LABEL.json holds every run (seed, side, order, exit code,
whether its jobs were correct, and its metrics) and, for each end-to-end
metric of BENCHMARK.json, each side's values, median, quartiles and
interquartile range, the pairs the change wins (strictly better, in the
metric's direction), the gap between the medians, and whether that gap
exceeds the base's interquartile range.  Quartiles are
`statistics.quantiles(n=4, method="inclusive")`.  The exit code is 1 when
a run fails or any job in it fails its check; the file is written anyway.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from ladder import child_env, prepare_bytecode

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")


def seed_base(label: str) -> int:
    """The first seed of a claim, read off the label: 10000..99999."""
    return 10_000 + int(hashlib.sha256(label.encode()).hexdigest(), 16) % 90_000


def summary(values: list[float]) -> dict:
    """The values with their median, quartiles and interquartile range."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(base: list[float], change: list[float], better: str) -> dict:
    """Paired statistics of one metric; base[i] and change[i] come from pair i."""
    if len(base) != len(change) or len(base) < 2:
        raise ValueError("compare needs two equally long lists of at least two values")
    sign = 1 if better == "higher" else -1
    b, c = summary(base), summary(change)
    gap = c["median"] - b["median"]
    return {
        "better": better,
        "base": b,
        "change": c,
        "wins": sum(sign * (y - x) > 0 for x, y in zip(base, change)),
        "pairs": len(base),
        "gap": gap,
        "improved": sign * gap > 0,
        "gap_exceeds_base_iqr": abs(gap) > b["iqr"],
    }


def unpack(rev: str, dest: Path) -> str:
    """Unpack `git archive rev` into dest; the full commit hash."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_bench(tree: Path, env: dict, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` of the tree: its exit code, correctness and metrics."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"exit": proc.returncode, "correct": False, "error": proc.stderr[-2000:]}
    return {
        "exit": proc.returncode,
        "correct": proc.returncode == 0 and result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("label", help="names the output file bench/BENCH_claim_LABEL.json and derives the seeds")
    p.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    p.add_argument("--pairs", type=int, required=True, help="pairs of runs, at least 2")
    p.add_argument("--base", required=True, help="the base revision, unpacked with git archive")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        p.error("the label may hold only letters, digits, '.', '_' and '-'")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        p.error(f"unknown workload {args.workload!r}")
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    seconds = spec["run_seconds"]
    first = seed_base(args.label)

    runs = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        base_commit = unpack(args.base, Path(tmp))
        trees = {"base": Path(tmp), "change": ROOT}
        envs = {}
        for side, tree in trees.items():
            env = child_env(tree / "src")
            for sub in ("src", "perfbench"):
                env = stack.enter_context(prepare_bytecode(tree / sub, "compiled", env))
            envs[side] = env
        for i in range(args.pairs):
            seed = first + i
            for order, side in enumerate(SIDES if i % 2 == 0 else SIDES[::-1]):
                run = {"pair": i, "seed": seed, "side": side, "order": order,
                       **run_bench(trees[side], envs[side], args.workload, seed, seconds)}
                runs.append(run)
                shown = {k: round(v, 4) for k, v in run.get("metrics", {}).items()}
                print(f"pair {i} seed {seed} {side:6} exit {run['exit']} {shown}", flush=True)

    metrics = {}
    if all("metrics" in run for run in runs):
        for m in spec["end_to_end"]:
            values = {side: [run["metrics"][m["name"]] for run in runs if run["side"] == side] for side in SIDES}
            metrics[m["name"]] = compare(values["base"], values["change"], m["better"])
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True).stdout
    dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"], capture_output=True, text=True).stdout
    report = {
        "label": args.label,
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": seconds,
        "seeds": [first + i for i in range(args.pairs)],
        "base": {"rev": args.base, "commit": base_commit},
        "change": {"head": head.strip(), "working_tree_changes": bool(dirty.strip())},
        "bytecode": "compiled",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "all_correct": all(run["correct"] for run in runs),
        "metrics": metrics,
        "runs": runs,
    }
    for name, s in metrics.items():
        print(f"{name:12} base {s['base']['median']:.4g} [{s['base']['q1']:.4g}, {s['base']['q3']:.4g}]"
              f" -> change {s['change']['median']:.4g} [{s['change']['q1']:.4g}, {s['change']['q3']:.4g}]"
              f"  wins {s['wins']}/{s['pairs']}  gap exceeds base IQR: {s['gap_exceeds_base_iqr']}")
    out = ROOT / "bench" / f"BENCH_claim_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0 if report["all_correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
