"""The eqss benchmark.

    python3 perfbench/run.py --workload {lie_pairs,spectral_models,cli_obstruct}
                             --seed N --seconds S --trace {0,1}

Run it from the repository root.  Each workload runs in fresh single-threaded
Python processes (perfbench/worker.py), one client in a closed loop, and
every job is checked against an answer known without the engine.

--trace 0 measures the end-to-end metrics: set-up time (median of
SETUP_SAMPLES fresh processes), jobs per second and per-job latency over
whole rounds lasting at least --seconds, and the peak RSS after round 0.
Times are rescaled to the reference speed (clock.py); the raw wall times
are printed too.  --trace 1 runs round 0 alternately untraced and traced
in fresh processes for --seconds, reports per-layer span totals and exact
size counts from the first traced run, and the tracing overhead as the
median difference of the traced and untraced job times, all at the
reference speed.  Spans are written to .perfbench/trace-<workload>-<seed>.jsonl.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; the lines above it print every metric with its unit
and sample count.  The exit code is 1 when any job fails its check.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from clock import to_reference
from tracing import layer_totals, write_jsonl

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
WORKLOADS = ("lie_pairs", "spectral_models", "cli_obstruct")
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150

# spans reported by the traced run, each as .ms, .self_ms, .calls and .errors
SPANS = (
    "setup", "job",
    "cli.python_start", "cli.import", "library.builtin_text", "documents.parse_document",
    "documents.parse_cup_document",
    "forms.ce_complex", "cohomology.relative_model", "cohomology.cohomology",
    "liealg.LieAutomorphism.create", "cohomology.restricted_action",
    "cohomology.invariant_cohomology", "cohomology.cup_product",
    "spectral.FilteredComplex.create", "spectral.product_model", "spectral.twist_by_deck",
    "spectral.run_to_stabilization", "spectral.pages_inductive", "linalg.rank",
    "cli.process", "cli.process_main", "cli.main",
    "obstructions.gysin_assemble", "obstructions.wang_check", "obstructions.solve_les",
    "obstructions.s3_check_4manifold", "obstructions.s3_check_5manifold",
)
# exact size counts taken from the returned objects
COUNTS = (
    ("forms.ce_entries", "count"), ("forms.ce_nnz", "count"),
    ("cohomology.relative_dim", "count"), ("cohomology.max_coeff_bits", "bits"),
    ("spectral.total_dim", "count"), ("spectral.pages", "count"),
    ("obstructions.solve_les.solutions", "count"),
)


class WorkerError(RuntimeError):
    pass


def spawn_worker(workload, seed, *extra):
    """Run worker.py in a fresh interpreter: (its JSON result, wall seconds, start time).

    The worker gets its own process group, so a timeout also stops the eqss
    command it may be running.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), workload, str(seed), "--spawned-at", repr(start), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1]), wall, start


def _latency(ms):
    return statistics.median(ms), statistics.quantiles(ms, n=10)[8], len(ms)


def measure(workload, seed, seconds):
    setups, raw_setups = [], []
    for i in range(SETUP_SAMPLES):
        extra = ("--setup-only",) if i < SETUP_SAMPLES - 1 else ("--seconds", str(seconds))
        res, _, spawned = spawn_worker(workload, seed, *extra)
        raw_setups.append(res["t_ready"] - spawned)
        setups.append(to_reference(raw_setups[-1], res["t_first"], res["t_ready"], res["speed_samples"]))
    jobs = res["jobs"]
    raw = [(j["end"] - j["start"]) * 1000 for j in jobs]
    ms = [to_reference(t, j["start"], j["end"], res["speed_samples"]) for t, j in zip(raw, jobs)]
    passed = sum(j["ok"] for j in jobs)
    p50, p90, n = _latency(ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "jobs_per_s": (passed / (sum(ms) / 1000), "1/s", n),
        "job_ms_p50": (p50, "ms", n),
        "job_ms_p90": (p90, "ms", n),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB", 1),
    }
    raw_p50, raw_p90, _ = _latency(raw)
    notes = [f"rounds {res['rounds']}, loop {res['loop_s']:.2f} s, timed {sum(raw) / 1000:.2f} s",
             f"raw wall times: setup_s {statistics.median(raw_setups):.4f}, "
             f"jobs_per_s {passed / (sum(raw) / 1000):.4f}, job_ms_p50 {raw_p50:.2f}, "
             f"job_ms_p90 {raw_p90:.2f}"]
    return jobs, metrics, notes


def _reference_ms(res, start, end):
    return to_reference((end - start) * 1000, start, end, res["speed_samples"])


def _jobs_ms(res):
    return sum(_reference_ms(res, j["start"], j["end"]) for j in res["jobs"])


def trace(workload, seed, seconds):
    """Round 0, untraced then traced, in fresh processes, for at least `seconds`."""
    jobs, overheads, traced = [], [], None
    start = perf_counter()
    while not overheads or perf_counter() - start < seconds:
        plain, _, _ = spawn_worker(workload, seed, "--rounds", "1")
        res, _, _ = spawn_worker(workload, seed, "--rounds", "1", "--trace")
        overheads.append(_jobs_ms(res) - _jobs_ms(plain))
        for a, b in zip(plain["jobs"], res["jobs"]):
            if a["answer"] != b["answer"]:
                b["ok"] = False
                b["problem"] = "traced and untraced runs gave different answers"
        jobs += plain["jobs"] + res["jobs"]
        traced = traced or res
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    write_jsonl(out_dir / f"trace-{workload}-{seed}.jsonl", traced["spans"])
    totals = layer_totals(traced["spans"], lambda s: _reference_ms(traced, s["start"], s["end"]))
    metrics = {}
    for name in SPANS:
        t = totals.get(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0, "errors": 0})
        metrics[f"{name}.ms"] = (t["ms"], "ms", t["calls"])
        metrics[f"{name}.self_ms"] = (t["self_ms"], "ms", t["calls"])
        metrics[f"{name}.calls"] = (t["calls"], "count", 1)
        metrics[f"{name}.errors"] = (t["errors"], "count", 1)
    for name, unit in COUNTS:
        metrics[name] = (traced["counts"].get(name, 0), unit, 1)
    metrics["trace.overhead_ms"] = (statistics.median(overheads), "ms", len(overheads))
    metrics["trace.spans"] = (len(traced["spans"]), "count", 1)
    unknown = sorted(set(totals) - set(SPANS))
    notes = [f"trace pairs {len(overheads)}; spans written to {out_dir.name}/"]
    if unknown:
        notes.append(f"spans missing from SPANS: {unknown}")
    return jobs, metrics, notes


def main(argv=None):
    p = argparse.ArgumentParser(description="eqss benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "eqss" / "cli.py").is_file():
        print(f"error: no eqss sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        run = trace if args.trace else measure
        jobs, metrics, notes = run(args.workload, args.seed, args.seconds)
    except (WorkerError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    failed = [j for j in jobs if not j["ok"]]
    for j in failed[:10]:
        print(f"FAILED round {j['round']} {j['label']}: {j['problem']}")
    print(f"workload {args.workload} seed {args.seed}")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_frac = {len(failed) / len(jobs):.4f}  ({len(failed)} of {len(jobs)} jobs)")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}  (samples {n})")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
