"""One workload process: set up, run rounds of jobs, print one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED --spawned-at T
        [--setup-only] [--seconds S | --rounds N] [--trace]

Set-up imports eqss, reads and parses the shipped corpus and generates the
inputs of round 0.  The loop then runs whole rounds until --seconds have
passed (or --rounds are done); inputs of later rounds are generated between
jobs, outside the timed intervals.  A SpeedSampler (clock.py) runs from the
first statement to the end, so run.py can rescale every interval.  run.py
starts this script in a fresh interpreter for every measurement and reads
the last line of its stdout.
"""

from time import perf_counter

T_FIRST = perf_counter()

from clock import SpeedSampler  # noqa: E402

SAMPLER = SpeedSampler()
SAMPLER.start()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import NoTrace, Tracer, span_dicts  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _peak_rss_kb(workload):
    # cli_obstruct does its work in child processes; the others in this one
    who = resource.RUSAGE_CHILDREN if workload == "cli_obstruct" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def run(args):
    # One CPU for the whole run: the sampler then times the CPU the jobs run
    # on, also for the eqss child processes of cli_obstruct, which inherit it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tr = Tracer() if args.trace else NoTrace()
    tr.add("cli.python_start", args.spawned_at, T_FIRST)
    with tr.span("setup"):
        sys.path.insert(0, str(ROOT / "src"))
        tr.call("cli.import", importlib.import_module, "eqss.cli")
        import jobs

        workload = jobs.WORKLOADS[args.workload](args.seed, tr, ROOT, args.trace)
        round_jobs = workload.round(0)
    out = {"t_first": T_FIRST, "t_ready": perf_counter()}
    if args.setup_only:
        SAMPLER.sample_now(3)  # a set-up shorter than the sampling period still gets samples
        return out
    records = []
    loop_start = perf_counter()
    r = 0
    while True:
        for i, (label, job, check) in enumerate(round_jobs):
            tr.job = f"{r}.{i}"
            with tr.span("job"):
                start = perf_counter()
                try:
                    answer = job(tr)
                    end = perf_counter()
                    problem = check(answer)
                except Exception:  # a failed job is counted, and the loop goes on
                    end = perf_counter()
                    answer, problem = None, traceback.format_exc(limit=3)
            records.append({"round": r, "label": label, "start": start, "end": end,
                            "ok": problem is None, "problem": problem, "answer": answer})
        tr.job = None
        if r == 0:
            out["peak_rss_kb"] = _peak_rss_kb(args.workload)
        r += 1
        if r == args.rounds or (args.rounds is None and perf_counter() - loop_start >= args.seconds):
            break
        round_jobs = workload.round(r)
    out.update(loop_s=perf_counter() - loop_start, rounds=r, jobs=records)
    if args.trace:
        out["spans"] = span_dicts(tr.spans)
        out["counts"] = tr.counts
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="perf_counter reading of the parent just before it started this process")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    out = run(args)
    SAMPLER.stop()
    out["speed_samples"] = SAMPLER.samples
    print(json.dumps(out))


if __name__ == "__main__":
    main()
