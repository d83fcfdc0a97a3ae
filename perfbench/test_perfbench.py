"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The repository's own suite does not collect this file (pyproject.toml sets
testpaths to tests/).  Running the three workloads twice takes about a
minute.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from tracing import layer_totals  # noqa: E402


def _worker(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed),
         "--spawned-at", repr(perf_counter()), "--rounds", "1", "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["lie_pairs", "spectral_models", "cli_obstruct"])
def test_same_seed_gives_identical_counts_and_answers(workload):
    a, b = _worker(workload, 7), _worker(workload, 7)
    assert a["counts"] == b["counts"]
    assert all(v > 0 for v in a["counts"].values())
    assert [(j["label"], j["answer"]) for j in a["jobs"]] == [(j["label"], j["answer"]) for j in b["jobs"]]
    assert all(j["ok"] for j in a["jobs"]), [j["problem"] for j in a["jobs"] if not j["ok"]]
    # one span per call, in the same order
    assert [s["name"] for s in a["spans"]] == [s["name"] for s in b["spans"]]


def test_rounds_have_the_same_mix_for_every_seed():
    sys.path.insert(0, str(ROOT / "src"))
    import jobs
    from tracing import NoTrace

    w1 = jobs.LiePairs(1, NoTrace(), ROOT, False)
    w2 = jobs.LiePairs(2, NoTrace(), ROOT, False)
    assert [j[0] for j in w1.round(0)] == [j[0] for j in w2.round(3)]


def test_random_filtered_complex_is_seeded_and_has_the_stated_betti_numbers():
    one = gen.random_filtered_complex(random.Random(5))
    assert one == gen.random_filtered_complex(random.Random(5))
    assert one != gen.random_filtered_complex(random.Random(6))
    dims, diffs, _, betti = one
    ranks = [gen.rank(d) for d in diffs]
    assert betti == tuple(dims[n] - (ranks[n] if n < len(ranks) else 0) - (ranks[n - 1] if n else 0)
                          for n in range(len(dims)))


def test_transport_conjugates_the_bracket():
    # [e1, e2] = e3 and cyclic: in the new basis T, T [x, y]_new = [T x, T y]
    su2 = (((1, 2), (0, 0, 1)), ((1, 3), (0, -1, 0)), ((2, 3), (1, 0, 0)))
    rng = random.Random(3)
    table, _, _ = gen.transport(random.Random(3), su2, 3, (), None)
    t, _ = gen.random_unimodular_basis(rng, 3)
    cols = [[t[r][c] for r in range(3)] for c in range(3)]
    for (i, j), coeffs in table.items():
        lhs = [sum(t[r][k] * coeffs[k] for k in range(3)) for r in range(3)]
        assert lhs == gen._bracket(su2, 3, cols[i - 1], cols[j - 1])


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "job", "parent": None, "start": 0.0, "end": 1.0, "error": False},
        {"id": 1, "name": "a", "parent": 0, "start": 0.1, "end": 0.4, "error": False},
        {"id": 2, "name": "a", "parent": 0, "start": 0.5, "end": 0.6, "error": True},
    ]
    totals = layer_totals(spans)
    assert totals["job"]["self_ms"] == pytest.approx(600)
    assert totals["a"] == pytest.approx({"ms": 400, "self_ms": 400, "calls": 2, "errors": 1})


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lie_pairs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
