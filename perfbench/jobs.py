"""The three workloads: seeded rounds of jobs, each checked against an answer
known without the engine.

A workload's run is a sequence of rounds.  Every round runs the same job
kinds in the same order with fresh seeded inputs, so a run that ends on a
round boundary always has the same mix whatever the seed, and each job
finds the same kind of job before it (a small job after an so5 job runs
with cold caches and can take twice as long).  A job
is (label, run, check): run(tr) makes the engine calls through the tracer
`tr` and returns a JSON-able answer; check(answer) returns None when the
answer matches the independent one, else a message.

Why each workload, and what is left out on purpose, is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from eqss import cli
from eqss.cohomology import (
    GradedComplex,
    cohomology,
    cup_product,
    invariant_cohomology,
    relative_model,
    restricted_action,
)
from eqss.documents import parse_cup_document, parse_document
from eqss.forms import ce_complex
from eqss.liealg import LieAlgebra, LieAutomorphism, Subalgebra
from eqss.library import (
    builtin_text,
    circle_base,
    double_cover_base,
    sheet_swap_maps,
    sphere_base,
)
from eqss.linalg import RationalMatrix, rank
from eqss.obstructions import (
    gysin_assemble,
    s3_check_4manifold,
    s3_check_5manifold,
    solve_les,
    wang_check,
)
from eqss.spectral import FilteredComplex, pages_inductive, product_model, run_to_stabilization, twist_by_deck

import gen

CORPUS_DOCUMENTS = ("library", "models")
CORPUS_CUPS = ("cup_definite", "cup_hyperbolic", "cup_line")


def round_rng(workload, seed, r):
    return random.Random(f"{workload}:{seed}:{r}")


def load_corpus(tr):
    """Read and parse every shipped document, as each eqss command would."""
    docs = {}
    for name in CORPUS_DOCUMENTS:
        text = tr.call("library.builtin_text", builtin_text, name)
        docs[name] = tr.call("documents.parse_document", parse_document, text)
    for name in CORPUS_CUPS:
        text = tr.call("library.builtin_text", builtin_text, name)
        docs[name] = tr.call("documents.parse_cup_document", parse_cup_document, text)
    return docs


def _bits(matrices):
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for m in matrices for row in m.rows for x in row), default=0)


def _entries(matrices):
    return sum(m.nrows * m.ncols for m in matrices)


def _nnz(matrices):
    return sum(1 for m in matrices for row in m.rows for x in row if x)


# ---------------------------------------------------------------------------
# lie_pairs


# Each input runs once in the coordinate basis and in this many random bases
# a round.  The algebras of dimension 3 and 4 get three: their cost moves
# with the basis by up to 2x, and with one random basis each the median job
# moved by 14% between seeds.  With 26 jobs a round the median falls among
# them.  (so5, so4) takes 90% of the time with one random basis.
SMALL_RANDOM_BASES = 3
# (algebra, subalgebra, normalizer reflection, l, random bases): H(g, h) = H(S^l)
LIE_PAIRS = (
    ("su2", "e3", "su2_reflection", 2, SMALL_RANDOM_BASES),
    ("so3", "so2", "so3_reflection", 2, SMALL_RANDOM_BASES),
    ("u2", "u1", None, 3, SMALL_RANDOM_BASES),
    ("so4", "so3_in_so4", "so4_reflection", 3, 1),
    ("so5", "so4_in_so5", "so5_reflection", 4, 1),
)
# (algebra, random bases): H(SU(2)) = H(S^3), H(U(2)) = H(S^1 x S^3), H(SO(4)) = H(S^3 x S^3)
LIE_ABSOLUTE = (
    ("su2", (1, 0, 0, 1), SMALL_RANDOM_BASES),
    ("u2", (1, 1, 0, 1, 1), SMALL_RANDOM_BASES),
    ("so4", (1, 0, 0, 2, 0, 0, 1), 1),
)


class LiePairs:
    name = "lie_pairs"

    def __init__(self, seed, tr, root, traced):
        self.seed = seed
        self.lib = load_corpus(tr)["library"]

    def _inputs(self, rng, alg, sub, aut, random_basis, tag):
        """(g, h or None, automorphism rows or None) in either basis."""
        g = self.lib.algebra(alg)
        h = self.lib.subalgebra(sub) if sub else None
        a = self.lib.automorphism(aut).matrix.rows if aut else None
        if not random_basis:
            return g, h, a
        table, subs, a2 = gen.transport(
            rng, g.brackets, g.dim, h.basis.vectors if h else (), a)
        g2 = LieAlgebra.from_brackets(f"{alg}~{tag}", g.dim, table)
        h2 = Subalgebra.span(g2, subs, f"{sub}~{tag}") if h else None
        return g2, h2, a2

    def round(self, r):
        rng = round_rng(self.name, self.seed, r)
        jobs = []
        for alg, sub, aut, l, n_random in LIE_PAIRS:
            for v in range(1 + n_random):
                g, h, a = self._inputs(rng, alg, sub, aut, v > 0, f"{self.seed}.{r}.{v}")
                jobs.append((f"{alg}/{sub} basis {v}", _pair_job(g, h, a, l), _pair_check(g.dim, l, a)))
        for alg, betti, n_random in LIE_ABSOLUTE:
            for v in range(1 + n_random):
                g, _, _ = self._inputs(rng, alg, None, None, v > 0, f"{self.seed}.{r}.{v}")
                jobs.append((f"{alg} basis {v}", _absolute_job(g), _absolute_check(betti)))
        return jobs


def _complex_and_model(tr, g, h):
    ce = tr.call("forms.ce_complex", ce_complex, g)
    tr.count("forms.ce_entries", lambda: _entries(ce.differentials))
    tr.count("forms.ce_nnz", lambda: _nnz(ce.differentials))
    model = tr.call("cohomology.relative_model", relative_model, g, h)
    tr.count("cohomology.relative_dim", lambda: sum(model.complex.dims))
    tr.count("cohomology.max_coeff_bits", lambda: _bits(model.complex.differentials), max)
    res = tr.call("cohomology.cohomology", cohomology, model.complex)
    return model, res


def _pair_job(g, h, aut_rows, l):
    def run(tr):
        model, res = _complex_and_model(tr, g, h)
        answer = {"dims": list(res.dims)}
        if aut_rows is not None:
            aut = tr.call("liealg.LieAutomorphism.create", LieAutomorphism.create, g, aut_rows)
            maps = tr.call("cohomology.restricted_action", restricted_action, model, aut)
            inv = tr.call("cohomology.invariant_cohomology", invariant_cohomology, res, [maps])
            answer["invariant_dims"] = list(inv.dims)
        return answer
    return run


def _pair_check(dim, l, aut_rows):
    want = list(gen.sphere_betti(l, dim))
    # the normalizer reflection acts on H^l(S^l) by (-1)^(l+1)
    want_inv = [int(k == 0 or (k == l and l % 2 == 1)) for k in range(dim + 1)]

    def check(ans):
        if ans["dims"] != want:
            return f"dims {ans['dims']} != {want}"
        if aut_rows is not None and ans["invariant_dims"] != want_inv:
            return f"invariant dims {ans['invariant_dims']} != {want_inv}"
        return None
    return check


def _absolute_job(g):
    def run(tr):
        _, res = _complex_and_model(tr, g, None)
        n = g.dim
        cups = {}
        for p in range(n + 1):
            q = n - p
            for i in range(res.dims[p]):
                for j in range(res.dims[q]):
                    u = [int(t == i) for t in range(res.dims[p])]
                    v = [int(t == j) for t in range(res.dims[q])]
                    w = tr.call("cohomology.cup_product", cup_product, g, res, p, u, q, v)
                    cups[f"{p},{i},{q},{j}"] = str(w[0])
        return {"dims": list(res.dims), "top_cups": cups}
    return run


def _absolute_check(betti):
    def check(ans):
        dims = ans["dims"]
        if dims != list(betti):
            return f"dims {dims} != {list(betti)}"
        n = len(dims) - 1
        cups = {k: Fraction(v) for k, v in ans["top_cups"].items()}
        # 1 cup x = x in the representative basis of H^n
        if cups.get(f"0,0,{n},0") != 1 or cups.get(f"{n},0,0,0") != 1:
            return "the unit class does not act as the identity on H^n"
        for p in range(n + 1):
            q = n - p
            gram = [[cups[f"{p},{i},{q},{j}"] for j in range(dims[q])] for i in range(dims[p])]
            # Poincare duality: H^p x H^(n-p) -> H^n is nondegenerate
            if gen.rank(gram) != dims[p]:
                return f"cup pairing H^{p} x H^{q} is degenerate"
            # graded commutativity: u v = (-1)^(pq) v u
            sign = -1 if p * q % 2 else 1
            for i in range(dims[p]):
                for j in range(dims[q]):
                    if cups[f"{p},{i},{q},{j}"] != sign * cups[f"{q},{j},{p},{i}"]:
                        return f"cup product H^{p} x H^{q} is not graded commutative"
        return None
    return check


# ---------------------------------------------------------------------------
# spectral_models


# fibers (algebra, subalgebra) with H(g, h) known: S^3, S^2, S^3 x S^3, S^1 x S^3
SPECTRAL_FIBERS = {
    "su2": ("su2", None, (1, 0, 0, 1)),
    "so3/so2": ("so3", "so2", (1, 0, 1)),
    "so4": ("so4", None, (1, 0, 0, 2, 0, 0, 1)),
    "u2": ("u2", None, (1, 1, 0, 1, 1)),
}
# Every base and every fiber appears, but not all 12 pairs: a round of 15
# jobs whose kinds are well apart in cost puts the median on S4 x u2 and
# the 90th percentile on S1 x so4 for any number of rounds, where with 12
# products they fell between two kinds and moved by 10% from run to run.
SPECTRAL_PRODUCTS = (
    ("S1", 1, "so3/so2"), ("S2", 2, "so3/so2"), ("S2", 2, "su2"), ("S4", 4, "su2"),
    ("S1", 1, "u2"), ("S4", 4, "u2"), ("S1", 1, "so4"), ("S2", 2, "so4"),
)
# (pair, reflection, l) for the antipodal twist of the two-sheet circle cover
SPECTRAL_TWISTS = (("so3", "so2", "so3_reflection", 2), ("so4", "so3_in_so4", "so4_reflection", 3))
RANDOM_COMPLEXES_PER_ROUND = 5


class SpectralModels:
    name = "spectral_models"

    def __init__(self, seed, tr, root, traced):
        self.seed = seed
        self.lib = load_corpus(tr)["library"]
        self.bases = {k: sphere_base(k) if k > 1 else circle_base() for _, k, _ in SPECTRAL_PRODUCTS}
        self.cover, self.swap = double_cover_base(), sheet_swap_maps()

    def round(self, r):
        rng = round_rng(self.name, self.seed, r)
        jobs = []
        for _ in range(RANDOM_COMPLEXES_PER_ROUND):
            dims, diffs, weights, betti = gen.random_filtered_complex(rng)
            jobs.append((f"random {dims}", _random_spectral_job(dims, diffs, weights), _spectral_check(betti)))
        for bname, k, fiber in SPECTRAL_PRODUCTS:
            alg, sub, fiber_betti = SPECTRAL_FIBERS[fiber]
            base_betti = gen.sphere_betti(k, k)
            h = self.lib.subalgebra(sub) if sub else None
            job = _product_job(self.bases[k], self.lib.algebra(alg), h)
            check = _spectral_check(gen.convolve(base_betti, fiber_betti), base_betti, fiber_betti)
            jobs.append((f"{bname} x {fiber}", job, check))
        for alg, sub, aut, l in SPECTRAL_TWISTS:
            job = _twist_job(self.cover, self.swap, self.lib.algebra(alg), self.lib.subalgebra(sub),
                             self.lib.automorphism(aut))
            # the deck group fixes H(S^1) and acts on H^l(S^l) by (-1)^(l+1)
            odd = l % 2
            want = tuple(int(n in (0, 1)) + odd * int(n in (l, l + 1)) for n in range(l + 2))
            jobs.append((f"twist l={l}", job, _spectral_check(want)))
        return jobs


def _spectral_answer(tr, fc):
    table = tr.call("spectral.run_to_stabilization", run_to_stabilization, fc)
    inductive = tr.call("spectral.pages_inductive", pages_inductive, fc)
    cx = fc.complex
    ranks = [tr.call("linalg.rank", rank, cx.differential(n)) for n in range(cx.top)]
    tr.count("spectral.total_dim", lambda: sum(cx.dims))
    tr.count("spectral.pages", lambda: len(table.pages))
    einf = [0] * (cx.top + 1)
    for (p, q), d in table.einf.items():
        einf[p + q] += d
    return {
        "total_cohomology": list(table.total_cohomology),
        "einf_totals": einf,
        "rank_betti": [cx.dims[n] - (ranks[n] if n < cx.top else 0) - (ranks[n - 1] if n else 0)
                       for n in range(cx.top + 1)],
        "closed_pages": [sorted([p, q, d] for (p, q), d in pg.dims().items()) for pg in table.pages],
        "inductive_pages": [sorted([p, q, d] for (p, q), d in pg.items()) for pg in inductive],
    }


def _random_spectral_job(dims, diffs, weights):
    cx = GradedComplex.create(dims, [RationalMatrix.from_rows(d, dims[n]) for n, d in enumerate(diffs)])

    def run(tr):
        fc = tr.call("spectral.FilteredComplex.create", FilteredComplex.create, cx, weights)
        return _spectral_answer(tr, fc)
    return run


def _product_job(base, g, h):
    def run(tr):
        fc = tr.call("spectral.product_model", product_model, base, g, h)
        return _spectral_answer(tr, fc)
    return run


def _twist_job(cover, swap, g, h, aut):
    def run(tr):
        fc = tr.call("spectral.product_model", product_model, cover, g, h)
        twisted = tr.call("spectral.twist_by_deck", twist_by_deck, fc, swap, aut)
        return _spectral_answer(tr, twisted)
    return run


def _spectral_check(betti, base_betti=None, fiber_betti=None):
    def check(ans):
        n = len(ans["total_cohomology"])
        if len(betti) > n:
            return f"complex has {n} degrees, expected Betti numbers {list(betti)}"
        want = list(betti) + [0] * (n - len(betti))
        for key in ("total_cohomology", "einf_totals", "rank_betti"):
            if ans[key] != want:
                return f"{key} {ans[key]} != {want}"
        if ans["inductive_pages"] != ans["closed_pages"]:
            return "inductive page dimensions differ from the closed form"
        if base_betti is not None:
            # E_2^{p,q} = H^p(base) (x) H^q(fiber)
            e2 = sorted([p, q, b * f] for p, b in enumerate(base_betti)
                        for q, f in enumerate(fiber_betti) if b * f)
            if ans["closed_pages"][2] != e2:
                return f"E_2 {ans['closed_pages'][2]} is not the Kunneth product {e2}"
        return None
    return check


# ---------------------------------------------------------------------------
# cli_obstruct


def _expect_line(prefix, value):
    def check(out):
        got = next((ln[len(prefix):] for ln in out.splitlines() if ln.startswith(prefix)), None)
        return None if got == value else f"'{prefix}' reads {got!r}, expected {value!r}"
    return check


def _expect_json(path, value):
    def check(out):
        got = json.loads(out)
        for key in path:
            got = got[key]
        return None if got == value else f"{'.'.join(path)} is {got!r}, expected {value!r}"
    return check


def _gysin_pair_solutions(out):
    """Every listed solution of the README Gysin problem for (so4, so3): l = 3, B = (1, 1)."""
    sols = []
    for ln in out.splitlines():
        if ln.startswith("  M0="):
            assigned = ln.strip().split(";")[0]
            sols.append([int(kv.split("=")[1]) for kv in assigned.split(", ")])
    if [1, 1, 0, 1, 1] not in sols:
        return "the trivial bundle S^3 x S^1 is not among the Gysin solutions"
    if any(gen.euler(s) != 0 for s in sols):
        return "a Gysin solution violates chi(M) = (1 + (-1)^3) chi(B) = 0"
    return None


# (argv, exit code, stdout check) for the commands in the package README
README_COMMANDS = (
    (["cohomology", "builtin:library", "--algebra", "su2"], 0,
     _expect_line("dims by degree: ", "[1, 0, 0, 1]")),
    (["cohomology", "builtin:library", "--algebra", "su2", "--relative", "e3", "--invariants",
      "su2_reflection"], 0, _expect_line("invariants under su2_reflection: ", "[1, 0, 0, 0]")),
    (["cohomology", "builtin:library", "--algebra", "so4", "--relative", "so3_in_so4"], 0,
     _expect_line("dims by degree: ", "[1, 0, 0, 1, 0, 0, 0]")),
    (["specseq", "builtin:models", "--complex", "s1_x_su2"], 0,
     _expect_line("limit totals by degree: ", "[1, 1, 0, 1, 1]")),
    (["specseq", "builtin:models", "--complex", "antipodal_twisted", "--json"], 0,
     _expect_json(("results", "total_cohomology"), [1, 1, 0, 0])),
    (["obstruct", "s3-4m", "--betti", "1,0,3,0,1"], 0, _expect_line("verdict: ", "excluded")),
    (["obstruct", "s3-5m", "--b2", "2", "--cup", "builtin:cup_definite"], 0,
     _expect_line("verdict: ", "excluded")),
    (["obstruct", "gysin", "--l", "3", "--basic", "1,1", "--total", "1,1,0,1,1"], 0,
     _expect_line("given totals admitted: ", "yes")),
    (["obstruct", "gysin", "--pair", "so4,so3_in_so4", "--file", "builtin:library", "--basic", "1,1"],
     0, _gysin_pair_solutions),
    (["obstruct", "wang", "--codim", "3", "--gh", "1,0,0,1", "--total", "1,0,0,2,0,0,1",
      "--simply-connected", "--oriented"], 0, _expect_line("given totals admitted: ", "yes")),
    # malformed input exits 2, a failed hypothesis exits 3, and neither prints a report
    (["obstruct", "gysin", "--l", "3", "--total", "1,1"], 2, lambda out: None if out == "" else "stdout"),
    (["obstruct", "s3-4m", "--betti", "2,0,3,0,1"], 3, lambda out: None if out == "" else "stdout"),
)


def _csv(values):
    return ",".join(str(v) for v in values)


class CliObstruct:
    name = "cli_obstruct"

    def __init__(self, seed, tr, root, traced):
        self.seed = seed
        self.root = root
        load_corpus(tr)  # the set-up every workload pays; the commands read the corpus themselves
        self.env = _child_env(root)
        # traced runs start each command through clishim.py, which reports its own spans
        self.shim = Path(__file__).with_name("clishim.py") if traced else None
        self.cup_dir = root / ".perfbench" / f"cups-{seed}"
        self.cup_dir.mkdir(parents=True, exist_ok=True)

    def _cup_file(self, r, i, doc):
        path = self.cup_dir / f"r{r}-{i}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return str(path.relative_to(self.root))

    def round(self, r):
        rng = round_rng(self.name, self.seed, r)
        jobs = [(" ".join(a), self._cli_job(a, code, chk, None), _passed)
                for a, code, chk in README_COMMANDS]
        for admitted in (True, False):
            l, basic, total = gen.gysin_case(rng, admitted)
            argv = ["obstruct", "gysin", "--l", str(l), "--basic", _csv(basic), "--total", _csv(total), "--json"]
            direct = _gysin_direct(l, basic, total)
            jobs.append((" ".join(argv), self._cli_job(argv, 0, _expect_json(("results", "admitted"), admitted),
                                                        direct), _passed))
            codim, gh, total = gen.wang_case(rng, admitted)
            argv = ["obstruct", "wang", "--codim", str(codim), "--gh", _csv(gh), "--total", _csv(total),
                    "--simply-connected", "--oriented", "--json"]
            direct = _wang_direct(codim, gh, total)
            jobs.append((" ".join(argv), self._cli_job(argv, 0, _expect_json(("results", "admitted"), admitted),
                                                        direct), _passed))
            betti = gen.betti_4manifold(rng, excluded=admitted)
            argv = ["obstruct", "s3-4m", "--betti", _csv(betti), "--json"]
            direct = _s3_4m_direct(betti)
            jobs.append((" ".join(argv), self._cli_job(
                argv, 0, _expect_json(("results", "verdict", "excluded"), admitted), direct), _passed))
        l, basic, _ = gen.gysin_case(rng, True)
        argv = ["obstruct", "gysin", "--l", str(l), "--basic", _csv(basic[:3]), "--json"]
        jobs.append((" ".join(argv), self._cli_job(argv, 0, _gysin_open_check(l, basic[:3]),
                                                   _gysin_direct(l, basic[:3], None)), _passed))
        for i, (doc, completeness) in enumerate(((gen.cup_with_null_plane(rng), "exact"),
                                                 (gen.definite_cup(rng), "bounded-search"))):
            path = self._cup_file(r, i, doc)
            argv = ["obstruct", "s3-5m", "--b2", str(doc["b2"]), "--cup", path, "--json"]
            jobs.append((" ".join(argv), self._cli_job(argv, 0, _cup_check(doc, completeness),
                                                       _s3_5m_direct(path, doc["b2"])), _passed))
        return jobs

    def _cli_job(self, argv, want_code, check_stdout, direct):
        """One `eqss` process, the same argv through cli.main in process, and
        for obstruct commands the library calls behind it."""
        def run(tr):
            problems = []
            out, code = self._subprocess(tr, argv)
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                in_code = tr.call("cli.main", cli.main, list(argv))
            if code != want_code:
                problems.append(f"exit code {code}, expected {want_code}")
            if in_code != code:
                problems.append(f"cli.main returned {in_code}, the process exited {code}")
            if buf.getvalue() != out:
                problems.append("stdout of the process differs from cli.main in process")
            msg = check_stdout(out) if code == want_code else None
            if msg:
                problems.append(msg)
            answer = {"exit": code, "stdout_lines": len(out.splitlines())}
            if direct is not None:
                d_msg, d_answer = direct(tr, out)
                answer["direct"] = d_answer
                if d_msg:
                    problems.append(d_msg)
            answer["problems"] = problems
            return answer
        return run

    def _subprocess(self, tr, argv):
        if self.shim is None:
            cmd = [sys.executable, "-m", "eqss.cli", *argv]
        else:
            cmd = [sys.executable, str(self.shim), *argv]
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=120)
        end = perf_counter()
        if self.shim is not None:
            # the child's own spans, under one span for the whole process
            child = json.loads(proc.stderr.rstrip("\n").rpartition("\n")[2])
            with tr.span("cli.process", start) as rec:
                tr.add("cli.python_start", start, child["t_first"])
                for name, s, e, error in child["spans"]:
                    tr.add(name, s, e, error)
            rec[5] = end
        return proc.stdout, proc.returncode


def _passed(answer):
    return "; ".join(answer["problems"]) or None


def _child_env(root):
    env = {k: v for k, v in os.environ.items() if not k.startswith("EQSS_")}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _solutions(tr, problem):
    sols = tr.call("obstructions.solve_les", solve_les, problem)
    tr.count("obstructions.solve_les.solutions", lambda: len(sols))
    return sols


def _gysin_direct(l, basic, total):
    def direct(tr, out):
        problem = tr.call("obstructions.gysin_assemble", gysin_assemble, l=l, basic_dims=basic,
                          total_dims=total)
        sols = _solutions(tr, problem)
        cli_count = json.loads(out)["results"]["solution_count"]
        msg = None if len(sols) == cli_count else "library and CLI solution counts differ"
        return msg, len(sols)
    return direct


def _gysin_open_check(l, basic):
    want = list(gen.convolve(basic, gen.sphere_betti(l, l)))
    chi = (1 + (-1) ** l) * gen.euler(basic)

    def check(out):
        sols = [[s["assignments"][f"M{k}"] for k in range(len(want))]
                for s in json.loads(out)["results"]["solutions"]]
        if want not in sols:
            return f"the trivial bundle {want} is not among the Gysin solutions"
        if any(gen.euler(s) != chi for s in sols):
            return f"a Gysin solution violates chi(M) = {chi}"
        return None
    return check


def _wang_direct(codim, gh, total):
    def direct(tr, out):
        verdict = tr.call("obstructions.wang_check", wang_check, codim, True, True, gh, total)
        sols = _solutions(tr, verdict.problem)
        msg = None if bool(sols) == json.loads(out)["results"]["admitted"] else "library and CLI differ"
        return msg, len(sols)
    return direct


def _s3_4m_direct(betti):
    def direct(tr, out):
        verdict = tr.call("obstructions.s3_check_4manifold", s3_check_4manifold, betti)
        same = verdict.as_dict() == json.loads(out)["results"]["verdict"]
        return (None if same else "library and CLI verdicts differ"), verdict.excluded
    return direct


def _s3_5m_direct(path, b2):
    def direct(tr, out):
        text = Path(path).read_text(encoding="utf-8")
        cup = tr.call("documents.parse_cup_document", parse_cup_document, text)
        verdict = tr.call("obstructions.s3_check_5manifold", s3_check_5manifold, b2, cup, False)
        same = verdict.as_dict() == json.loads(out)["results"]["verdict"]
        return (None if same else "library and CLI verdicts differ"), verdict.completeness
    return direct


def _cup_check(doc, completeness):
    """A null plane n.x = 0 exists and is found exactly; a definite form has none."""
    def check(out):
        v = json.loads(out)["results"]["verdict"]
        if v["excluded"] or v.get("completeness") != completeness:
            return f"verdict {v['verdict']!r} ({v.get('completeness')}), expected not excluded ({completeness})"
        if completeness == "exact":
            plane = [[Fraction(x) for x in vec] for vec in v["witness"]]
            if gen.rank(plane) != doc["b2"] - 1 or not gen.is_null_plane(doc["matrices"], plane):
                return "the witness is not a cup-null hyperplane"
        return None
    return check


WORKLOADS = {w.name: w for w in (LiePairs, SpectralModels, CliObstruct)}
