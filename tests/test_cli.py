import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import eqss
from eqss import cli
from eqss.documents import builtin_names, builtin_text

from ladder import readme_commands

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def test_absolute_cohomology_golden(capsys):
    report = run_json(capsys, "cohomology", "builtin:library", "--algebra", "su2")
    assert report["results"]["dims"] == [1, 0, 0, 1]
    assert report["results"]["complex_dims"] == [1, 3, 3, 1]
    assert report["engine_version"]


def test_relative_cohomology_with_invariants_golden(capsys):
    report = run_json(
        capsys,
        "cohomology",
        "builtin:library",
        "--algebra",
        "su2",
        "--relative",
        "e3",
        "--invariants",
        "su2_reflection",
    )
    assert report["results"]["dims"] == [1, 0, 1, 0]
    assert report["results"]["invariant_dims"] == [1, 0, 0, 0]


def test_orthogonal_pair_cohomology_golden(capsys):
    report = run_json(
        capsys, "cohomology", "builtin:library", "--algebra", "so4", "--relative", "so3_in_so4"
    )
    dims = report["results"]["dims"]
    assert dims[:4] == [1, 0, 0, 1] and not any(dims[4:])


def test_specseq_product_golden(capsys):
    report = run_json(capsys, "specseq", "builtin:models", "--complex", "s1_x_su2")
    assert report["results"]["total_cohomology"] == [1, 1, 0, 1, 1]
    assert report["results"]["stabilized_at"] <= 2
    assert report["results"]["audit"] == "ok"
    e2 = next(p for p in report["results"]["pages"] if p["r"] == 2)
    assert e2["entries"] == [[0, 0, 1], [0, 3, 1], [1, 0, 1], [1, 3, 1]]


def test_specseq_trivial_filtration_is_single_column(capsys):
    report = run_json(capsys, "specseq", "builtin:models", "--complex", "su2_trivial")
    assert all(p == 0 for p, _, _ in report["results"]["einf"])
    assert report["results"]["total_cohomology"] == [1, 0, 0, 1]


def test_specseq_twisted_and_control_golden(capsys):
    twisted = run_json(capsys, "specseq", "builtin:models", "--complex", "antipodal_twisted")
    control = run_json(capsys, "specseq", "builtin:models", "--complex", "antipodal_control")
    assert twisted["results"]["total_cohomology"] == [1, 1, 0, 0]
    assert control["results"]["total_cohomology"] == [1, 1, 1, 1]


def test_obstruct_4manifold_both_verdicts(capsys):
    hit = run_json(capsys, "obstruct", "s3-4m", "--betti", "1,0,3,0,1")
    assert hit["results"]["verdict"]["excluded"] is True
    miss = run_json(capsys, "obstruct", "s3-4m", "--betti", "1,0,2,0,1")
    assert miss["results"]["verdict"]["excluded"] is False


def test_obstruct_5manifold_cup_examples(capsys):
    outcomes = {}
    for name in ("cup_line", "cup_hyperbolic", "cup_definite"):
        b2 = 1 if name == "cup_line" else 2
        report = run_json(
            capsys, "obstruct", "s3-5m", "--b2", str(b2), "--cup", f"builtin:{name}"
        )
        outcomes[name] = report["results"]["verdict"]["excluded"]
    assert outcomes == {"cup_line": False, "cup_hyperbolic": False, "cup_definite": True}


def test_obstruct_5manifold_finds_a_line_of_two_forms(tmp_path, capsys):
    # the discriminant of the first form is 1; both forms vanish on x = -y
    doc = tmp_path / "cup.json"
    doc.write_text(json.dumps({"b2": 2, "matrices": [[[-4, -3], [-3, -2]], [[1, 0], [0, -1]]]}))
    report = run_json(capsys, "obstruct", "s3-5m", "--b2", "2", "--cup", str(doc))
    verdict = report["results"]["verdict"]
    assert verdict["excluded"] is False and verdict["completeness"] == "exact"
    assert verdict["witness"] == [["1", "-1"]]


def random_cup_text(rng, b2):
    """A cup document with b2 <= 3 that may be malformed in one of several ways."""
    def entry():
        roll = rng.random()
        if roll < 0.6:
            return rng.randint(-3, 3)
        if roll < 0.9:
            return f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}"
        return rng.choice([1.5, "x", None, True, [1], "1/0", "1/2/3", 10**400])

    def matrix(n):
        m = [[entry() for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.8:  # mostly symmetric
            for i in range(n):
                for j in range(i):
                    m[i][j] = m[j][i]
        if n and rng.random() < 0.1:
            m[rng.randrange(n)].pop()
        return m

    sizes = [b2 if rng.random() < 0.85 else rng.randint(0, 4) for _ in range(rng.randint(0, 3))]
    doc = {"b2": b2 if rng.random() < 0.9 else rng.choice([-1, "2", 1.0]), "matrices": [matrix(n) for n in sizes]}
    if rng.random() < 0.05:
        doc["extra"] = 1
    if rng.random() < 0.05:
        del doc["matrices"]
    text = json.dumps(doc)
    if rng.random() < 0.1:
        text = text[: rng.randrange(len(text))]
    return text


def test_obstruct_5manifold_fuzz_exits_cleanly(tmp_path, capsys):
    rng = random.Random(1405)
    doc = tmp_path / "cup.json"
    codes = set()
    for _ in range(200):
        b2 = rng.randint(0, 3)
        doc.write_text(random_cup_text(rng, b2))
        flag = ["--sphere-hyperplane"] if rng.random() < 0.1 else []
        given = b2 if rng.random() < 0.8 else rng.randint(-1, 4)
        code, out, err = run(capsys, "obstruct", "s3-5m", "--b2", str(given), "--cup", str(doc), *flag)
        assert code in (0, 2, 3) and "Traceback" not in err
        assert (out == "") == (code != 0)
        codes.add(code)
    assert codes == {0, 2, 3}


def test_obstruct_5manifold_flag_short_circuits(capsys):
    report = run_json(
        capsys,
        "obstruct",
        "s3-5m",
        "--b2",
        "2",
        "--cup",
        "builtin:cup_definite",
        "--sphere-hyperplane",
    )
    assert report["results"]["verdict"]["excluded"] is False


def test_obstruct_gysin_membership(capsys):
    good = run_json(
        capsys, "obstruct", "gysin", "--l", "3", "--basic", "1,1", "--total", "1,1,0,1,1"
    )
    assert good["results"]["admitted"] is True
    bad = run_json(
        capsys, "obstruct", "gysin", "--l", "3", "--basic", "1,1", "--total", "1,1,1,1,1"
    )
    assert bad["results"]["admitted"] is False


def test_obstruct_gysin_pair_mode(capsys):
    report = run_json(
        capsys,
        "obstruct",
        "gysin",
        "--pair",
        "so4,so3_in_so4",
        "--file",
        "builtin:library",
        "--basic",
        "1,1",
    )
    assert report["results"]["solution_count"] == 1
    only = report["results"]["solutions"][0]
    assert [only["assignments"][f"M{k}"] for k in range(5)] == [1, 1, 0, 1, 1]


def test_obstruct_wang_verdicts(capsys):
    codim1 = run_json(
        capsys, "obstruct", "wang", "--codim", "1", "--gh", "1,0,0,1",
        "--simply-connected", "--oriented",
    )
    assert codim1["results"]["verdict"]["excluded"] is True
    codim3 = run_json(
        capsys, "obstruct", "wang", "--codim", "3", "--gh", "1,0,0,1",
        "--total", "1,0,0,2,0,0,1", "--simply-connected", "--oriented",
    )
    assert codim3["results"]["verdict"]["excluded"] is False
    assert codim3["results"]["admitted"] is True
    assert codim3["results"]["solution_count"] == 1


def test_obstruct_sequences_of_hundreds_of_terms_exit_cleanly(capsys):
    # S^400 over a point: H(M) = 1 in degrees 0 and 400
    total = ",".join(["1"] + ["0"] * 399 + ["1"])
    code, out, err = run(capsys, "obstruct", "gysin", "--l", "400", "--basic", "1", "--total", total)
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "given totals admitted: yes"
    # codimension 3 over an S^400-like pair: H(M) = 1 in degrees 0, 3, 400 and 403
    gh = ",".join(["1"] + ["0"] * 399 + ["1"])
    total = ",".join("1" if k in (0, 3, 400, 403) else "0" for k in range(404))
    code, out, err = run(capsys, "obstruct", "wang", "--codim", "3", "--gh", gh, "--total", total,
                         "--simply-connected", "--oriented")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "given totals admitted: yes"


def test_reports_are_deterministic(capsys):
    for argv in (
        ("cohomology", "builtin:library", "--algebra", "su2"),
        ("specseq", "builtin:models", "--complex", "s1_x_su2"),
        ("obstruct", "s3-4m", "--betti", "1,0,3,0,1"),
        ("cohomology", "builtin:library", "--algebra", "su2", "--json"),
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second and first[0] == 0


def test_the_parser_is_built_once_and_answers_as_a_fresh_one(capsys):
    commands = (
        ("--version",),
        ("cohomology", "builtin:library"),  # --algebra missing: argparse exits 2
        ("obstruct", "s3-4m", "--betti", "1,0,3,0,1"),
        ("specseq", "builtin:models", "--complex", "s1_x_su2"),
    )

    def answer(argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse exits for --version and argument errors
            code = e.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in commands:
        cli._build_parser.cache_clear()
        fresh.append(answer(argv))
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0]
    assert fresh[0][1] == f"eqss {eqss.__version__}\n" and "--algebra" in fresh[1][2]
    cli._build_parser.cache_clear()
    assert [answer(argv) for argv in commands * 2] == fresh * 2
    assert cli._build_parser.cache_info().misses == 1  # one parser built for the eight calls


# A report longer than stdout's 8 KiB buffer: without a flush before
# os._exit, its tail would be lost.
LONG_REPORT = ["specseq", "builtin:models", "--complex", "s1_x_su2", "--max-page", "30", "--json"]
FRESH_COMMANDS = readme_commands(ROOT / "README.md") + [
    ["obstruct", "gysin", "--l", "3", "--total", "1,1"],  # exit 2
    ["obstruct", "s3-4m", "--betti", "2,0,3,0,1"],  # exit 3
    ["--version"],  # argparse exits 0
    ["--help"],  # argparse exits 0
    ["obstruct", "s3-4m"],  # argparse exits 2
    LONG_REPORT,
]


def start_fresh(argv, stdout=subprocess.PIPE, **eqss_env):
    """`python -m eqss.cli argv` with this checkout's src first on its path,
    no EQSS_* variables but the given ones and stdout block-buffered
    (PYTHONUNBUFFERED unset), as a shell runs it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EQSS_") and k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.update(eqss_env)
    return subprocess.Popen([sys.executable, "-m", "eqss.cli", *argv], env=env,
                            stdout=stdout, stderr=subprocess.PIPE)


def test_fresh_processes_answer_as_main_in_process(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # one --help layout in process and in the children
    procs = [start_fresh(argv) for argv in FRESH_COMMANDS]
    codes = []
    for argv, proc in zip(FRESH_COMMANDS, procs):
        out, err = proc.communicate(timeout=60)
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse's exits; `run` ends the child with the same code
            code = e.code
        captured = capsys.readouterr()
        assert (proc.returncode, out, err) == (code, captured.out.encode(), captured.err.encode()), argv
        codes.append(code)
        if argv is LONG_REPORT:
            assert len(out) > 8192
    assert codes[-6:] == [2, 3, 0, 0, 2, 0] and set(codes[:-6]) == {0}


@pytest.mark.parametrize("argv", [["obstruct", "s3-4m", "--betti", "1,0,3,0,1"], LONG_REPORT,
                                  ["--version"], ["--help"]],
                         ids=["flush", "write", "version", "help"])
def test_a_closed_stdout_exits_1_without_a_traceback(argv):
    read, write = os.pipe()
    os.close(read)  # the reader has gone before the report is written
    try:
        proc = start_fresh(argv, stdout=write)
    finally:
        os.close(write)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_a_usage_error_into_a_closed_stdout_exits_2_with_its_usage(capsys):
    argv = ["obstruct", "s3-4m"]
    with pytest.raises(SystemExit):
        cli.main(argv)
    usage = capsys.readouterr().err.encode()
    read, write = os.pipe()
    os.close(read)
    try:
        proc = start_fresh(argv, stdout=write)
    finally:
        os.close(write)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (2, usage)


def test_reported_digest_is_the_sha256_of_the_utf8_text(tmp_path, monkeypatch):
    """On both sides of the built-in hash's size limit: below it the
    interpreter's own SHA-256 runs, at it hashlib's."""
    limit = cli._BUILTIN_SHA256_LIMIT
    texts = {f"builtin:{name}": builtin_text(name) for name in builtin_names()}
    for name, text in [("empty", ""), ("non-ascii", '{"name": "ℚ-form ∧ é"}'),
                       ("below", "é" + "x" * (limit - 3)), ("at", "é" + "x" * (limit - 2))]:
        path = tmp_path / f"{name}.json"
        path.write_bytes(text.encode("utf-8"))
        texts[str(path)] = text
    assert len(texts[str(tmp_path / "below.json")].encode("utf-8")) == limit - 1
    sizes, sha256 = [], hashlib.sha256

    def counted(data):
        sizes.append(len(data))
        return sha256(data)

    monkeypatch.setattr(hashlib, "sha256", counted)
    inputs = {}
    for spec, text in texts.items():
        assert cli._load_text(spec, inputs) == text
    if any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2")):
        assert sizes == [limit]  # only the document at the limit went through hashlib
    else:  # an interpreter built without the built-in hash
        assert sizes == [len(text.encode("utf-8")) for text in texts.values()]
    assert inputs == {spec: sha256(text.encode("utf-8")).hexdigest() for spec, text in texts.items()}


def test_the_installed_command_runs_through_run():
    assert 'eqss = "eqss.cli:run"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()


def test_text_report_echoes_command_and_input_hash(capsys):
    code, out, _ = run(capsys, "cohomology", "builtin:library", "--algebra", "su2")
    assert code == 0
    assert out.splitlines()[0].endswith("cohomology builtin:library --algebra su2")
    assert "input builtin:library sha256 " in out


def test_exit_2_on_unreadable_and_malformed_input(tmp_path, capsys):
    code, _, err = run(capsys, "cohomology", str(tmp_path / "gone.json"), "--algebra", "g")
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "cohomology", str(bad), "--algebra", "g")
    assert code == 2 and "invalid JSON" in err


def test_exit_2_on_a_builtin_name_outside_the_corpus(tmp_path, capsys):
    data = Path(eqss.__file__).resolve().parent / "data"
    evil = tmp_path / "evil"
    evil.with_suffix(".json").write_text(
        json.dumps({"lie_algebras": [{"name": "su2", "dim": 1, "brackets": []}]})
    )
    for name in (os.path.relpath(evil, data), str(evil), "../data/library", "library.json", ""):
        code, out, err = run(capsys, "cohomology", f"builtin:{name}", "--algebra", "su2")
        assert (code, out) == (2, ""), name
        assert err.startswith(f"error: no builtin document '{name}' (available: cup_definite,")


HUGE = "9" * 5000  # past the 4300-digit limit of int() on decimal strings


def algebra_doc(entry: str) -> bytes:
    algebra = '{"name": "g", "dim": 1, "brackets": [[1, 1, [%s]]]}' % entry
    return ('{"lie_algebras": [%s]}' % algebra).encode()


def cup_doc(entry: str) -> bytes:
    return ('{"b2": 1, "matrices": [[[%s]]]}' % entry).encode()


@pytest.mark.parametrize(
    "make_doc, argv",
    [
        (algebra_doc, ["cohomology", "FILE", "--algebra", "g"]),
        (cup_doc, ["obstruct", "s3-5m", "--b2", "1", "--cup", "FILE"]),
    ],
    ids=["document", "cup document"],
)
@pytest.mark.parametrize(
    "content",
    [
        lambda doc: doc('"\xe9"').decode().encode("latin-1"),
        lambda doc: b"[" * 200_000 + b"]" * 200_000,
        lambda doc: doc(HUGE),
        lambda doc: doc(f'"{HUGE}/7"'),
    ],
    ids=["not utf-8", "deep nesting", "huge integer", "huge p/q string"],
)
def test_exit_2_on_every_malformed_file(tmp_path, capsys, make_doc, argv, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content(make_doc))
    code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_exit_2_on_dangling_names(capsys):
    code, _, err = run(capsys, "cohomology", "builtin:library", "--algebra", "nope")
    assert code == 2 and "available" in err
    code, _, err = run(
        capsys, "cohomology", "builtin:library", "--algebra", "su2", "--relative", "u1"
    )
    assert code == 2 and "parent" in err


def test_exit_2_on_a_subalgebra_of_another_algebra(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "lie_algebras": [{"name": "a", "dim": 2, "brackets": []}, {"name": "b", "dim": 2, "brackets": []}],
        "subalgebras": [{"name": "h", "parent": "b", "basis": [[1, 0]]}],
    }))
    for argv in (
        ["cohomology", str(doc), "--algebra", "a", "--relative", "h"],
        ["obstruct", "gysin", "--pair", "a,h", "--file", str(doc), "--basic", "1,1"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: subalgebra 'h' has parent 'b', not 'a'\n"), argv


def test_exit_2_on_non_string_references(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(
        json.dumps(
            {
                "lie_algebras": [{"name": "g", "dim": 1, "brackets": []}],
                "subalgebras": [{"name": "h", "parent": ["g"], "basis": []}],
            }
        )
    )
    code, out, err = run(capsys, "cohomology", str(doc), "--algebra", "g")
    assert code == 2 and out == ""
    assert "subalgebras[0].parent: expected a string" in err and "Traceback" not in err


def test_exit_2_on_repeated_bracket_pairs(tmp_path, capsys):
    brackets = [[1, 2, [0, 0, 1]], [1, 3, [0, -1, 0]], [2, 3, [1, 0, 0]], [1, 2, [0, 0, 0]]]
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"lie_algebras": [{"name": "su2", "dim": 3, "brackets": brackets}]}))
    code, out, err = run(capsys, "cohomology", str(doc), "--algebra", "su2")
    assert code == 2 and out == ""
    assert "(1,2) is given more than once" in err


def test_exit_3_on_validation_failures(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text(
        json.dumps(
            {"complexes": [{"name": "c", "dims": [1, 1, 1], "differentials": [[[1]], [[1]]]}]}
        )
    )
    code, _, err = run(capsys, "specseq", str(broken), "--complex", "c")
    assert code == 3 and "d^2" in err

    unfiltered = tmp_path / "plain.json"
    unfiltered.write_text(
        json.dumps({"complexes": [{"name": "c", "dims": [1], "differentials": []}]})
    )
    code, _, err = run(capsys, "specseq", str(unfiltered), "--complex", "c")
    assert code == 3 and "filtration" in err

    code, _, err = run(capsys, "obstruct", "wang", "--codim", "2", "--gh", "1,0,0,1")
    assert code == 3 and "simply connected" in err


def test_exit_3_names_the_least_triple_that_breaks_jacobi(tmp_path, capsys):
    # e1 is central and e2, e3, e4 break Jacobi, so the least failing triple is (2, 3, 4)
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({
        "lie_algebras": [{"name": "bad", "dim": 4, "brackets": [
            [2, 3, [0, 0, 0, 1]], [2, 4, [0, 0, 0, 1]], [3, 4, [0, 1, 0, 0]]]}],
        "subalgebras": [{"name": "center", "parent": "bad", "basis": [[1, 0, 0, 0]]}],
    }))
    for relative in ((), ("--relative", "center")):
        assert run(capsys, "cohomology", str(doc), "--algebra", "bad", *relative) == (
            3, "", "validation error: algebra bad violates the Jacobi identity at basis triple (2, 3, 4)\n"
        )


def test_exit_4_on_internal_audit_failure(monkeypatch, capsys):
    from eqss import spectral
    from eqss.spectral import SpectralAuditError

    def explode(fc, max_page=None):
        raise SpectralAuditError("synthetic failure")

    # the specseq handler imports run_to_stabilization from spectral when it runs
    monkeypatch.setattr(spectral, "run_to_stabilization", explode)
    code, _, err = run(capsys, "specseq", "builtin:models", "--complex", "s1_x_su2")
    assert code == 4 and "synthetic failure" in err


def test_gysin_argument_validation(capsys):
    code, _, err = run(capsys, "obstruct", "gysin", "--basic", "1,1")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "obstruct", "gysin", "--l", "3")
    assert code == 2 and "--basic" in err
    code, _, err = run(capsys, "obstruct", "gysin", "--l", "3", "--basic", "1,x")
    assert code == 2 and "comma-separated integers" in err


def test_exit_2_on_negative_max_page(capsys):
    code, out, err = run(
        capsys, "specseq", "builtin:models", "--complex", "s1_x_su2", "--max-page", "-3"
    )
    assert code == 2 and out == ""
    assert "--max-page" in err and "Traceback" not in err


def test_exit_3_on_a_page_count_past_the_limit(tmp_path, capsys):
    from eqss.spectral import MAX_PAGES

    doc = tmp_path / "doc.json"
    doc.write_text(
        '{"complexes": [{"name": "c", "dims": [1], "differentials": [],'
        ' "filtration": [[100000000]]}]}'
    )
    code, out, err = run(capsys, "specseq", str(doc), "--complex", "c")
    assert code == 3 and out == ""
    assert f"100000003 pages requested, more than the limit of {MAX_PAGES}" in err

    code, out, err = run(
        capsys, "specseq", "builtin:models", "--complex", "s1_x_su2", "--max-page", "100000000"
    )
    assert code == 3 and out == ""
    assert f"100000001 pages requested, more than the limit of {MAX_PAGES}" in err


def test_exit_2_on_an_empty_invariants_list(capsys):
    code, out, err = run(
        capsys, "cohomology", "builtin:library", "--algebra", "so4", "--invariants", ","
    )
    assert code == 2 and out == ""
    assert err.startswith("error: --invariants") and "Traceback" not in err


def test_group_bound_env_is_honored(monkeypatch, capsys):
    monkeypatch.setenv("EQSS_GROUP_BOUND", "1")
    code, _, err = run(
        capsys,
        "cohomology",
        "builtin:library",
        "--algebra",
        "su2",
        "--relative",
        "e3",
        "--invariants",
        "su2_reflection",
    )
    assert code == 3 and "bound" in err


# One command per subcommand: every command parses the variable, though
# only some of them use it.
ENV_COMMANDS = [
    pytest.param(("cohomology", "builtin:library", "--algebra", "su2"), id="cohomology"),
    pytest.param(("specseq", "builtin:models", "--complex", "s1_x_su2"), id="specseq"),
    pytest.param(("obstruct", "s3-4m", "--betti", "1,0,3,0,1"), id="s3-4m"),
    pytest.param(("obstruct", "s3-5m", "--b2", "2", "--cup", "builtin:cup_definite"), id="s3-5m"),
    pytest.param(("obstruct", "gysin", "--l", "3", "--basic", "1,1"), id="gysin"),
    pytest.param(("obstruct", "wang", "--codim", "1", "--gh", "1,0"), id="wang"),
]


@pytest.mark.parametrize("argv", ENV_COMMANDS)
@pytest.mark.parametrize(
    "name, value",
    [
        ("EQSS_GROUP_BOUND", "abc"),
        ("EQSS_GROUP_BOUND", "-1"),
        ("EQSS_GROUP_BOUND", "2.5"),
    ],
)
def test_exit_2_on_malformed_environment(monkeypatch, capsys, name, value, argv):
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert name in err and "nonnegative integer" in err


def test_unset_environment_gives_the_engine_defaults(monkeypatch, capsys):
    import eqss.cohomology
    from eqss.linalg import GROUP_BOUND

    monkeypatch.delenv("EQSS_GROUP_BOUND", raising=False)
    seen = []
    original = eqss.cohomology.invariant_cohomology

    def spy(*args, **kwargs):
        seen.append(kwargs["bound"])
        return original(*args, **kwargs)

    monkeypatch.setattr(eqss.cohomology, "invariant_cohomology", spy)
    argv = ("cohomology", "builtin:library", "--algebra", "su2", "--relative", "e3", "--invariants", "su2_reflection")
    assert run(capsys, *argv)[0] == 0
    assert seen == [GROUP_BOUND] == [10000]


def test_the_sequence_bounds_every_unknown(capsys):
    # the circle bundle over a base with dims (1, 1) needs M1 = 2, and over a
    # point with 100 basic classes M0 = M1 = 100: no setting drops either
    results = run_json(capsys, "obstruct", "gysin", "--l", "1", "--basic", "1,1")["results"]
    assert [s["assignments"] for s in results["solutions"]] == [{"M0": 1, "M1": 2, "M2": 1}]
    results = run_json(capsys, "obstruct", "gysin", "--l", "1", "--basic", "100")["results"]
    assert [s["assignments"] for s in results["solutions"]] == [{"M0": 100, "M1": 100}]
    # the open answer agrees with the same totals given
    code, out, _ = run(capsys, "obstruct", "gysin", "--l", "1", "--basic", "100", "--total", "100,100")
    assert code == 0 and out.endswith("given totals admitted: yes\n")


def test_a_billion_basic_classes_are_answered_at_once():
    # the unknowns range over what the sequence allows, so a dimension of 10^9
    # costs what a dimension of 1 costs
    proc = start_fresh(["obstruct", "gysin", "--l", "1", "--basic", "1000000000"])
    try:
        out, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
    assert proc.returncode == 0 and err == b""
    assert out.endswith(b"solutions: 1\n  M0=1000000000, M1=1000000000; ranks [0, 0, 1000000000, 0, 0, 0, 1000000000, 0]\n")


def test_exit_3_on_an_oversized_lie_algebra(tmp_path, capsys):
    from eqss.cohomology import MAX_FORM_ENTRIES

    def document(dim, sub=None):
        entries = {"lie_algebras": [{"name": "a", "dim": dim, "brackets": []}]}
        if sub is not None:
            entries["subalgebras"] = [{"name": "b", "parent": "a", "basis": [sub]}]
        path = tmp_path / f"a{dim}.json"
        path.write_text(json.dumps(entries))
        return str(path)

    # the absolute route's dense differentials hold sum_k C(n,k) C(n,k+1) entries
    for dim, size in ((18, 8597496600), (30, 114449595062769120)):
        code, out, err = run(capsys, "cohomology", document(dim), "--algebra", "a")
        assert code == 3 and out == "" and "Traceback" not in err
        assert (
            f"the absolute complex of a (dim {dim}) needs {size} form entries,"
            f" more than the limit of {MAX_FORM_ENTRIES}" in err
        )
    # the relative route indexes all 2^n monomials
    doc = document(22, [1] + [0] * 21)
    code, out, err = run(capsys, "cohomology", doc, "--algebra", "a", "--relative", "b")
    assert code == 3 and out == ""
    assert "relative complex of a (dim 22) needs 4194304 form entries" in err


def test_exit_3_fast_on_a_huge_lie_algebra(tmp_path, capsys):
    from eqss.cohomology import MAX_FORM_ENTRIES

    # both counts are at least 2^n: past dim 64 neither is formed, nor printed
    # (2^20000 has more digits than int-to-str conversion allows)
    for dim, relative in ((10_000, False), (1_000_000, False), (20_000, True)):
        doc = {"lie_algebras": [{"name": "a", "dim": dim, "brackets": []}]}
        argv = ["cohomology", str(tmp_path / "a.json"), "--algebra", "a"]
        if relative:
            doc["subalgebras"] = [{"name": "b", "parent": "a", "basis": [[1] + [0] * (dim - 1)]}]
            argv += ["--relative", "b"]
        (tmp_path / "a.json").write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert code == 3 and out == "" and "Traceback" not in err
        route = "relative" if relative else "absolute"
        assert (
            f"the {route} complex of a (dim {dim}) needs at least 2^{dim} form entries,"
            f" more than the limit of {MAX_FORM_ENTRIES}" in err
        )


def test_exit_3_on_a_relative_route_past_the_lift_limit(tmp_path, capsys):
    # abelian dim 16 over a line: its 2^16 monomials are within the limit, but
    # the kernel and its lift would hold C(31, 15) entries
    path = tmp_path / "a16.json"
    path.write_text(json.dumps({
        "lie_algebras": [{"name": "a", "dim": 16, "brackets": []}],
        "subalgebras": [{"name": "b", "parent": "a", "basis": [[1] + [0] * 15]}],
    }))
    code, out, err = run(capsys, "cohomology", str(path), "--algebra", "a", "--relative", "b")
    assert code == 3 and out == "" and "Traceback" not in err
    assert "over a subalgebra of codimension 15 needs 300540195 kernel and lift entries" in err


def test_exit_3_on_an_open_gysin_problem_past_the_unknown_limit(capsys):
    from eqss.obstructions import MAX_UNKNOWNS

    # the labels M0..M(l+1) are refused before any term is built
    for l in (100000, 1000000000):
        code, out, err = run(capsys, "obstruct", "gysin", "--l", str(l), "--basic", "1,1")
        assert code == 3 and out == "" and "Traceback" not in err
        assert f"solver bound exceeded: {l + 2} unknown labels (max {MAX_UNKNOWNS})" in err
    code, out, err = run(
        capsys, "obstruct", "gysin", "--l", "1000000000", "--basic", "1,1", "--total", "1,1"
    )
    assert code == 3 and out == ""
    assert "total dims must cover degrees 0..1000000001, got 2 entries" in err


def test_exit_3_on_a_gysin_problem_past_the_solution_limit():
    # 6^7 and 10^9 solutions: 34 s and 46 MB of stdout, and a run that did not end
    # in a minute; the walk stops at the 10,001st, before anything is printed
    for basic in ("5,5,5,5,5,5,5,5,5", "9,9,9,9,9,9,9,9,9,9,9"):
        for extra in ([], ["--json"]):
            proc = start_fresh(["obstruct", "gysin", "--l", "1", "--basic", basic, *extra])
            try:
                out, err = proc.communicate(timeout=10)
            finally:
                proc.kill()
            assert (proc.returncode, out) == (3, b""), basic
            assert err == b"validation error: solver bound exceeded: more than 10000 solutions\n"


def test_exit_3_on_an_open_wang_problem_past_the_unknown_limit(monkeypatch, capsys):
    from eqss import obstructions

    def no_sequence(*args, **kwargs):
        raise AssertionError("the sequence was built")

    # the labels M0..M(s+2) are refused before any term is built
    monkeypatch.setattr(obstructions, "_sequence", no_sequence)
    gh = ",".join(["1"] + ["0"] * 99999 + ["1"])
    code, out, err = run(capsys, "obstruct", "wang", "--codim", "2", "--gh", gh,
                         "--simply-connected", "--oriented")
    assert (code, out) == (3, "")
    assert err == f"validation error: solver bound exceeded: 100003 unknown labels (max {obstructions.MAX_UNKNOWNS})\n"


def test_s3_5m_answers_every_b2_6_form_without_a_normal_limit(tmp_path, capsys):
    def verdict(name, matrices):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"b2": 6, "matrices": matrices}))
        return run_json(capsys, "obstruct", "s3-5m", "--b2", "6", "--cup", str(path))["results"]["verdict"]

    # a definite form keeps its bounded-search answer
    definite = verdict("definite", [[[7 if i == j else 0 for j in range(6)] for i in range(6)]])
    assert (definite["excluded"], definite["completeness"]) == (False, "bounded-search")
    # e1 e6^T + e6 e1^T vanishes on x6 = 0, the first normal by height
    null = verdict("null", [[[int({i, j} == {0, 5}) for j in range(6)] for i in range(6)]])
    assert (null["excluded"], null["completeness"]) == (False, "exact")
    assert "(normal (0, 0, 0, 0, 0, 1))" in null["reason"]
    # n m^T + m n^T with n = 6 e1 + e2 and m = e2 + 6 e3: null only on normals of height 6
    n, m = [6, 1, 0, 0, 0, 0], [0, 1, 6, 0, 0, 0]
    rank2 = verdict("rank2", [[[n[i] * m[j] + m[i] * n[j] for j in range(6)] for i in range(6)]])
    assert (rank2["excluded"], rank2["completeness"]) == (False, "exact")
    assert "(normal (0, 1, 6, 0, 0, 0))" in rank2["reason"]
    # x1^2 + x2^2 is semidefinite: no cup-null hyperplane, so the action is excluded
    semi = verdict("semi", [[[int(i == j < 2) for j in range(6)] for i in range(6)]])
    assert (semi["excluded"], semi["completeness"]) == (True, "exact")


def test_exit_3_when_a_cup_file_asks_for_a_witness_past_its_limit(tmp_path):
    # a 30-byte file: the first normal passes at once, and its witness would
    # have 19,999 x 20,000 dense entries
    empty = tmp_path / "empty.json"
    empty.write_text('{"b2": 20000, "matrices": []}')
    for extra in ([], ["--json"]):
        proc = start_fresh(["obstruct", "s3-5m", "--b2", "20000", "--cup", str(empty), *extra])
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (3, b"")
        assert err == (
            b"validation error: the null hyperplane search for b2 = 20000 could build a witness of"
            b" 399980000 entries, past the limit of 4000000\n"
        )
