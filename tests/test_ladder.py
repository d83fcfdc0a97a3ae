"""tools/ladder.py: a README row's max RSS is the command's own, whatever the
size of the ladder process that asks for it, the pairs rung's documents
are the homogeneous spaces they name, the cup rung's forms have the ranks
and null hyperplanes they name, the les rung's sequences have the solution
counts they name, and the two bytecode modes run the given tree with its
bytecode cached or compiled from source, a cached run leaving the tree's
`__pycache__` directories as it found them."""

import hashlib
import json
import shutil
from pathlib import Path

import eqss
from eqss import cli, obstructions
from eqss.cohomology import lie_cohomology
from eqss.documents import parse_cup_document, parse_document
from eqss.liealg import so_algebra
from eqss.linalg import rank

import ladder
from test_relative import grassmannian_betti, stiefel_betti

ROOT = Path(__file__).resolve().parents[1]


def test_readme_row_rss_does_not_depend_on_the_ladder_size():
    argv = next(a for a in ladder.readme_commands(ROOT / "README.md") if a[:2] == ["obstruct", "s3-4m"])
    env = ladder.child_env(Path(eqss.__file__).resolve().parents[1])
    early = ladder.start_launcher(env)
    try:
        before = [ladder.run_once(early, argv) for _ in range(2)]
        ballast = bytearray(b"\x01") * (64 << 20)  # the ladder grows by 64 MB, all of it touched
        late = ladder.start_launcher(env)
        try:
            after = [ladder.run_once(launcher, argv) for launcher in (early, late)]
        finally:
            late.stdin.close()
            late.wait()
    finally:
        early.stdin.close()
        early.wait()
    del ballast
    assert {(code, digest) for code, digest, _, _ in before + after} == {(0, before[0][1])}
    small = min(rss for *_, rss in before)
    assert small < 48 * 1024  # KB: far below the ballast alone
    assert all(abs(rss - small) < 2 * 1024 for *_, rss in before + after), (before, after)


def test_pairs_rung_documents_have_the_betti_numbers_of_their_spaces(tmp_path):
    # S^l for l = 2..6, then V(n, 2) and G2(R^n) for n = 4..6, each in an integer basis
    # other than the coordinate one; the seed is fixed, so a second write is the same
    cases = ladder.write_documents(tmp_path, "pairs")
    bettis = [{0: 1, l: 1} for l in range(2, 7)] + [*map(stiefel_betti, range(4, 7))]
    bettis += [*map(grassmannian_betti, range(4, 7))]
    assert len(cases) == len(bettis)
    for (argv, _), betti in zip(cases, bettis):
        _, name, _, algebra, _, relative = argv
        doc = parse_document((tmp_path / name).read_text(encoding="utf-8"))
        g = doc.algebra(algebra)
        assert all(type(c) is int for _, terms in g.table for _, c in terms), name
        assert g.table != so_algebra(int(algebra[2:])).table, name
        dims = lie_cohomology(g, doc.subalgebra(relative)).dims
        assert dims == tuple(betti.get(k, 0) for k in range(g.dim + 1)), name
    assert ladder.write_documents(tmp_path, "pairs") == cases


def test_cup_rung_forms_have_the_ranks_and_answers_they_name(tmp_path, monkeypatch, capsys):
    # per b2 = 3..6: definite, rank 1 null on (1, ..., 1).x = 0, rank 2 null only on
    # normals of height 6, and no matrix; only the definite forms are not decided exactly
    cases = ladder.write_documents(tmp_path, "cup")
    assert len(cases) == 16 and ladder.write_documents(tmp_path, "cup") == cases
    monkeypatch.chdir(tmp_path)
    for argv, _ in cases:
        name, b2 = argv[3], int(argv[-1])
        kind = name.removeprefix(f"cup{b2}_").removesuffix(".json")
        cup = parse_cup_document((tmp_path / name).read_text(encoding="utf-8"))
        ranks = {"definite": [b2], "rank1": [1], "rank2": [2], "empty": []}[kind]
        assert [rank(m) for m in cup.matrices] == ranks, name
        code = cli.main([*argv, "--json"])
        out, err = capsys.readouterr()
        assert code == 0, err
        verdict = json.loads(out)["results"]["verdict"]
        completeness = "bounded-search" if kind == "definite" else "exact"
        assert (verdict["excluded"], verdict["completeness"]) == (False, completeness), name


def test_les_rung_rows_have_6_to_the_k_minus_2_solutions_up_to_the_limit(capsys):
    # a circle over k basic dims 5, k = 3..9: 6^(k-2) solutions, listed up to
    # obstructions.MAX_SOLUTIONS (k = 7, 7,776) and refused past it
    commands = ladder.les_commands()
    assert commands == [["obstruct", "gysin", "--l", "1", "--basic", ",".join(["5"] * k)] for k in range(3, 10)]
    for k, argv in zip(range(3, 10), commands):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        if 6 ** (k - 2) <= obstructions.MAX_SOLUTIONS:
            assert code == 0 and f"\nsolutions: {6 ** (k - 2)}\n" in out, k
        else:
            assert (code, out) == (3, "") and "more than 10000 solutions" in err, k


def test_bytecode_modes_cache_or_compile_the_tree_and_keep_stdout(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(Path(eqss.__file__).parent, src / "eqss", ignore=shutil.ignore_patterns("__pycache__"))
    argv = next(a for a in ladder.readme_commands(ROOT / "README.md") if a[:2] == ["obstruct", "s3-4m"])
    where = ["-c", "import eqss; print(eqss.__file__)"]
    modules = {path.stem for path in (src / "eqss").glob("*.py")}
    kept = src / "kept" / "__pycache__"  # a cache that was there before the run
    kept.mkdir(parents=True)
    (kept / "x.pyc").write_bytes(b"")
    rows = {}
    for mode in ("cached", "compiled"):
        before = set(src.rglob("__pycache__"))
        with ladder.prepare_bytecode(src, mode, ladder.child_env(src)) as env:
            caches = sorted(src.rglob("*.pyc"))
            launcher = ladder.start_launcher(env)
            try:
                rows[mode] = [ladder.run_python(launcher, args)[:2] for args in (*ladder.FLOORS, where)]
                rows[mode].append(ladder.run_once(launcher, argv)[:2])
            finally:
                launcher.stdin.close()
                launcher.wait()
            assert sorted(src.rglob("*.pyc")) == caches  # no child wrote bytecode
        if mode == "cached":
            assert "PYTHONDONTWRITEBYTECODE" not in env
            assert {path.name.split(".")[0] for path in caches} == modules | {"x"}
            assert set(src.rglob("__pycache__")) == before == {kept} and (kept / "x.pyc").exists()
        else:
            assert env["PYTHONDONTWRITEBYTECODE"] == "1"
            assert caches == [] and not any(src.rglob("__pycache__"))
    empty = hashlib.sha256(b"").hexdigest()
    here = hashlib.sha256(f"{src.resolve() / 'eqss' / '__init__.py'}\n".encode()).hexdigest()
    assert rows["cached"] == rows["compiled"]
    assert rows["cached"][:3] == [(0, empty), (0, empty), (0, here)]
    assert rows["cached"][3][0] == 0
