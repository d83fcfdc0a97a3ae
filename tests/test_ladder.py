"""tools/ladder.py: a README row's max RSS is the command's own, whatever the
size of the ladder process that asks for it, and the pairs rung's documents
are the homogeneous spaces they name."""

from pathlib import Path

import eqss
from eqss.cohomology import lie_cohomology
from eqss.documents import parse_document
from eqss.liealg import so_algebra

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
