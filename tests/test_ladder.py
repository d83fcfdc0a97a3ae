"""tools/ladder.py: a README row's max RSS is the command's own, whatever the
size of the ladder process that asks for it."""

from pathlib import Path

import eqss

import ladder

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
