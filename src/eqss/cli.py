"""Command line entry point: cohomology, spectral pages, exclusion checks.

Each handler imports the layers it runs, and `_render` imports json only
for --json.  So `obstruct s3-4m`, `obstruct gysin --l` and `obstruct wang`
load `obstructions` and no exact-rational engine (`linalg`, `fractions`),
and `cohomology` and `specseq` do not load `obstructions`.  EQSS_GROUP_BOUND
is parsed for every command; its default (`linalg.GROUP_BOUND`) is applied
where the value is used.  The sequence solver needs no setting: the
sequence itself bounds every unknown.

Reports are deterministic.  Every input file is hashed into the report, no
timestamps appear anywhere, and --json renders exactly the payload behind
the text output, so identical invocations produce identical bytes.

Exit codes: 0 success, 1 stdout closed by its reader before the report was
written, 2 malformed input (bad JSON, bad fields, dangling references,
unreadable files, bad EQSS_* environment values), 3 mathematical validation
or hypothesis failure (Jacobi, d^2 != 0, non-automorphisms, solver and group
bounds, inconsistent check data), 4 internal audit failure in the spectral
engine.

The `eqss` command and `python -m eqss.cli` go through `run`, which ends
the process with os._exit as soon as the report is flushed, skipping the
interpreter's teardown.  `main` returns the exit code, for callers in
process.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from typing import NoReturn

from . import __version__
from .errors import DocumentError, GroupBoundError, SpectralAuditError

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_AUDIT = 4


def _env_count(name: str) -> int | None:
    """A nonnegative integer setting from the environment, or None if unset."""
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise DocumentError(f"{name} must be a nonnegative integer, got {raw!r}")
    return value


# Built-in SHA-256: <= 4.3 ms under 512 KiB < `import hashlib` 5.4 ms; 1 MiB: 8.7 > 1.0 + 5.4 ms.
_BUILTIN_SHA256_LIMIT = 512 * 1024


def _sha256_hex(data: bytes) -> str:
    if len(data) < _BUILTIN_SHA256_LIMIT:
        try:
            if sys.version_info >= (3, 12):
                from _sha2 import sha256
            else:
                from _sha256 import sha256
            return sha256(data).hexdigest()
        except ImportError:  # an interpreter built without it
            pass
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _load_text(spec: str, inputs: dict) -> str:
    """File contents for a path or builtin:NAME; their sha256 goes into inputs.

    A document under _BUILTIN_SHA256_LIMIT bytes (in UTF-8) is hashed by
    the interpreter's built-in SHA-256 (`_sha256`, `_sha2` from Python
    3.12), because `import hashlib` loads OpenSSL's libcrypto, which costs
    more time than hashing such a document, and 3 to 4 MB of resident
    memory.  A larger document, or any on an interpreter built without
    the built-in module, goes through hashlib, whose OpenSSL SHA-256 is
    faster per byte.  Both compute the same FIPS 180-4 function, so the
    digest is the same either way.
    """
    if spec.startswith("builtin:"):
        from .documents import builtin_text

        text = builtin_text(spec[len("builtin:"):])
    else:
        from pathlib import Path

        try:
            text = Path(spec).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise DocumentError(f"cannot read {spec}: {e}") from None
    inputs[spec] = _sha256_hex(text.encode("utf-8"))
    return text


def _load_document(spec: str, inputs: dict):
    from .documents import parse_document

    return parse_document(_load_text(spec, inputs))


def _list_text(values) -> str:
    return "[" + ", ".join(str(v) for v in values) + "]"


def _csv_ints(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise DocumentError(f"{what}: expected comma-separated integers, got {text!r}") from None


def _subalgebra_of(doc, g, name: str):
    """The document's subalgebra of that name, refused unless its parent is g."""
    h = doc.subalgebra(name)
    if h.algebra != g:
        raise DocumentError(f"subalgebra '{name}' has parent '{h.algebra.name}', not '{g.name}'")
    return h


# ---------------------------------------------------------------------------
# commands; each returns (results dict, human-readable lines)


def _cmd_cohomology(args, inputs: dict):
    from .cohomology import cohomology, invariant_cohomology, relative_model, restricted_action
    from .documents import render_rational
    from .linalg import GROUP_BOUND

    doc = _load_document(args.file, inputs)
    g = doc.algebra(args.algebra)
    h = None if args.relative is None else _subalgebra_of(doc, g, args.relative)
    model = relative_model(g, h)
    res = cohomology(model.complex)
    representatives = [
        [[render_rational(c) for c in v] for v in reps] for reps in res.representatives
    ]

    results = {
        "algebra": g.name,
        "relative": args.relative,
        "complex_dims": list(model.complex.dims),
        "dims": list(res.dims),
        "representatives": representatives,
    }
    title = f"cohomology of {g.name}" if h is None else f"cohomology of ({g.name}, {args.relative})"
    lines = [title, f"dims by degree: {_list_text(res.dims)}"]
    for k, reps in enumerate(representatives):
        for v in reps:
            lines.append(f"  degree {k} class: {_list_text(v)}")

    if args.invariants is not None:
        names = [n for n in args.invariants.split(",") if n]
        if not names:
            raise DocumentError(
                f"--invariants: expected automorphism names, got {args.invariants!r}"
            )
        gens = []
        for name in names:
            aut = doc.automorphism(name)
            if aut.algebra != g:
                raise DocumentError(
                    f"automorphism '{name}' acts on '{aut.algebra.name}', not '{g.name}'"
                )
            gens.append(restricted_action(model, aut))
        bound = GROUP_BOUND if args.group_bound is None else args.group_bound
        inv = invariant_cohomology(res, gens, bound=bound)
        results["invariants"] = names
        results["invariant_dims"] = list(inv.dims)
        lines.append(f"invariants under {', '.join(names)}: {_list_text(inv.dims)}")
    return results, lines


def _cmd_specseq(args, inputs: dict):
    from .spectral import run_to_stabilization

    if args.max_page is not None and args.max_page < 0:
        raise DocumentError(f"--max-page must be a nonnegative integer, got {args.max_page}")
    doc = _load_document(args.file, inputs)
    entry = doc.complex_entry(args.complex)
    fc = entry.filtered()
    table = run_to_stabilization(fc, max_page=args.max_page)

    def entries(dims: dict) -> list:
        return [[p, q, d] for (p, q), d in sorted(dims.items()) if d]

    results = {
        "complex": args.complex,
        "dims": list(fc.complex.dims),
        "max_weight": fc.max_weight,
        "stabilized_at": table.stabilized_at,
        "pages": [{"r": pg.r, "entries": entries(pg.dims())} for pg in table.pages],
        "einf": entries(table.einf),
        "total_cohomology": list(table.total_cohomology),
        "audit": "ok",
    }
    lines = [
        f"spectral sequence of {args.complex}",
        f"filtration weights up to {fc.max_weight}; stabilized at page {table.stabilized_at}",
    ]
    for pg in table.pages:
        cells = "  ".join(f"({p},{q})={d}" for p, q, d in entries(pg.dims())) or "0"
        lines.append(f"  E_{pg.r}: {cells}")
    lines.append(f"limit totals by degree: {_list_text(table.total_cohomology)}")
    lines.append("audit: ok (limit totals match the cohomology of the complex)")
    return results, lines


def _verdict_lines(verdict) -> list[str]:
    lines = [f"verdict: {verdict.verdict}", f"reason: {verdict.reason}"]
    if verdict.citation:
        lines.append(f"criterion: {verdict.citation}")
    if verdict.completeness:
        lines.append(f"completeness: {verdict.completeness}")
    return lines


def _solve_lines(problem, total, results: dict) -> list[str]:
    """Solve the sequence into results; with given totals, say whether they are admitted."""
    from .obstructions import solve_les

    solutions = solve_les(problem)
    results["solutions"] = [s.as_dict() for s in solutions]
    results["solution_count"] = len(solutions)
    lines = [f"sequence: {problem.render()}", f"solutions: {len(solutions)}"]
    for sol in solutions:
        assigned = ", ".join(f"{k}={v}" for k, v in sorted(sol.assignments.items()))
        lines.append(f"  {assigned or 'all terms known'}; ranks {list(sol.map_ranks)}")
    if total is not None:
        results["admitted"] = bool(solutions)
        lines.append(f"given totals admitted: {'yes' if solutions else 'no'}")
    return lines


def _cmd_obstruct_s3_4m(args, inputs: dict):
    from .obstructions import s3_check_4manifold

    betti = _csv_ints(args.betti, "--betti")
    verdict = s3_check_4manifold(betti)
    results = {"check": "s3-4m", "betti": betti, "verdict": verdict.as_dict()}
    return results, [f"check s3-4m on Betti numbers {betti}"] + _verdict_lines(verdict)


def _cmd_obstruct_s3_5m(args, inputs: dict):
    from .documents import parse_cup_document
    from .obstructions import s3_check_5manifold

    cup = parse_cup_document(_load_text(args.cup, inputs))
    verdict = s3_check_5manifold(args.b2, cup, args.sphere_hyperplane)
    results = {
        "check": "s3-5m",
        "b2": args.b2,
        "sphere_hyperplane": args.sphere_hyperplane,
        "verdict": verdict.as_dict(),
    }
    return results, [f"check s3-5m with b2 = {args.b2}"] + _verdict_lines(verdict)


def _cmd_obstruct_gysin(args, inputs: dict):
    from .obstructions import gysin_assemble

    if args.basic is None:
        raise DocumentError("gysin needs --basic with the base cohomology dims")
    if (args.pair is None) == (args.l is None):
        raise DocumentError("gysin needs exactly one of --l or --pair")
    pair = None
    if args.pair is not None:
        if args.file is None:
            raise DocumentError("--pair needs --file to resolve the algebra names")
        doc = _load_document(args.file, inputs)
        names = args.pair.split(",")
        if len(names) != 2:
            raise DocumentError("--pair expects ALGEBRA,SUBALGEBRA")
        g = doc.algebra(names[0])
        pair = (g, _subalgebra_of(doc, g, names[1]))

    basic = _csv_ints(args.basic, "--basic")
    total = _csv_ints(args.total, "--total") if args.total else None
    problem = gysin_assemble(
        l=args.l,
        basic_dims=basic,
        total_dims=total,
        pair=pair,
        split=args.split,
        oriented=args.oriented,
    )
    results = {"check": "gysin", "problem": problem.as_dict()}
    return results, [problem.description] + _solve_lines(problem, total, results)


def _cmd_obstruct_wang(args, inputs: dict):
    from .obstructions import wang_check

    gh = _csv_ints(args.gh, "--gh")
    total = _csv_ints(args.total, "--total") if args.total else None
    verdict = wang_check(args.codim, args.simply_connected, args.oriented, gh, total)
    results = {
        "check": "wang",
        "codim": args.codim,
        "simply_connected": args.simply_connected,
        "oriented": args.oriented,
        "gh_dims": gh,
        "verdict": verdict.as_dict(),
    }
    lines = [f"check wang at codimension {args.codim}"] + _verdict_lines(verdict)
    if verdict.problem is not None:
        lines += _solve_lines(verdict.problem, total, results)
    return results, lines


# ---------------------------------------------------------------------------
# argument parsing and the report envelope


# Built once per process.  Each handler is bound (set_defaults) when the
# parser is built, so a `_cmd_*` function replaced later is not the one called.
@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqss",
        description="Exact cohomology, spectral sequences, and exclusion checks.",
    )
    parser.add_argument("--version", action="version", version=f"eqss {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohomology", help="Lie algebra cohomology, absolute or relative")
    p.add_argument("file", help="input document path, or builtin:NAME")
    p.add_argument("--algebra", required=True, help="algebra name in the document")
    p.add_argument("--relative", help="subalgebra name for relative cohomology")
    p.add_argument("--invariants", help="comma-separated automorphism names")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(handler=_cmd_cohomology)

    p = sub.add_parser("specseq", help="spectral sequence of a filtered complex")
    p.add_argument("file", help="input document path, or builtin:NAME")
    p.add_argument("--complex", required=True, help="filtered complex name in the document")
    p.add_argument("--max-page", type=int, default=None, help="compute at least this many pages")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(handler=_cmd_specseq)

    p = sub.add_parser("obstruct", help="group-action exclusion checks")
    ob = p.add_subparsers(dest="check", required=True)

    q = ob.add_parser("s3-4m", help="4-manifold second Betti number check")
    q.add_argument("--betti", required=True, help="comma-separated b0,b1,b2,b3,b4")
    q.add_argument("--json", action="store_true", dest="as_json")
    q.set_defaults(handler=_cmd_obstruct_s3_4m)

    q = ob.add_parser("s3-5m", help="5-manifold hyperplane check")
    q.add_argument("--b2", type=int, required=True, help="second Betti number")
    q.add_argument("--cup", required=True, help="cup form document path, or builtin:NAME")
    q.add_argument(
        "--sphere-hyperplane",
        action="store_true",
        help="a hyperplane of H_2 generated by embedded spheres is known to exist",
    )
    q.add_argument("--json", action="store_true", dest="as_json")
    q.set_defaults(handler=_cmd_obstruct_s3_5m)

    q = ob.add_parser("gysin", help="sphere-bundle long exact sequence solver")
    q.add_argument("--l", type=int, default=None, help="fiber sphere dimension")
    q.add_argument("--basic", help="comma-separated base cohomology dims")
    q.add_argument("--total", help="comma-separated total space dims to test")
    q.add_argument("--pair", help="ALGEBRA,SUBALGEBRA giving a two-row base")
    q.add_argument("--file", help="document resolving --pair names")
    q.add_argument("--split", action="store_true", help="even fiber dimension splitting")
    q.add_argument("--oriented", action="store_true", help="force a one-dimensional top class")
    q.add_argument("--json", action="store_true", dest="as_json")
    q.set_defaults(handler=_cmd_obstruct_gysin)

    q = ob.add_parser("wang", help="low-codimension orbit sequence check")
    q.add_argument("--codim", type=int, required=True, help="orbit codimension (1, 2, or 3)")
    q.add_argument("--gh", required=True, help="comma-separated pair cohomology dims")
    q.add_argument("--total", help="comma-separated total space dims to test")
    q.add_argument("--simply-connected", action="store_true")
    q.add_argument("--oriented", action="store_true")
    q.add_argument("--json", action="store_true", dest="as_json")
    q.set_defaults(handler=_cmd_obstruct_wang)

    return parser


def _render(report: dict, lines: list[str], as_json: bool) -> str:
    if as_json:
        import json

        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    head = [
        f"eqss {report['engine_version']} :: {' '.join(report['command'])}",
    ]
    for name in sorted(report["inputs"]):
        head.append(f"input {name} sha256 {report['inputs'][name]}")
    return "\n".join(head + lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(args_list)
    inputs: dict[str, str] = {}
    try:
        args.group_bound = _env_count("EQSS_GROUP_BOUND")
        results, lines = args.handler(args, inputs)
    except DocumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except SpectralAuditError as e:
        print(f"internal audit failure: {e}", file=sys.stderr)
        return EXIT_AUDIT
    except (GroupBoundError, ValueError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    report = {
        "command": args_list,
        "engine_version": __version__,
        "inputs": inputs,
        "results": results,
    }
    sys.stdout.write(_render(report, lines, args.as_json))
    return EXIT_OK


def run() -> NoReturn:
    """Run `main` on sys.argv and end the process with its exit code as
    soon as stdout and stderr are flushed.

    os._exit skips the interpreter's teardown: clearing every module, the
    exit-time garbage collection, and the atexit hooks that a site
    customization registers (certifi.where() called from a .pth file
    registers one, which cleans up only after a zipped install).  eqss
    registers no atexit hook and writes no file, so nothing of its own is
    lost; a file that eqss writes one day (a trace file, say) must be closed
    before `run` exits.  A SystemExit from argparse (usage errors, --help,
    --version) takes the same flush and exit with its own code; any
    unexpected exception leaves through the normal exit.

    If the reader of stdout has gone, the write or the flush raises
    BrokenPipeError.  As the Python docs advise (signal module, "Note on
    SIGPIPE"), stdout is then pointed at devnull, so that nothing written
    to it afterwards can raise again, and the process exits 1 without a
    traceback.
    """
    try:
        try:
            code = main()
        except SystemExit as e:  # argparse's exits, whose codes are ints
            code = e.code
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_STDOUT
    os._exit(code)


if __name__ == "__main__":
    run()
