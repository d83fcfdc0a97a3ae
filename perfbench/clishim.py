"""Traced stand-in for `python -m eqss.cli ARGS`, used only by traced runs.

It runs the same cli.main on the same arguments and exits with its code,
and adds one JSON line to stderr: the clock reading at its first statement
and the spans of importing eqss.cli and of cli.main.  perf_counter is the
system-wide monotonic clock on Linux, so the parent can compare readings.
"""

from time import perf_counter

T_FIRST = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main():
    start = perf_counter()
    import eqss.cli

    spans = [("cli.import", start, perf_counter(), False)]
    start = perf_counter()
    code = eqss.cli.main(sys.argv[1:])
    spans.append(("cli.process_main", start, perf_counter(), False))
    sys.stdout.flush()
    print(json.dumps({"t_first": T_FIRST, "spans": spans}), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
