"""In-memory spans around the benchmark's calls into eqss.

A span is (id, name, parent id, job id, start, end, error).  Names are
`<module>.<function>` of the public eqss function called.  Timed runs use
NoTrace, which calls straight through and records nothing; the separate
traced run uses Tracer and writes its spans out when it ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NoTrace:
    """Untraced calls: no spans, no counts."""

    enabled = False
    job = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, start=None):
        return nullcontext()

    def add(self, name, start, end, error=False):
        pass

    def count(self, name, value_fn, combine=None):
        pass


class Tracer:
    """Records one span per call and exact size counts taken from results."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.job: int | None = None
        self._stack: list[int] = []

    def _open(self, name, start):
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, parent, self.job, start, None, False]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec):
        rec[5] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        rec = self._open(name, perf_counter())
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec[6] = True
            raise
        finally:
            self._close(rec)

    @contextmanager
    def span(self, name, start=None):
        """A span around a block; `start` backdates it to an earlier clock reading."""
        rec = self._open(name, perf_counter() if start is None else start)
        try:
            yield rec
        except BaseException:
            rec[6] = True
            raise
        finally:
            self._close(rec)

    def add(self, name, start, end, error=False):
        """A finished span measured elsewhere (another process), under the open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([len(self.spans), name, parent, self.job, start, end, error])

    def count(self, name, value_fn, combine=None):
        """Add value_fn() to counter `name` (or fold it in with `combine`)."""
        value = value_fn()
        old = self.counts.get(name)
        self.counts[name] = value if old is None else (combine or int.__add__)(old, value)


SPAN_FIELDS = ("id", "name", "parent", "job", "start", "end", "error")


def span_dicts(spans):
    return [dict(zip(SPAN_FIELDS, s)) for s in spans]


def layer_totals(spans, duration_ms=None):
    """Per span name: total ms, self ms (duration minus child spans), calls, errors.

    duration_ms(span) gives a span's length; by default its wall time.
    """
    if duration_ms is None:
        def duration_ms(s):
            return (s["end"] - s["start"]) * 1000
    child_ms: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_ms[s["parent"]] = child_ms.get(s["parent"], 0.0) + duration_ms(s)
    out: dict[str, dict] = {}
    for s in spans:
        ms = duration_ms(s)
        t = out.setdefault(s["name"], {"ms": 0.0, "self_ms": 0.0, "calls": 0, "errors": 0})
        t["ms"] += ms
        t["self_ms"] += ms - child_ms.get(s["id"], 0.0)
        t["calls"] += 1
        t["errors"] += int(bool(s["error"]))
    return out


def write_jsonl(path, spans):
    with open(path, "w", encoding="utf-8") as f:
        for s in spans:
            f.write(json.dumps(s, sort_keys=True) + "\n")
