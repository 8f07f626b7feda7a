"""In-memory span tracer that wraps the program's public entry points.

Spans are recorded from the benchmark's own files: :meth:`Tracer.install`
replaces a function at *every* binding that refers to it — the defining
module and each ``repro`` module that ``from``-imported it — so a call is
traced whichever name the caller uses.  :meth:`Tracer.uninstall` puts
the originals back.  Nothing under ``src/`` is modified.

A span is ``[name, start, end, parent, job]``: ``parent`` is the index of
the enclosing span (-1 for none) and ``job`` the benchmark job that was
running (None during set-up).  Spans stay in memory and are written out
once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, JOB = range(5)


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Children are strictly nested inside their parent and run one after
    another (the tracer keeps a stack), so the part of the parent's
    interval they cover is the sum of their durations.
    """
    result = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            result[parent] -= span[END] - span[START]
    return result


class Tracer:
    """Records spans around wrapped functions, in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.job: Optional[int] = None
        self._stack: List[int] = []
        # (owner, attribute, original) for every rebound name.
        self._patches: List[tuple] = []

    # -- recording ----------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        when: Optional[Callable] = None,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        job_of: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` inside a span.

        ``when(*args)`` gates the span; ``job_of(*args)`` names the job
        the call runs (restored afterwards); ``after(span, state,
        result, *args)`` runs once the call returned, with ``state =
        before(*args)`` taken before it, and may append fields to the
        span.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            outer_job = self.job
            if job_of is not None:
                self.job = job_of(*args, **kwargs)
            state = before(*args, **kwargs) if before is not None else None
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                self.job = outer_job
            if after is not None:
                after(span, state, result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, owner, attr: str, name: str, **hooks) -> None:
        """Trace ``owner.attr`` (a module function or a class method).

        For a module function, every loaded ``repro`` module whose
        namespace holds the same object is rebound too.  ``hooks`` are
        :meth:`wrap`'s keyword arguments.
        """
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, **hooks)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            namespace = getattr(module, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reading ------------------------------------------------------------

    def totals(self, job_spans: bool = True) -> Dict[str, List[float]]:
        """``{name: [calls, total seconds, self seconds]}`` over spans.

        ``job_spans`` selects spans recorded inside jobs (True) or during
        set-up (False).
        """
        out: Dict[str, List[float]] = {}
        selves = self_times(self.spans)
        for span, own in zip(self.spans, selves):
            if (span[JOB] is not None) != job_spans:
                continue
            entry = out.setdefault(span[NAME], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span[END] - span[START]
            entry[2] += own
        return out

    def dump(self, path: str) -> None:
        """Write all spans as JSON lines (times relative to the first)."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span[NAME],
                    "start": span[START] - origin,
                    "end": span[END] - origin,
                    "parent": span[PARENT],
                    "job": span[JOB],
                }
                if len(span) > JOB + 1:
                    record["extra"] = span[JOB + 1:]
                fh.write(json.dumps(record, separators=(",", ":")))
                fh.write("\n")
