"""Span and counter tracing from outside the program.

``Tracer.patch`` swaps a module or class attribute for a wrapper and puts the
original back on ``restore``. The pipeline looks these names up at call time
(``induniv.embedder.build_walk_map`` and so on), so a swapped attribute sees
every call. Span wrappers record (name, start, end, parent, input id);
counter wrappers, meant for hot per-pair calls, only bump a count and add
the elapsed time when they are the outermost timed call. Counts are kept per
input id, so the inputs that failed can be left out when spans become
metrics. Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import time

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, input_id]
        self.by_input: dict[int, dict[str, float]] = {}
        self.maxima: dict[str, float] = {}
        self.failed: set[int] = set()    # input ids that failed or missed their budget
        self.stream_of: dict[int, str] = {}
        self.on = False
        self.begin(-1, "setup")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._timed_depth = 0

    # -- recording ---------------------------------------------------------

    def begin(self, input_id: int, stream: str) -> None:
        """Attribute the spans and counts that follow to ``input_id``, an
        input of ``stream``."""
        self.input_id = input_id
        self.stream_of[input_id] = stream
        self.counts = self.by_input.setdefault(input_id, {})

    def bump(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def span(self, name: str, fn, on_result=None, on_error=None):
        """Wrapper recording one span per call of ``fn``.

        ``on_result(tracer, result)`` and ``on_error(tracer, exc)`` read
        counters off the call's outcome; the exception is re-raised.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            rec = [name, perf(), 0.0, tracer._stack[-1] if tracer._stack else -1,
                   tracer.input_id]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None and isinstance(exc, Exception):
                    on_error(tracer, exc)
                raise
            finally:
                rec[2] = perf()
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def counter(self, key: str, fn, time_key: str | None = None):
        """Wrapper that counts calls and, with ``time_key``, sums their time
        (outermost timed call only, so nested counted calls are not added
        twice)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer.counts[key] = tracer.counts.get(key, 0) + 1
            if time_key is None or tracer._timed_depth:
                return fn(*args, **kwargs)
            tracer._timed_depth += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._timed_depth -= 1
                tracer.counts[time_key] = tracer.counts.get(time_key, 0) + perf() - t0

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -- installing ----------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``. A name the program no
        longer has is an error: its metrics would otherwise read zero."""
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            raise AttributeError(
                f"trace: {getattr(owner, '__name__', owner)}.{attr} does not exist")
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.on = False

    # -- reading -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part covered by its direct children."""
        covered = [0.0] * len(self.spans)
        last_end = [float("-inf")] * len(self.spans)
        for rec in self.spans:
            parent = rec[3]
            if parent < 0:
                continue
            start = max(rec[1], last_end[parent])
            if rec[2] > start:
                covered[parent] += rec[2] - start
                last_end[parent] = rec[2]
        return [max(0.0, rec[2] - rec[1] - covered[i]) for i, rec in enumerate(self.spans)]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "input"],
                       "spans": self.spans, "counts": self.by_input,
                       "maxima": self.maxima, "failed": sorted(self.failed),
                       "streams": self.stream_of}, fh)
