"""In-memory span tracer that wraps the program's public entry points.

Spans are recorded by wrappers installed over module attributes (and
`Tensor.backward`) from this benchmark's own code; nothing inside the
package is edited. Each span keeps its name, start, end, parent span and
the step it belongs to. Garbage-collector pauses are recorded as
`python.gc` spans through `gc.callbacks`, so the time they take is not
charged to whichever layer happened to allocate.
"""

from __future__ import annotations

import functools
import gc
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, STEP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.step = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_span: int | None = None

    # -- spans -----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        # building the record may trigger a collection, whose span must be
        # complete before this one takes its index
        record = [name, 0.0, None, parent, self.step]
        self.spans.append(record)
        idx = len(self.spans) - 1
        self._stack.append(idx)
        record[START] = perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]} closed out of order")

    def open_step(self, name: str = "trainer.step") -> int:
        """Begin a root span under a new step id: a training step, or one
        pass of the other workloads."""
        self.step += 1
        return self.begin(name)

    def close_step(self, rename: str | None = None) -> None:
        idx = self._stack[-1]
        if rename is not None:
            self.spans[idx][NAME] = rename
        self.end(idx)

    # -- instrumentation -------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a traced wrapper; `count(result)` may add
        to self.counts after each call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                count(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_span = self.begin("python.gc")
        elif self._gc_span is not None:
            self.end(self._gc_span)
            self._gc_span = None

    def install(self) -> None:
        """Start recording collector pauses; wrappers are added by wrap()."""
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Remove every wrapper and the collector hook."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children
        (children of one single-threaded span never overlap)."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def self_time_by_name(self, steps: set[int]) -> dict[str, float]:
        """Summed self time per span name over the spans recorded during
        the given steps."""
        totals: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            if s[STEP] in steps:
                totals[s[NAME]] += t
        return totals

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]
