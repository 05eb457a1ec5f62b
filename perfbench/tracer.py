"""Spans recorded from outside the engine, and the arithmetic on them.

The child process (child.py) wraps paintnet's public functions at the
names their callers look up and records one span per call: id, parent
id, name, thread, start, end and an optional amount (bytes, draws,
samples, workers, CPU ns).  Spans live in memory and are written out when the
command ends.  The parent (run.py) turns them into self times: a span's
duration minus the part of it covered by its children, whichever thread
the children ran on.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

# phase spans: the three engine loops whose throughput the benchmark reports
PHASES = ("pretrain", "finetune", "evaluate")

# spans that only structure the tree; their self time is the phase's
# uncovered remainder, not a stage of its own
STRUCTURAL = ("autoencoder.batch_wait", "autoencoder.sample")


class Tracer:
    """Span recorder shared by every thread of one process.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost open span on its thread unless the caller names one
    (pool workers name the main-thread span that is waiting for them).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: int | None = None) -> tuple:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        span_id = next(self._ids)  # itertools.count is atomic under the GIL
        stack.append(span_id)
        return (span_id, parent, name, time.perf_counter_ns())

    def end(self, token: tuple, amount: float = 0) -> None:
        end = time.perf_counter_ns()
        span_id, parent, name, start = token
        self._stack().pop()
        # list.append is a single atomic operation under the GIL
        self.spans.append((span_id, parent, name, threading.get_ident(), start, end, amount))

    def wrap(self, fn, name, amount=None):
        """fn wrapped in a span.

        name is a string or a function taking fn's own arguments;
        amount, if given, takes fn's result followed by fn's arguments.
        Python binds them exactly as it binds fn's.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer.begin(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(token)
                raise
            tracer.end(token, amount(result, *args, **kwargs) if amount else 0)
            return result

        return traced

    def pool_class(self):
        """ThreadPoolExecutor whose map records the wait and each task.

        The main thread's span covers submit to last result, its amount
        the worker count.  Every task runs in a span whose parent is that
        wait, so worker time nests under the batch it belongs to; its
        amount is the worker thread's CPU time in ns, which unlike the
        span's wall time leaves out waiting for the interpreter lock.
        """
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                wait = tracer.begin("autoencoder.batch_wait")

                def task(*args):
                    token = tracer.begin("autoencoder.sample", parent=wait[0])
                    cpu = time.thread_time_ns()
                    try:
                        return fn(*args)
                    finally:
                        tracer.end(token, time.thread_time_ns() - cpu)

                try:
                    results = list(super().map(task, *iterables, **kwargs))
                finally:
                    tracer.end(wait, self._max_workers)
                return iter(results)

        return TracedPool


def _covered_ns(lo: int, hi: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [lo, hi] covered by the union of intervals."""
    total, cur_lo, cur_hi = 0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> duration minus the time its children cover, in ns."""
    children = defaultdict(list)
    for span_id, parent, _, _, start, end, _ in spans:
        children[parent].append((start, end))
    return {span_id: (end - start) - _covered_ns(start, end, children[span_id])
            for span_id, _, _, _, start, end, _ in spans}


def summarize(spans: list[tuple]) -> dict:
    """Per span name: calls, total and self ms, summed amount; per phase: its tree.

    A phase's thread time is the sum of self times over its subtree.
    Worker spans count in full, so with two workers busy it can exceed
    the phase's wall time.
    """
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    names: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "amount": 0.0})
    phases: dict[str, dict[str, float]] = {p: defaultdict(float) for p in PHASES}
    for span_id, parent, name, _, start, end, amount in spans:
        entry = names[name]
        entry["calls"] += 1
        entry["total_ms"] += (end - start) / 1e6
        entry["self_ms"] += own[span_id] / 1e6
        entry["amount"] += amount
        phase = name if name in PHASES else None
        while phase is None and parent:
            ancestor = by_id[parent]
            phase = ancestor[2] if ancestor[2] in PHASES else None
            parent = ancestor[1]
        if phase is not None:
            phases[phase][name] += own[span_id] / 1e6
    return {"names": dict(names), "phases": {p: dict(v) for p, v in phases.items()}}
