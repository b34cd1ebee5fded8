"""Spans around calls into promptgp, recorded from outside the package.

A span is (name, start, end, parent), where the parent is the innermost
span open on the same thread when the call began.  Self time is a span's
duration minus the durations of its children, so nested layers are not
counted twice.  Spans opened on worker threads have no parent on the
calling thread; with ``eval_workers > 1`` their time overlaps the
``evaluate_prompt`` span that waits for them.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent span or None]
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = defaultdict(set)  # memory for count hooks
        self.lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int = 1) -> None:
        with self.lock:
            self.counts[key] += n

    def wrap(self, name: str, fn: Callable, on_return: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``on_return(tracer, args, result)`` may count."""
        spans, local, clock = self.spans, self._local, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, clock(), None, stack[-1] if stack else None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, on_return: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr``; a module-level function is replaced in every
        ``promptgp`` module that imported it by name."""
        original = getattr(owner, attr)
        traced = self.wrap(name, original, on_return)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [
                mod
                for key, mod in sorted(sys.modules.items())
                if key.split(".")[0] == "promptgp" and getattr(mod, attr, None) is original
            ]
        for target in targets:
            self._undo.append((target, attr, original))
            setattr(target, attr, traced)

    def restore(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds)."""
        child_time: dict[int, float] = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[id(parent)] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            name, start, end, _ = span
            out[name][0] += 1
            out[name][1] += (end - start) - child_time[id(span)]
        return {name: (calls, secs) for name, (calls, secs) in out.items()}

    def inclusive_under(self, name: str, parent_name: str) -> float:
        """Total duration of ``name`` spans whose direct parent is a ``parent_name`` span."""
        return sum(
            end - start
            for n, start, end, parent in self.spans
            if n == name and parent is not None and parent[0] == parent_name
        )

    def dump(self, path: str, round_index: int) -> None:
        """Append this round's spans as JSON lines (parent as a span index)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                record = {
                    "round": round_index,
                    "id": i,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": None if parent is None else index[id(parent)],
                }
                fh.write(json.dumps(record) + "\n")
