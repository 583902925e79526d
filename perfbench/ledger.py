"""Per-layer time ledger for single-threaded traced runs.

Each :meth:`Ledger.span` wraps one call into a layer's public function.
A span's *self* time is its duration minus the time of the spans nested
inside it, so the self times of one operation add up to the time the
spans cover; whatever the operation spent outside every span is its
unattributed time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List


class Ledger:
    """Self time per layer name, plus free-form counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List[object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Charge the enclosed time, minus nested spans, to ``name``."""
        frame: List[object] = [name, 0.0]
        self._stack.append(frame)
        t0 = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - t0
            self._stack.pop()
            self.self_s[name] += elapsed - float(frame[1])
            if self._stack:
                self._stack[-1][1] = float(self._stack[-1][1]) + elapsed

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def attributed_s(self) -> float:
        """Sum of every layer's self time."""
        return float(sum(self.self_s.values()))
