"""Discrete-event engine: one time-ordered queue of callbacks.

Everything that happens at a point in simulated time runs from here: packet
arrivals in the simulator, control messages between the management system
and the balancers, and the master's barrier timers. Callbacks with the same
timestamp run in the order they were scheduled. Library users drive the
control plane with the same loop: make the calls, then `run()`.
"""

from __future__ import annotations

import heapq
import math


class EventLoop:
    """Time-ordered callback queue; the control plane's timers run on it too."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0

    def schedule(self, at: float, fn, *args):
        entry = [at, self._seq, fn, args, False]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry):
        entry[4] = True

    def run(self, until: float | None = None):
        heap, pop = self._heap, heapq.heappop
        limit = math.inf if until is None else until
        while heap and heap[0][0] <= limit:
            at, _, fn, args, cancelled = pop(heap)
            if cancelled:
                continue
            if at > self.now:
                self.now = at
            fn(*args)
