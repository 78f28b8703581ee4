"""Discrete-event engine: one time-ordered queue of callbacks.

Everything that happens at a point in simulated time runs from here: packet
arrivals in the simulator, control messages between the management system
and the balancers, and the master's barrier timers. Callbacks with the same
timestamp run in the order they were scheduled. Library users drive the
control plane with the same loop: make the calls, then `run()`.

Nothing is cancelled: a stale callback, such as a barrier timer whose
prepare was acked in time, fires and returns. So after `run()` drains, `now`
can be such a timer's time, up to the barrier timeout after the last operation.
"""

from __future__ import annotations

import heapq
import math


class EventLoop:
    """Time-ordered callback queue; the control plane's timers run on it too."""

    def __init__(self):
        self.now = 0.0
        self._heap = []  # (at, seq, fn, args); seq breaks ties in schedule order
        self._seq = 0

    def schedule(self, at: float, fn, *args):
        heapq.heappush(self._heap, (at, self._seq, fn, args))
        self._seq += 1

    def run(self, until: float | None = None):
        heap, pop = self._heap, heapq.heappop
        limit = math.inf if until is None else until
        while heap and heap[0][0] <= limit:
            at, _, fn, args = pop(heap)
            if at > self.now:
                self.now = at
            fn(*args)
