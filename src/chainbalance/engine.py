"""Discrete-event engine: one dispatch loop over a time-ordered heap.

Everything that happens at a point in simulated time runs from here: the
simulator's data-path events, control messages between the management
system and the balancers, and the master's barrier timers. Library users
drive the control plane with the same loop: make the calls, then `run()`.

The heap holds callbacks. Entries with the same timestamp run in the order
they were pushed, and `schedule` refuses one earlier than `now`. The
simulator's data path does not call `schedule`: it pushes its
`(at, seq, fn, args)` entries onto `_heap` itself and takes `seq` from
`_seq`, the one sequence counter, so a data-path entry and a control
callback at the same timestamp still run in the order they were created,
and `_seq` is the number of entries ever pushed. A forward packet makes no
such entry, and a reverse packet one only when the master's arrival is not
settled at the slave's send; queue drops and crossings of a reclaimed chain
make one each.

The simulator's planned arrivals never enter the heap: `NetSim.run` reads
them off the traffic plan itself, in time order, and before each one has
`run` dispatch the entries due strictly before it (by the float just below
its time), so an arrival runs before every heap entry of its instant. This
`run` is the one place that pops and dispatches heap entries.

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
        self._heap = []  # (at, seq, fn, args); seq breaks ties in push order
        self._seq = 0  # entries pushed so far, by schedule or by the data path

    def schedule(self, at: float, fn, *args):
        if at < self.now:
            raise ValueError(f"cannot schedule at {at}, before now ({self.now})")
        heapq.heappush(self._heap, (at, self._seq, fn, args))
        self._seq += 1

    def run(self, until: float | None = None):
        """Dispatch every entry due by `until` (no limit when None)."""
        heap, pop = self._heap, heapq.heappop
        limit = math.inf if until is None else until
        while heap and heap[0][0] <= limit:
            at, _, fn, args = pop(heap)
            self.now = at
            fn(*args)
