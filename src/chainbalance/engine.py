"""Discrete-event engine: one dispatch loop over two time-ordered queues.

Everything that happens at a point in simulated time runs from here: packet
arrivals in the simulator, control messages between the management system
and the balancers, and the master's barrier timers. Library users drive the
control plane with the same loop: make the calls, then `run()`.

The first queue is a heap of callbacks. Entries with the same timestamp run
in the order they were pushed, and `schedule` refuses one earlier than
`now`. The simulator's data path does not call `schedule`: it pushes its
`(at, seq, fn, args)` entries onto `_heap` itself and takes `seq` from
`_seq`, the one sequence counter, so a packet arrival and a control
callback at the same timestamp still run in the order they were created,
and `_seq` is the number of entries ever pushed. A forward packet makes no
such entry, and a reverse packet one only when the master's arrival is not
settled at the slave's send; queue drops and crossings of a reclaimed chain
make one each.

The second is the stream of planned arrivals that the simulator hands to
`run`, already in time order; it never enters the heap. An arrival runs
before every heap entry of its instant, and arrivals run in stream order.
`run(until)` takes no arrival after the first one later than `until`, and
returns that one unrun, so that the caller can read the rest of the stream
itself; it returns None when the stream ran out.

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

    def run(self, until: float | None = None, arrivals=()):
        """Dispatch every entry due by `until` (no limit when None), merged
        with `arrivals`: `(at, fn, args)` in time order, each run before the
        heap's entries at its `at`. The first arrival after `until` ends the
        stream; it and the ones after it do not run. Returns that arrival,
        or None when the stream ran out."""
        heap, pop = self._heap, heapq.heappop
        limit = math.inf if until is None else until
        late = None
        for at, fn, args in arrivals:
            if at > limit:
                late = at, fn, args
                break
            while heap and heap[0][0] < at:
                due, _, call, params = pop(heap)
                self.now = due
                call(*params)
            if at < self.now:
                raise ValueError(f"arrival at {at} is out of time order (now {self.now})")
            self.now = at
            fn(*args)
        while heap and heap[0][0] <= limit:
            at, _, fn, args = pop(heap)
            self.now = at
            fn(*args)
        return late
