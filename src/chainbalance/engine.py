"""Discrete-event engine: one time-ordered queue of callbacks.

Everything that happens at a point in simulated time runs from here: packet
arrivals in the simulator, control messages between the management system
and the balancers, and the master's barrier timers. Callbacks with the same
timestamp run in the order they were scheduled. Library users drive the
control plane with the same loop: make the calls, then `run()`.

The simulator's data path does not call `schedule`: `NetSim.transmit`
pushes its `(at, seq, fn, args)` entries onto `_heap` itself and takes `seq`
from `_seq`, the one sequence counter, so a packet arrival and a control
callback at the same timestamp still run in the order they were created.
The one exception is a planned packet's arrival at its first balancer,
which `NetSim.inject` pushes with a negative `seq` of its own, increasing in
plan order (`netsim.PLANNED_SEQ`): it runs before every other entry of its
instant, and takes nothing from `_seq`.

A packet crosses an NF without an arrival event: the one entry its crossing
makes (the arrival at the other balancer after an inline leave, a queue
drop, or the leave event on a removed chain) is created when it leaves the
first balancer, so among entries with its timestamp it takes the place of
that moment. `schedule` and the data path take their `seq` from `_seq`
alike, so it is the number of entries ever pushed, planned arrivals aside.

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
        # (at, seq, fn, args); seq breaks ties in push order, except that the
        # simulator's planned arrivals carry negative seqs and so run first
        self._heap = []
        self._seq = 0  # entries pushed so far, by schedule or by NetSim.transmit

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
