import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbalance.engine import EventLoop


def test_schedule_refuses_an_entry_before_now():
    loop = EventLoop()
    loop.schedule(2.0, lambda: None)
    loop.run()
    assert loop.now == 2.0
    with pytest.raises(ValueError, match="before now"):
        loop.schedule(math.nextafter(2.0, 0.0), lambda: None)
    assert loop._heap == [] and loop._seq == 1
    loop.schedule(2.0, lambda: None)  # now itself is not the past
    assert len(loop._heap) == 1


def test_run_refuses_arrivals_out_of_time_order():
    loop = EventLoop()
    ran = []
    arrivals = [(1.0, ran.append, ("a",)), (0.5, ran.append, ("b",))]
    with pytest.raises(ValueError, match="out of time order"):
        loop.run(arrivals=arrivals)
    assert ran == ["a"]


def reference_order(arrivals, scheduled, until):
    """The order the merged loop must run entries in, by brute force: each
    step runs the least pending entry by (time, arrivals first, plan order
    or push order). An arrival after `until` ends the stream; the index of
    that one, or None, comes back with the order."""
    limit = math.inf if until is None else until
    pushes = itertools.count()
    pending = []
    late = None
    for i, (at, delays) in enumerate(arrivals):
        if at > limit:
            late = i
            break
        pending.append((at, 0, i, ("arrival", i), delays))
    pending += [(at, 1, next(pushes), ("scheduled", i), delays)
                for i, (at, delays) in enumerate(scheduled)]
    ran = []
    while True:
        due = [entry for entry in pending if entry[0] <= limit]
        if not due:
            return ran, late
        entry = min(due, key=lambda e: e[:3])
        pending.remove(entry)
        at, _, _, label, delays = entry
        ran.append((label, at))
        pending += [(at + d, 1, next(pushes), (label, j), ()) for j, d in enumerate(delays)]


# few distinct times, so that ties are common; delays of 0 push an entry at
# the instant that is running, as a zero link latency does
TIMES = st.sampled_from([0.0, 0.25, 0.5, 1.0])
CALLBACKS = st.tuples(TIMES, st.lists(st.sampled_from([0.0, 0.25, 0.5]), max_size=3))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    arrivals=st.lists(CALLBACKS, max_size=8),
    scheduled=st.lists(CALLBACKS, max_size=8),
    until=st.sampled_from([None, 0.0, 0.25, 0.5, 1.0]),
)
def test_merged_loop_runs_entries_in_reference_order(arrivals, scheduled, until):
    # each callback, planned or scheduled, pushes one entry per delay when it
    # runs; the stream is sorted by time, stably, so ties keep plan order
    arrivals = sorted(arrivals, key=lambda a: a[0])
    loop = EventLoop()
    ran = []

    def call(label, delays):
        ran.append((label, loop.now))
        for j, d in enumerate(delays):
            loop.schedule(loop.now + d, call, (label, j), ())

    for i, (at, delays) in enumerate(scheduled):
        loop.schedule(at, call, ("scheduled", i), delays)
    stream = ((at, call, (("arrival", i), delays)) for i, (at, delays) in enumerate(arrivals))
    returned = loop.run(until, arrivals=stream)
    expected, late = reference_order(arrivals, scheduled, until)
    assert ran == expected
    # the arrival that ended the stream comes back unrun, or None
    if late is None:
        assert returned is None
    else:
        at, delays = arrivals[late]
        assert returned == (at, call, (("arrival", late), delays))
    # what stays is exactly what falls after the limit
    limit = math.inf if until is None else until
    assert all(at > limit for at, *_ in loop._heap)
