import math

import pytest

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


def test_run_stops_after_the_entries_due_by_its_limit():
    # run(until) dispatches what is due by `until`, ties in push order, and
    # leaves the rest; the float just below a time stops before that time
    loop = EventLoop()
    ran = []
    for at, label in ((0.5, "a"), (1.0, "b"), (math.nextafter(1.0, 0.0), "c"), (1.0, "d")):
        loop.schedule(at, ran.append, label)
    loop.run(math.nextafter(1.0, -math.inf))
    assert ran == ["a", "c"] and loop.now == math.nextafter(1.0, 0.0)
    loop.run(1.0)
    assert ran == ["a", "c", "b", "d"] and loop._heap == []
    loop.schedule(2.0, ran.append, "e")
    loop.run()  # no limit
    assert ran[-1] == "e" and loop.now == 2.0
