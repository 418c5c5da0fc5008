"""Tests for ``tscluster.lockstep``, the lane driver that runs its k-means
fits side by side."""

from __future__ import annotations

import pytest

from volnet.tscluster import lockstep


def asker(name: str, steps: int, log: list | None = None):
    """A lane that asks ``steps`` times and returns its name and replies."""
    replies = []
    for t in range(steps):
        if log is not None:
            log.append(f"{name} asks {t}")
        replies.append((yield name, t))
    return name, replies


def silent():
    """A lane that returns without yielding."""
    yield from ()
    return "silent"


def expected(name: str, steps: int):
    return name, [(name, t) for t in range(steps)]


def echo(seen: list):
    """An ``answer`` that records each step's requests and replies to every
    request with the request itself, in order."""
    def answer(requests):
        seen.append(list(requests))
        yield from enumerate(requests)
    return answer


class TestLockstep:
    def test_lanes_finishing_at_different_steps(self):
        seen: list = []
        out = lockstep([asker("a", 3), asker("b", 1), asker("c", 2)], echo(seen))
        assert out == [expected("a", 3), expected("b", 1), expected("c", 2)]
        # every step asks the lanes still running, in lane order
        assert seen == [[("a", 0), ("b", 0), ("c", 0)], [("a", 1), ("c", 1)], [("a", 2)]]

    def test_a_lane_that_returns_without_yielding(self):
        seen: list = []
        out = lockstep([silent(), asker("a", 2), silent()], echo(seen))
        assert out == ["silent", expected("a", 2), "silent"]
        assert seen == [[("a", 0)], [("a", 1)]]

    def test_lanes_that_all_return_without_yielding(self):
        def never(requests):
            raise AssertionError("nothing was asked")

        assert lockstep([silent(), silent()], never) == ["silent", "silent"]

    def test_positions_answered_out_of_order(self):
        log: list = []

        def backwards(requests):
            for position in reversed(range(len(requests))):
                log.append(f"reply {requests[position][0]}")
                yield position, requests[position]

        steps = {"a": 2, "b": 4, "c": 1, "d": 3}
        out = lockstep([asker(name, s, log) for name, s in steps.items()], backwards)
        assert out == [expected(name, s) for name, s in steps.items()]
        # a lane advances as soon as its reply arrives, and its next request
        # waits for the next step
        assert log[:12] == ["a asks 0", "b asks 0", "c asks 0", "d asks 0",
                            "reply d", "d asks 1", "reply c", "reply b", "b asks 1",
                            "reply a", "a asks 1", "reply d"]

    def test_zero_lanes(self):
        seen: list = []
        assert lockstep([], echo(seen)) == []
        assert seen == []

    def test_an_error_in_a_lane_propagates(self):
        def broken():
            yield "ask"
            raise RuntimeError("lane failed")

        with pytest.raises(RuntimeError, match="lane failed"):
            lockstep([asker("a", 3), broken()], echo([]))
