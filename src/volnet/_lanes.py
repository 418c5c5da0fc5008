"""The lockstep driver: ``tscluster`` runs each k-means fit as a lane."""


def lockstep(lanes, answer) -> list:
    """Run a list of generator ``lanes`` side by side; return their results
    in lane order.

    A lane yields requests and is sent their replies.  Every step hands the
    pending requests, in lane order, to ``answer``, which yields
    ``(position, reply)`` once for each, in any order, so that one batched
    kernel call can serve them all.  A lane advances as soon as its reply
    arrives, and its next request waits for the next step."""
    out: list = [None] * len(lanes)
    pending: dict = {}

    def advance(a: int, reply) -> None:
        try:
            pending[a] = lanes[a].send(reply)
        except StopIteration as stop:
            out[a] = stop.value

    for a in range(len(lanes)):
        advance(a, None)
    while pending:
        asked = sorted(pending)
        for position, reply in answer([pending.pop(a) for a in asked]):
            advance(asked[position], reply)
    return out
