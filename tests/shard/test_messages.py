"""Outcome blocks cross a pipe carrying every field the digest hashes.

A block ships six columns; the coordinator zips them back into rows.
"""

from __future__ import annotations

from multiprocessing import Pipe

from repro.shard import digest_rows
from repro.shard.messages import GroupOutcome, WorkerResult


ROWS = [
    (0, "ok", "g0-a", "dgpu", 0.00123456789012345, None),
    (1, "shed", "g0-a", None, None, "queue_full"),
    (2, "ok", "g0-b", "cpu", 1.5, None),
    (3, "ok", "g0-a", "dgpu", 2.25, None),
    (4, "shed", None, None, None, "deadline"),
]


class Received:
    """A received outcome block with its columns zipped back into rows."""

    def __init__(self, outcome: GroupOutcome):
        self.group = outcome.group
        self.telemetry = outcome.telemetry
        self.utilization = outcome.utilization
        self.rows = list(zip(*outcome.columns, strict=True))


def columns_of(rows) -> tuple:
    """The six outcome columns a worker ships for ``rows``."""
    return tuple([row[i] for row in rows] for i in range(6))


def ship(rows=ROWS) -> Received:
    """Send one worker's outcome block through a pipe and return it."""
    outcome = GroupOutcome(
        0, columns_of(rows), telemetry={"served": 3},
        utilization={"events_fired": 9},
    )
    send, recv = Pipe()
    try:
        send.send(WorkerResult(worker=0, outcomes=(outcome,)))
        result = recv.recv()
    finally:
        send.close()
        recv.close()
    (received,) = result.outcomes
    assert len(received.columns) == 6
    return Received(received)


def test_rows_round_trip_exactly():
    outcome = ship()
    assert outcome.rows == ROWS
    assert outcome.group == 0
    assert outcome.telemetry == {"served": 3}
    assert outcome.utilization == {"events_fired": 9}
    # None stays None and full float precision survives.
    assert outcome.rows[1][4] is None
    assert outcome.rows[0][4] == ROWS[0][4]


def test_digest_of_decoded_rows_matches_original():
    assert digest_rows(ship().rows) == digest_rows(ROWS)


def test_empty_outcome_block():
    outcome = ship(rows=[])
    assert outcome.rows == []
    assert digest_rows(outcome.rows) == digest_rows([])
