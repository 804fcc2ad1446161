"""Outcome digests: the sharded determinism contract, serialized.

One canonical line per request —
``request_id,status,node,device,repr(end_s),shed_reason``, the fields of
:meth:`~repro.serving.frontend.ServingResponse.outcome_tuple` — hashed
with SHA-256.  ``repr`` of the virtual completion time keeps full float
precision, so two digests agree only when every request resolved
digit-for-digit identically.  The same line format is used by the
single-process million bench, a merged sharded replay, and the tests
that compare the two, which is precisely what lets the contract say
*bit-identical* instead of *statistically similar*.

Digest order matters: :func:`digest_responses` hashes in the order the
responses are given (trace order for a replay result), while a sharded
merge hashes in request-id order.  Traces built by
:meth:`~repro.workloads.mixed.MixedTrace.build` and
:func:`~repro.workloads.requests.make_trace` number requests positionally,
so the two orders coincide for every trace the benches replay.
"""

from __future__ import annotations

import hashlib

__all__ = ["outcome_line", "digest_rows", "digest_responses"]


def outcome_line(
    request_id: int,
    status: str,
    node: "str | None",
    device: "str | None",
    end_s: "float | None",
    shed_reason: "str | None",
) -> bytes:
    """The canonical serialization of one resolved request."""
    return (
        f"{request_id},{status},{node},{device},{end_s!r},{shed_reason}\n"
    ).encode()


def digest_rows(rows) -> str:
    """SHA-256 over outcome tuples, in the order given."""
    h = hashlib.sha256()
    update = h.update
    for row in rows:
        update(outcome_line(*row))
    return h.hexdigest()


def digest_responses(responses) -> str:
    """Digest resolved responses as given.

    Accepts anything with an ``outcome_tuple()`` of the six canonical
    fields — every :class:`~repro.serving.frontend.ServingResponse`
    (node None until it is routed).
    """
    return digest_rows(r.outcome_tuple() for r in responses)
