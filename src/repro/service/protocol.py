"""Versioned wire envelopes for requests, artifacts and errors.

Every payload the daemon and client exchange is one JSON object with
two mandatory fields: ``wire_version`` and ``kind`` (``run_request`` /
``run_artifact`` / ``pending`` / ``error`` / ``run_batch`` /
``run_poll``).  Requests additionally carry the client-computed
fingerprint so the daemon can verify its decode reproduced the exact
run identity before touching the store; artifacts carry either the
serialized :class:`~repro.sim.results.RunResult` ledger
(``detail=full``, round-tripping bit-identically -- the same
``to_dict``/``from_dict`` pair the store uses) or the headline
projection (``detail=headline``,
:meth:`~repro.sim.results.RunResult.headline`).

Both sides speak exactly :data:`WIRE_VERSION` and refuse an envelope
at any other version.

The codec (:mod:`repro.service.codec`) handles the object tree inside
``request``; this module owns the envelopes, so protocol evolution
(new kinds, new fields) is confined here and versioned explicitly.
"""

from __future__ import annotations

import math
from typing import Any

from repro.experiments.orchestrator import RunArtifact, RunRequest
from repro.service.codec import decode, encode
from repro.sim.results import HeadlineResult, RunResult

__all__ = [
    "DETAIL_LEVELS",
    "FingerprintMismatch",
    "WIRE_VERSION",
    "WireError",
    "decode_artifact",
    "decode_batch",
    "decode_poll",
    "decode_request",
    "encode_artifact",
    "encode_batch",
    "encode_error",
    "encode_health",
    "encode_pending",
    "encode_poll",
    "encode_request",
]

#: Version of the wire envelopes and the codec's tag scheme.  Bump on
#: any change an old peer would misread.
WIRE_VERSION = 2

#: Artifact projection levels a client may request.
DETAIL_LEVELS = ("headline", "full")


class WireError(ValueError):
    """A payload violates the wire protocol (version, kind, shape)."""


class FingerprintMismatch(WireError):
    """A request's declared fingerprint disagrees with its content.

    Kept distinct from other wire errors because the daemon answers it
    with ``409 Conflict`` (the payload is well-formed; its *identity*
    is inconsistent -- almost always client/daemon codec drift).
    """


def _check_envelope(payload: Any, kind: str) -> dict:
    if not isinstance(payload, dict):
        raise WireError(f"expected a JSON object, got {type(payload).__name__}")
    version = payload.get("wire_version")
    if version != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: peer speaks {version!r}, this side "
            f"speaks {WIRE_VERSION}"
        )
    if payload.get("kind") != kind:
        raise WireError(
            f"expected a {kind!r} payload, got {payload.get('kind')!r}"
        )
    return payload


def check_detail(detail: Any) -> str:
    """Validate a ``detail`` field; returns it (default ``full``)."""
    if detail is None:
        return "full"
    if detail not in DETAIL_LEVELS:
        raise WireError(
            f"unknown detail level {detail!r}; choose from {DETAIL_LEVELS}"
        )
    return detail


def encode_request(
    request: RunRequest,
    fingerprint: str | None = None,
    use_store: bool = True,
) -> dict:
    """One ``POST /runs/batch`` entry for ``request``.

    ``fingerprint`` defaults to the request's own; passing a
    precomputed one saves the client a second canonicalization pass.
    ``use_store=False`` asks the daemon to resimulate even on a store
    hit (the ``--no-cache`` path; the result is still recorded).  The
    artifact's ``detail`` is the batch envelope's
    (:func:`encode_batch`), one for every entry.
    """
    return {
        "wire_version": WIRE_VERSION,
        "kind": "run_request",
        "fingerprint": fingerprint or request.fingerprint(),
        "use_store": bool(use_store),
        "request": encode(request),
    }


def decode_request(payload: Any) -> tuple[RunRequest, str, bool]:
    """Decode and verify a ``run_request`` payload.

    Returns ``(request, fingerprint, use_store)``.  The declared
    fingerprint must match the decoded request's own -- a mismatch
    means codec drift (or a corrupted payload) and is refused before
    it can poison the store.
    """
    payload = _check_envelope(payload, "run_request")
    declared = payload.get("fingerprint")
    if not isinstance(declared, str):
        raise WireError("run_request payload lacks a fingerprint")
    try:
        request = decode(payload.get("request"))
        if not isinstance(request, RunRequest):
            raise WireError(
                f"payload decodes to {type(request).__name__}, "
                "not a RunRequest"
            )
        actual = request.fingerprint()
    except WireError:
        raise
    except (ValueError, TypeError, KeyError, AttributeError) as error:
        # CodecError is a ValueError; a dataclass's own validation
        # (``__post_init__``), a malformed tag (``{"__tuple__": 5}``)
        # and a tag missing its payload raise the plain built-ins, and
        # a RunRequest whose fields are not the objects it hashes
        # (``"policy": 5``) raises AttributeError from fingerprint() --
        # every one means a bad entry, answered on its own line.
        raise WireError(f"undecodable request: {error}") from None
    if actual != declared:
        raise FingerprintMismatch(
            f"fingerprint mismatch: payload declares {declared[:12]}..., "
            f"decoded request hashes to {actual[:12]}... (codec drift?)"
        )
    return request, actual, bool(payload.get("use_store", True))


def encode_artifact(artifact: RunArtifact, detail: str = "full") -> dict:
    """The wire form of a resolved artifact.

    ``detail=full`` ships the complete ledger under ``result``;
    ``detail=headline`` ships the headline projection under
    ``headline`` instead.
    """
    payload = {
        "wire_version": WIRE_VERSION,
        "kind": "run_artifact",
        "fingerprint": artifact.fingerprint,
        "source": artifact.source,
        "elapsed_s": artifact.elapsed_s,
        "detail": check_detail(detail),
    }
    if detail == "headline":
        payload["headline"] = artifact.result.headline()
    else:
        payload["result"] = artifact.result.to_dict()
    return payload


def decode_artifact(payload: Any) -> RunArtifact:
    """Rebuild a :class:`RunArtifact` from its wire form.

    ``detail=headline`` payloads decode to an artifact carrying a
    :class:`~repro.sim.results.HeadlineResult`, which answers the
    headline's readings and nothing else.
    """
    payload = _check_envelope(payload, "run_artifact")
    detail = check_detail(payload.get("detail"))
    if detail == "headline":
        headline = payload.get("headline")
        if not isinstance(headline, dict):
            raise WireError("headline artifact lacks a headline block")
        result: RunResult | HeadlineResult = HeadlineResult(headline)
    else:
        try:
            result = RunResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError) as error:
            raise WireError(
                f"undecodable artifact result: {error}"
            ) from None
    return RunArtifact(
        fingerprint=payload.get("fingerprint", ""),
        result=result,
        source=payload.get("source", "service"),
        elapsed_s=float(payload.get("elapsed_s", 0.0)),
    )


def encode_batch(entries: list[dict], detail: str = "full") -> dict:
    """The ``POST /runs/batch`` body: encoded requests + one detail.

    ``entries`` are :func:`encode_request` envelopes (each carries its
    own ``use_store`` flag); the daemon answers one JSON line per
    entry (artifact / pending / error), in entry order, so a whole
    sweep submits in one round trip.
    """
    return {
        "wire_version": WIRE_VERSION,
        "kind": "run_batch",
        "detail": check_detail(detail),
        "entries": entries,
    }


def decode_batch(payload: Any) -> tuple[list[dict], str]:
    """Validate a batch envelope; returns ``(entries, detail)``.

    Entries are validated individually by the submit path (each is a
    full ``run_request`` envelope) -- this checks only the batch
    framing, so one malformed entry poisons its own disposition line,
    not the whole batch.
    """
    payload = _check_envelope(payload, "run_batch")
    entries = payload.get("entries")
    if not isinstance(entries, list) or not entries:
        raise WireError("run_batch payload needs a non-empty entries list")
    return entries, check_detail(payload.get("detail"))


def encode_poll(
    fingerprints: list[str],
    wait_s: float = 0.0,
    detail: str = "full",
) -> dict:
    """The ``POST /runs/poll`` body: settle many runs in one call.

    The daemon's only read: a warm check and a lookup are polls too,
    of one fingerprint or many.  The list rides in the body, so no URL
    length caps it.  ``wait=0`` answers in one buffered body;
    ``wait>0`` streams JSON lines in completion order for up to
    ``wait`` seconds.
    """
    return {
        "wire_version": WIRE_VERSION,
        "kind": "run_poll",
        "fingerprints": list(fingerprints),
        "wait": float(wait_s),
        "detail": check_detail(detail),
    }


def decode_poll(payload: Any) -> tuple[list[str], float, str]:
    """Validate a poll envelope; returns ``(fingerprints, wait, detail)``."""
    payload = _check_envelope(payload, "run_poll")
    fingerprints = payload.get("fingerprints")
    if not isinstance(fingerprints, list) or not all(
        isinstance(item, str) for item in fingerprints
    ):
        raise WireError("run_poll payload needs a list of fingerprints")
    try:
        wait_s = float(payload.get("wait", 0.0))
    except (TypeError, ValueError):
        raise WireError("run_poll wait must be a number") from None
    # JSON parsers accept NaN and 1e999; neither is a wait.
    if not 0.0 <= wait_s < math.inf:
        raise WireError("run_poll wait must be finite and non-negative")
    return fingerprints, wait_s, check_detail(payload.get("detail"))


def encode_pending(fingerprint: str) -> dict:
    """The batch or poll line for a run still executing."""
    return {
        "wire_version": WIRE_VERSION,
        "kind": "pending",
        "fingerprint": fingerprint,
    }


def encode_health(daemon_id: str) -> dict:
    """The ``GET /healthz`` payload: liveness and the daemon's identity.

    Load, cache and engine-mode counters live in ``/stats`` only, so
    a health probe costs the daemon no lock.
    """
    return {
        "wire_version": WIRE_VERSION,
        "kind": "health",
        "status": "ok",
        "daemon_id": daemon_id,
    }


def encode_error(
    message: str,
    fingerprint: str | None = None,
    status: int = 400,
) -> dict:
    """An error payload (also used per-line on the batch/poll replies)."""
    payload = {
        "wire_version": WIRE_VERSION,
        "kind": "error",
        "error": message,
        "status": status,
    }
    if fingerprint is not None:
        payload["fingerprint"] = fingerprint
    return payload
