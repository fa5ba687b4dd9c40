"""Shared experiment daemon: HTTP front-end over the orchestrator.

The futures orchestrator (:mod:`repro.experiments.orchestrator`) gives
one process non-blocking ``submit``/``as_done`` semantics over a
persistent result store.  This package puts a network front-end on it
so *many* clients share one long-lived daemon -- one worker pool, one
store, one in-flight dedup table:

* :mod:`repro.service.codec` -- reversible JSON encoding of the
  request object universe (configs, policies, packs), the sibling of
  the orchestrator's one-way ``canonical``;
* :mod:`repro.service.protocol` -- the versioned wire envelopes for
  :class:`~repro.experiments.orchestrator.RunRequest` and
  :class:`~repro.experiments.orchestrator.RunArtifact`;
* :mod:`repro.service.server` -- the threaded stdlib-HTTP daemon
  behind ``repro serve``: ``POST /runs/batch`` submits,
  ``POST /runs/poll`` is the one read route, and ``GET /healthz`` and
  ``GET /stats`` report; every body is JSON in HTTP's identity coding;
* :mod:`repro.service.client` -- :class:`ServiceClient`, a drop-in
  :class:`~repro.experiments.orchestrator.Orchestrator` replacement
  that resolves runs against one remote daemon (the CLI's
  ``--service URL`` path).

See DESIGN.md ("Experiment service") for the wire protocol, dedup
semantics and when to choose the in-process orchestrator instead.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    WIRE_VERSION,
    WireError,
    decode_artifact,
    decode_request,
    encode_artifact,
    encode_request,
)
from repro.service.server import ExperimentDaemon

__all__ = [
    "ExperimentDaemon",
    "ServiceClient",
    "ServiceError",
    "WIRE_VERSION",
    "WireError",
    "decode_artifact",
    "decode_request",
    "encode_artifact",
    "encode_request",
]
