"""Wire envelopes: versioning, verification, artifact round trips."""

from __future__ import annotations

import json

import pytest

from repro.experiments.orchestrator import RunArtifact, RunRequest
from repro.experiments.runner import default_policies
from repro.service.protocol import (
    WIRE_VERSION,
    WireError,
    decode_artifact,
    decode_request,
    encode_artifact,
    encode_error,
    encode_pending,
    encode_request,
)
from repro.sim.config import scaled_config
from repro.sim.engine import SimulationEngine


@pytest.fixture(scope="module")
def request_and_artifact():
    config = scaled_config("tiny", seed=0).with_horizon(1)
    request = RunRequest(config=config, policy=default_policies()[0])
    result = SimulationEngine(config, request.policy).run()
    artifact = RunArtifact(
        fingerprint=request.fingerprint(),
        result=result,
        source="computed",
        elapsed_s=1.25,
    )
    return request, artifact


class TestRequestEnvelope:
    def test_roundtrip(self, request_and_artifact):
        request, _ = request_and_artifact
        payload = json.loads(json.dumps(encode_request(request)))
        assert payload["wire_version"] == WIRE_VERSION
        assert payload["kind"] == "run_request"
        back, fingerprint, use_store = decode_request(payload)
        assert fingerprint == request.fingerprint()
        assert use_store
        assert back.fingerprint() == request.fingerprint()

    def test_use_store_false_travels(self, request_and_artifact):
        request, _ = request_and_artifact
        payload = encode_request(request, use_store=False)
        _, _, use_store = decode_request(payload)
        assert not use_store

    def test_version_mismatch_refused(self, request_and_artifact):
        request, _ = request_and_artifact
        payload = encode_request(request)
        payload["wire_version"] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="version"):
            decode_request(payload)

    def test_wrong_kind_refused(self, request_and_artifact):
        request, _ = request_and_artifact
        payload = encode_request(request)
        payload["kind"] = "run_artifact"
        with pytest.raises(WireError, match="kind|expected"):
            decode_request(payload)

    def test_fingerprint_mismatch_refused(self, request_and_artifact):
        request, _ = request_and_artifact
        payload = encode_request(request)
        payload["fingerprint"] = "0" * 64
        with pytest.raises(WireError, match="mismatch"):
            decode_request(payload)

    def test_non_request_tree_refused(self):
        payload = {
            "wire_version": WIRE_VERSION,
            "kind": "run_request",
            "fingerprint": "0" * 64,
            "request": {"just": "data"},
        }
        with pytest.raises(WireError, match="not a RunRequest"):
            decode_request(payload)

    def test_non_object_payload_refused(self):
        with pytest.raises(WireError):
            decode_request(["nope"])


class TestArtifactEnvelope:
    def test_roundtrip_is_bit_identical(self, request_and_artifact):
        _, artifact = request_and_artifact
        payload = json.loads(json.dumps(encode_artifact(artifact)))
        back = decode_artifact(payload)
        assert back.fingerprint == artifact.fingerprint
        assert back.source == "computed"
        assert back.elapsed_s == 1.25
        assert json.dumps(
            back.result.to_dict(), sort_keys=True
        ) == json.dumps(artifact.result.to_dict(), sort_keys=True)

    def test_version_checked(self, request_and_artifact):
        _, artifact = request_and_artifact
        payload = encode_artifact(artifact)
        payload["wire_version"] = 99
        with pytest.raises(WireError, match="version"):
            decode_artifact(payload)


class TestAuxiliaryEnvelopes:
    def test_pending(self):
        payload = encode_pending("ab" * 32)
        assert payload["kind"] == "pending"
        assert payload["wire_version"] == WIRE_VERSION

    def test_error_carries_fields(self):
        payload = encode_error("boom", fingerprint="ab" * 32, status=500)
        assert payload["kind"] == "error"
        assert payload["error"] == "boom"
        assert payload["status"] == 500
        assert payload["fingerprint"] == "ab" * 32
