"""Event-kind runs over the service wire: identity and visibility.

An event-kind run must keep byte-identical slot ledgers on *every*
execution path, including ``--service``: a daemon decodes the request
(with its :class:`~repro.sim.config.EngineCoreConfig`), runs the slot
loop and its request draw in its own process, and ships the artifact
back.  These tests pin the wire round-trip of the engine
config and the cross-process ledger identity.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.orchestrator import EngineOptions, RunRequest
from repro.experiments.runner import default_policies
from repro.service.protocol import decode_request, encode_request
from repro.sim.config import EngineCoreConfig
from repro.sim.engine import SimulationEngine


@pytest.fixture
def event_request(tiny_config):
    return RunRequest(
        config=tiny_config,
        policy=default_policies()[1],  # EnerAware: cheapest of the four
        options=EngineOptions(engine=EngineCoreConfig(kind="event")),
    )


class TestCodecRoundTrip:
    def test_engine_config_survives_the_wire(self, event_request):
        decoded, fingerprint, _ = decode_request(
            encode_request(event_request)
        )
        assert isinstance(decoded.options.engine, EngineCoreConfig)
        assert decoded.options.engine.kind == "event"
        assert fingerprint == event_request.fingerprint()

    def test_engine_mode_is_part_of_the_fingerprint(self, tiny_config):
        slot = RunRequest(
            config=tiny_config, policy=default_policies()[1]
        )
        event = RunRequest(
            config=tiny_config,
            policy=default_policies()[1],
            options=EngineOptions(
                engine=EngineCoreConfig(kind="event")
            ),
        )
        assert slot.fingerprint() != event.fingerprint()


class TestServicePathIdentity:
    def test_daemon_event_run_matches_local_slot_run(
        self, client, event_request, tiny_config
    ):
        artifact = client.run(event_request)
        local = SimulationEngine(
            tiny_config, default_policies()[1]
        ).run()
        remote_bytes = json.dumps(
            [record.to_dict() for record in artifact.result.slots],
            sort_keys=True,
        )
        local_bytes = json.dumps(
            [record.to_dict() for record in local.slots], sort_keys=True
        )
        assert remote_bytes == local_bytes
        # The request ledger crossed the wire too.
        assert artifact.result.total_requests() > 0
