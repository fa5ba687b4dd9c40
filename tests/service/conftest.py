"""Shared fixtures for the experiment-service tests."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.experiments.orchestrator import (
    Orchestrator,
    ResultStore,
    RunRequest,
)
from repro.experiments.runner import default_policies
from repro.service import ExperimentDaemon, ServiceClient
from repro.service.protocol import encode_batch
from repro.sim.config import scaled_config


def get(url: str, path: str) -> tuple[int, dict]:
    """One GET against a daemon: ``(HTTP status, JSON body)``."""
    try:
        with urllib.request.urlopen(url + path, timeout=90) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def post_entry(url: str, entry: dict) -> tuple[int, dict]:
    """POST one ``run_request`` envelope as a one-entry ``/runs/batch``.

    Returns the entry's own disposition as ``(status, payload)``:
    ``200`` for an artifact line, ``202`` for a pending line, else the
    error line's embedded ``status``.  A refused batch returns its
    HTTP status and error body.
    """
    request = urllib.request.Request(
        url + "/runs/batch",
        data=json.dumps(encode_batch([entry])).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=90) as response:
            payload = json.loads(response.read().splitlines()[0])
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())
    kind = payload["kind"]
    if kind == "run_artifact":
        return 200, payload
    if kind == "pending":
        return 202, payload
    return payload["status"], payload


def grid_requests(seeds, horizon=2):
    """The four-method grid at tiny scale, one cell per seed."""
    return [
        RunRequest(
            config=scaled_config("tiny", seed=seed).with_horizon(horizon),
            policy=policy,
        )
        for seed in seeds
        for policy in default_policies()
    ]


@pytest.fixture
def tiny_config():
    return scaled_config("tiny", seed=0).with_horizon(2)


@pytest.fixture
def tiny_requests(tiny_config):
    """The four-method grid at tiny scale (one cheap run each)."""
    return [
        RunRequest(config=tiny_config, policy=policy)
        for policy in default_policies()
    ]


@pytest.fixture
def daemon_factory(tmp_path):
    """Build daemons on ephemeral ports; every one is closed at teardown."""
    daemons: list[ExperimentDaemon] = []
    roots = iter(range(1000))

    def build(
        jobs: int = 2,
        backend: str = "segment",
        store_root=None,
        **daemon_kwargs,
    ) -> ExperimentDaemon:
        if store_root is None:
            store_root = tmp_path / f"store-{next(roots)}"
        store = ResultStore(store_root, backend=backend)
        daemon = ExperimentDaemon(
            Orchestrator(store=store, jobs=jobs), **daemon_kwargs
        )
        daemons.append(daemon)
        return daemon.start()

    yield build
    for daemon in daemons:
        daemon.close()


@pytest.fixture
def daemon(daemon_factory):
    return daemon_factory()


@pytest.fixture
def client(daemon):
    with ServiceClient(daemon.url) as client:
        yield client
