"""Concurrent-writer safety: shared roots must not corrupt or drop.

The per-file backend relies on atomic temp-file/rename writes; the
segment backend gives every writer instance its own segment/index
pair.  These tests drive both disciplines from multiple threads (each
thread owning its own backend instance, as two orchestrator processes
would) and assert that a fresh reader afterwards sees every document
intact.
"""

import hashlib
import json
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.orchestrator import Orchestrator, RunRequest
from repro.experiments.runner import default_policies
from repro.sim.config import scaled_config
from repro.store import JsonFileBackend, ResultStore, SegmentBackend


def fp(tag) -> str:
    return hashlib.sha256(str(tag).encode()).hexdigest()


def run_writers(worker, count: int) -> None:
    """Run ``worker(index)`` in ``count`` threads, re-raising failures."""
    errors = []

    def wrapped(index):
        try:
            worker(index)
        except BaseException as error:  # propagate to the test
            errors.append(error)

    threads = [
        threading.Thread(target=wrapped, args=(index,))
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestSegmentConcurrentWriters:
    WRITERS = 4
    DOCS_PER_WRITER = 25

    def test_no_documents_dropped_or_corrupted(self, tmp_path):
        def worker(writer_index):
            backend = SegmentBackend(tmp_path)
            for i in range(self.DOCS_PER_WRITER):
                key = fp((writer_index, i))
                backend.put(
                    key,
                    {
                        "fingerprint": key,
                        "writer": writer_index,
                        "payload": list(range(i, i + 5)),
                    },
                )

        run_writers(worker, self.WRITERS)
        reader = SegmentBackend(tmp_path)
        assert reader.count() == self.WRITERS * self.DOCS_PER_WRITER
        for writer_index in range(self.WRITERS):
            for i in range(self.DOCS_PER_WRITER):
                document = reader.fetch(fp((writer_index, i)))
                assert document is not None
                assert document["writer"] == writer_index
                assert document["payload"] == list(range(i, i + 5))

    def test_each_writer_owns_its_segment_pair(self, tmp_path):
        def worker(writer_index):
            backend = SegmentBackend(tmp_path)
            backend.put(fp(writer_index), {"writer": writer_index})

        run_writers(worker, self.WRITERS)
        segments = list((tmp_path / "segments").glob("*.seg"))
        assert len(segments) == self.WRITERS

    def test_shared_instance_is_thread_safe(self, tmp_path):
        backend = SegmentBackend(tmp_path)

        def worker(writer_index):
            for i in range(self.DOCS_PER_WRITER):
                key = fp(("shared", writer_index, i))
                backend.put(key, {"fingerprint": key, "w": writer_index})

        run_writers(worker, self.WRITERS)
        fresh = SegmentBackend(tmp_path)
        assert fresh.count() == self.WRITERS * self.DOCS_PER_WRITER


class TestJsonConcurrentWriters:
    def test_same_fingerprint_racers_leave_intact_document(self, tmp_path):
        key = fp("contested")

        def worker(writer_index):
            backend = JsonFileBackend(tmp_path)
            for _ in range(20):
                backend.put(key, {"fingerprint": key, "writer": writer_index})

        run_writers(worker, 4)
        document = JsonFileBackend(tmp_path).fetch(key)
        assert document is not None  # atomic rename: never a torn file
        assert document["fingerprint"] == key
        assert document["writer"] in range(4)
        assert not list(tmp_path.rglob("*.tmp"))  # no orphaned temp file


class TestOrchestratorsSharingARoot:
    def test_two_orchestrators_one_segment_root(self, tmp_path):
        """Two orchestrators over one store root drop nothing."""
        config = scaled_config("tiny", seed=0).with_horizon(2)
        batches = [
            [
                RunRequest(config=config, policy=policy, seed=seed)
                for policy in default_policies()[1:3]
            ]
            for seed in (10, 11)
        ]
        artifacts: dict[int, list] = {}

        def worker(index):
            orchestrator = Orchestrator(
                store=ResultStore(tmp_path, backend="segment")
            )
            artifacts[index] = orchestrator.run_many(batches[index])

        run_writers(worker, 2)
        reader = ResultStore(tmp_path)
        assert reader.backend.format == "segment"
        for index, batch in enumerate(batches):
            for request, artifact in zip(batch, artifacts[index]):
                hit = reader.fetch(request.fingerprint())
                assert hit is not None
                result, source = hit
                assert source == "disk"
                assert result.slots == artifact.result.slots


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    payloads=st.lists(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.integers(-1000, 1000) | st.text(max_size=12),
            max_size=4,
        ),
        min_size=1,
        max_size=24,
    ),
    writers=st.integers(min_value=1, max_value=3),
)
def test_property_interleaved_segment_writers(tmp_path_factory, payloads, writers):
    """Any interleaving of segment writers preserves every document."""
    root = tmp_path_factory.mktemp("segment-prop")
    backends = [SegmentBackend(root) for _ in range(writers)]
    expected = {}
    for index, payload in enumerate(payloads):
        key = fp(("prop", index))
        document = {"fingerprint": key, "payload": payload}
        backends[index % writers].put(key, document)
        expected[key] = document
    reader = SegmentBackend(root)
    assert dict(reader.scan()) == expected
    assert reader.count() == len(expected)
    # Round-trip through canonical JSON: nothing was truncated/reordered.
    for key, document in expected.items():
        assert json.dumps(reader.fetch(key), sort_keys=True) == json.dumps(
            document, sort_keys=True
        )


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_property_puts_and_tombstones_converge(data):
    """Random put/delete interleavings converge for a fresh reader.

    Each key is owned by one writer (the orchestrator's discipline:
    a fingerprint's shard/writer is deterministic), so its appends
    replay in program order; interleavings *across* keys and writers
    are arbitrary.
    """
    import tempfile

    ops = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, 5),  # key id (owner = key % 2)
                st.booleans(),  # delete?
            ),
            min_size=1,
            max_size=30,
        )
    )
    with tempfile.TemporaryDirectory() as root:
        writers = [SegmentBackend(root) for _ in range(2)]
        expected: dict[str, dict] = {}
        for step, (key_id, is_delete) in enumerate(ops):
            key = fp(("conv", key_id))
            writer = writers[key_id % 2]
            if is_delete:
                writer.delete(key)
                expected.pop(key, None)
            else:
                document = {"fingerprint": key, "op": [step, key_id]}
                writer.put(key, document)
                expected[key] = document
        reader = SegmentBackend(root)
        assert set(reader.keys()) == set(expected)
        for key, document in expected.items():
            assert reader.fetch(key) == document
