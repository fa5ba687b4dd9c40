"""Reversible codec: round trips, fingerprint stability, import safety."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.controller import ProposedPolicy
from repro.core.forces import ForceParameters
from repro.core.local import allocate_first_fit
from repro.experiments.orchestrator import (
    EngineOptions,
    RunRequest,
    canonical,
)
from repro.experiments.runner import default_policies
from repro.service.codec import CodecError, decode, encode
from repro.service.protocol import (
    FingerprintMismatch,
    WireError,
    decode_request,
    encode_request,
)
from repro.sim.config import EngineCoreConfig, paper_config, scaled_config
from repro.workload.packs import (
    DataCorrelationParams,
    RecordedTraceSource,
    TracePack,
    get_pack,
)
from repro.workload.vm import AppType


def roundtrip(value):
    """encode -> JSON bytes -> decode, as the wire does."""
    return decode(json.loads(json.dumps(encode(value))))


class TestPlainValues:
    def test_scalars(self):
        for value in (None, True, False, 0, -3, 2.5, "x", ""):
            assert roundtrip(value) == value

    def test_containers(self):
        assert roundtrip([1, [2, "a"]]) == [1, [2, "a"]]
        assert roundtrip((1, (2, 3))) == (1, (2, 3))
        assert isinstance(roundtrip((1, 2)), tuple)
        assert roundtrip({"a": 1, "b": [2]}) == {"a": 1, "b": [2]}

    def test_enum_keyed_dict(self):
        mix = {AppType.WEB: 0.25, AppType.HPC: 0.75}
        back = roundtrip(mix)
        assert back == mix
        assert all(isinstance(key, AppType) for key in back)

    def test_dict_with_tag_shaped_key(self):
        tricky = {"__tuple__": "not a tuple"}
        assert roundtrip(tricky) == tricky

    def test_ndarray(self):
        matrix = np.arange(12, dtype=float).reshape(3, 4)
        back = roundtrip(matrix)
        assert back.dtype == matrix.dtype
        np.testing.assert_array_equal(back, matrix)

    def test_numpy_scalar_collapses(self):
        assert roundtrip(np.float64(2.5)) == 2.5
        assert roundtrip(np.int64(7)) == 7

    def test_unencodable(self):
        with pytest.raises(CodecError):
            encode(open)  # builtin, not under repro
        with pytest.raises(CodecError):
            encode(lambda x: x)


class TestConfigsAndPolicies:
    @pytest.mark.parametrize("scale", ["tiny", "small"])
    def test_scaled_config_roundtrip(self, scale):
        config = scaled_config(scale, seed=3)
        back = roundtrip(config)
        assert canonical(back) == canonical(config)

    def test_paper_config_roundtrip(self):
        config = paper_config(seed=1)
        assert canonical(roundtrip(config)) == canonical(config)

    @pytest.mark.parametrize(
        "policy", default_policies(0.7), ids=lambda p: p.name
    )
    def test_policy_roundtrip(self, policy):
        back = roundtrip(policy)
        assert type(back) is type(policy)
        assert canonical(back.descriptor()) == canonical(policy.descriptor())

    def test_policy_with_function_state(self):
        policy = ProposedPolicy(
            force_params=ForceParameters(alpha=0.9),
            local_allocator=allocate_first_fit,
        )
        back = roundtrip(policy)
        assert back.local_allocator is allocate_first_fit
        assert canonical(back.descriptor()) == canonical(policy.descriptor())


class TestFingerprintStability:
    def test_full_request_fingerprints(self):
        config = scaled_config("tiny", seed=2)
        for policy in default_policies(0.3):
            request = RunRequest(
                config=config,
                policy=policy,
                seed=9,
                options=EngineOptions(engine=EngineCoreConfig(kind="event")),
            )
            assert roundtrip(request).fingerprint() == request.fingerprint()

    def test_synthetic_pack_request(self):
        request = RunRequest(
            config=scaled_config("tiny"),
            policy=default_policies()[0],
            pack=get_pack("synthetic"),
        )
        back = roundtrip(request)
        assert back.fingerprint() == request.fingerprint()
        assert back.pack.sha256 == request.pack.sha256

    def test_recorded_pack_request(self):
        matrix = np.random.default_rng(7).random((4, 60))
        pack = TracePack(
            name="recorded-test",
            source=RecordedTraceSource(
                utilization=matrix, steps_per_slot=30, extend_days=2
            ),
            datacorr=DataCorrelationParams(dense=True),
            app_mix={AppType.WEB: 0.5, AppType.BATCH: 0.5},
        )
        request = RunRequest(
            config=scaled_config("tiny"),
            policy=default_policies()[1],
            pack=pack,
        )
        back = roundtrip(request)
        assert back.fingerprint() == request.fingerprint()
        assert back.pack.sha256 == pack.sha256
        np.testing.assert_array_equal(
            back.pack.source.utilization, matrix
        )


class TestRetiredEngineOptions:
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_vectorized_option_is_refused(self, vectorized):
        """A client still sending ``EngineOptions.vectorized`` gets the
        daemon's 400 (a plain WireError) -- never a run decoded under
        a different fingerprint."""
        request = RunRequest(
            config=scaled_config("tiny"), policy=default_policies()[1]
        )
        payload = encode_request(request)
        options = payload["request"]["fields"]["options"]["fields"]
        options["vectorized"] = vectorized
        with pytest.raises(WireError, match="vectorized") as excinfo:
            decode_request(json.loads(json.dumps(payload)))
        assert not isinstance(excinfo.value, FingerprintMismatch)


class TestRemovedParameters:
    """An older client's request tree is refused, never rebuilt under
    a different fingerprint: the codec's constructor call rejects a
    removed keyword."""

    @pytest.mark.parametrize("option", ["validate", "clairvoyant"])
    def test_engine_flag_is_refused(self, option):
        tree = encode(
            RunRequest(config=scaled_config("tiny"), policy=default_policies()[1])
        )
        tree["fields"]["options"]["fields"][option] = False
        with pytest.raises(CodecError, match=option):
            decode(json.loads(json.dumps(tree)))

    @pytest.mark.parametrize("index", [1, 2, 3])
    def test_baseline_headroom_is_refused(self, index):
        tree = encode(default_policies()[index])
        assert tree["state"] == {}
        tree["state"]["headroom"] = 0.9
        with pytest.raises(CodecError, match="headroom"):
            decode(json.loads(json.dumps(tree)))


class TestDecodeSafety:
    def test_refuses_modules_outside_repro(self):
        for tag in ("__object__", "__dataclass__", "__callable__"):
            with pytest.raises(CodecError, match="repro"):
                decode({tag: "os:system"})

    def test_refuses_stdlib_dotted_prefix_spoof(self):
        with pytest.raises(CodecError):
            decode({"__callable__": "reprolib.evil:run"})

    def test_refuses_foreign_objects_reached_through_repro(self):
        """repro modules import the stdlib; walking to it is refused."""
        with pytest.raises(CodecError, match="outside"):
            decode({"__callable__": "repro.cli:os.system"})
        with pytest.raises(CodecError, match="outside"):
            decode({"__callable__": "repro.cli:pathlib.Path"})
        with pytest.raises(CodecError):
            decode(
                {"__object__": "repro.cli:np.ndarray", "state": {}}
            )

    def test_refuses_wrong_category(self):
        # A real repro class, but not an enum.
        with pytest.raises(CodecError, match="not an enum"):
            decode(
                {"__enum__": "repro.sim.config:ExperimentConfig", "name": "X"}
            )
        with pytest.raises(CodecError, match="not a dataclass"):
            decode(
                {
                    "__dataclass__": "repro.core.controller:ProposedPolicy",
                    "fields": {},
                }
            )

    def test_refuses_unknown_attribute(self):
        with pytest.raises(CodecError):
            decode({"__callable__": "repro.sim.config:no_such_thing"})

    def test_refuses_bad_constructor_args(self):
        with pytest.raises(CodecError):
            decode(
                {
                    "__object__": "repro.core.controller:ProposedPolicy",
                    "state": {"bogus_kwarg": 1},
                }
            )
