"""StudyConfig canonical serialization: round-trip, hash stability.

The sweep cache's entire correctness story rests on
``canonical_hash()`` being a pure function of what the study
simulates: stable across processes, dict orderings, and equivalent
constructions — and blind to knobs (validation) that never change
results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import pytest

from repro.core.realtracer import TracerConfig
from repro.core.study import StudyConfig
from repro.errors import StudyError
from repro.player.playout import PlayoutConfig
from repro.server.session import SessionConfig
from repro.validate import ValidationConfig
from tests.test_world_servers import fresh_interpreter


def _varied_config() -> StudyConfig:
    return StudyConfig(
        seed=77,
        playlist_length=12,
        max_users=9,
        scale=0.25,
        scenario="red-queues",
        tracer=TracerConfig(
            red_bottleneck=True,
            playout=PlayoutConfig(prebuffer_media_s=2.0),
            session=SessionConfig(adaptation_enabled=False),
        ),
    )


class TestRoundTrip:
    def test_default_round_trips(self):
        config = StudyConfig()
        rebuilt = StudyConfig.from_dict(config.to_canonical_dict())
        assert rebuilt.to_canonical_dict() == config.to_canonical_dict()
        assert rebuilt.canonical_hash() == config.canonical_hash()

    def test_varied_round_trips(self):
        config = _varied_config()
        rebuilt = StudyConfig.from_dict(config.to_canonical_dict())
        assert rebuilt == replace(config, validation=rebuilt.validation)
        assert rebuilt.canonical_hash() == config.canonical_hash()

    def test_missing_fields_take_defaults(self):
        rebuilt = StudyConfig.from_dict({"seed": 3})
        assert rebuilt.seed == 3
        assert rebuilt.scale == 1.0
        assert rebuilt.tracer == TracerConfig()

    def test_unknown_field_rejected(self):
        with pytest.raises(StudyError, match="unknown config fields"):
            StudyConfig.from_dict({"sede": 3})

    def test_unknown_nested_field_rejected(self):
        data = StudyConfig().to_canonical_dict()
        data["tracer"]["playout"]["prebufer"] = 1.0
        with pytest.raises(StudyError, match="tracer.playout"):
            StudyConfig.from_dict(data)


class TestHashStability:
    def test_dict_ordering_is_irrelevant(self):
        config = _varied_config()
        data = config.to_canonical_dict()
        # Round-trip through JSON with reversed key order at every level.
        def reordered(value):
            if isinstance(value, dict):
                return {
                    key: reordered(value[key])
                    for key in sorted(value, reverse=True)
                }
            return value

        rebuilt = StudyConfig.from_dict(
            json.loads(json.dumps(reordered(data)))
        )
        assert rebuilt.canonical_hash() == config.canonical_hash()

    def test_stable_across_processes(self):
        config = _varied_config()
        code = (
            "from repro.core.study import StudyConfig;"
            "from repro.core.realtracer import TracerConfig;"
            "from repro.player.playout import PlayoutConfig;"
            "from repro.server.session import SessionConfig;"
            "print(StudyConfig(seed=77, playlist_length=12, max_users=9,"
            " scale=0.25, scenario='red-queues',"
            " tracer=TracerConfig(red_bottleneck=True,"
            " playout=PlayoutConfig(prebuffer_media_s=2.0),"
            " session=SessionConfig(adaptation_enabled=False))"
            ").canonical_hash())"
        )
        # PYTHONHASHSEED varies dict iteration hashing between runs;
        # the canonical hash must not care.
        out = fresh_interpreter(code, hashseed="12345")
        assert out == config.canonical_hash()

    def test_equivalent_floats_hash_equal(self):
        a = StudyConfig(scale=0.1 + 0.2)
        b = StudyConfig(scale=0.30000000000000004)
        assert a.canonical_hash() == b.canonical_hash()

    def test_int_valued_float_distinct_from_int_semantics(self):
        # scale is canonicalized through float(), so 1 and 1.0 agree.
        assert (
            StudyConfig(scale=1).canonical_hash()
            == StudyConfig(scale=1.0).canonical_hash()
        )


class TestWhatTheHashSees:
    def test_validation_is_excluded(self):
        audited = StudyConfig(
            seed=5, validation=ValidationConfig(enabled=True, strict=True)
        )
        plain = StudyConfig(seed=5)
        assert audited.canonical_hash() == plain.canonical_hash()
        assert "validation" not in plain.to_canonical_dict()

    def test_scenario_is_included(self):
        assert (
            StudyConfig(scenario="all-broadband").canonical_hash()
            != StudyConfig().canonical_hash()
        )

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 2002},
            {"scale": 0.5},
            {"playlist_length": 10},
            {"max_users": 5},
            {"tracer": TracerConfig(red_bottleneck=True)},
            {"tracer": TracerConfig(playout=PlayoutConfig(
                prebuffer_media_s=2.0))},
        ],
    )
    def test_every_simulation_knob_moves_the_hash(self, change):
        assert (
            replace(StudyConfig(), **change).canonical_hash()
            != StudyConfig().canonical_hash()
        )

    def test_unserializable_field_fails_loudly(self):
        @dataclass
        class Rogue:
            hook: object = print

        config = StudyConfig()
        config.tracer = Rogue()  # type: ignore[assignment]
        with pytest.raises(StudyError, match="no stable serialization"):
            config.to_canonical_dict()

    def test_set_fields_canonicalize_sorted(self):
        @dataclass
        class WithSet:
            names: frozenset = frozenset({"b", "a", "c"})

        config = StudyConfig()
        config.tracer = WithSet()  # type: ignore[assignment]
        assert config.to_canonical_dict()["tracer"] == {
            "names": ["a", "b", "c"]
        }
