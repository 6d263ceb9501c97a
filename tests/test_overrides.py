"""Key=value parsing and dataclass override application."""

import dataclasses

import pytest

from dynopt.errors import ConfigError
from dynopt.gdbg.instance import GdbgConfig
from dynopt.harness.experiment import ExperimentConfig
from dynopt.optimizers.base import SwarmConfig
from dynopt.optimizers.qcsso import QcssoConfig
from dynopt.overrides import (
    apply_overrides,
    coerce,
    parse_config_text,
    parse_kv_pairs,
)


class TestParseKvPairs:
    def test_basic_pairs(self):
        out = parse_kv_pairs(["a=1", "b = two ", "c=x=y"])
        assert out == {"a": "1", "b": "two", "c": "x=y"}

    def test_blank_lines_and_comments_skipped(self):
        out = parse_kv_pairs(["", "   ", "# note", "a=1"])
        assert out == {"a": "1"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv_pairs(["justakey"])

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv_pairs(["=5"])

    def test_later_entry_wins(self):
        assert parse_kv_pairs(["a=1", "a=2"]) == {"a": "2"}

    def test_config_text(self):
        text = "# experiment\nruns=3\n\nseed = 7\n"
        assert parse_config_text(text) == {"runs": "3", "seed": "7"}


class TestCoerce:
    def test_int_from_string(self):
        assert coerce("12", int) == 12

    def test_int_from_float_shaped_string(self):
        assert coerce("10.0", int) == 10

    def test_int_rejects_fractional(self):
        with pytest.raises(ConfigError):
            coerce("10.5", int)

    def test_int_rejects_text(self):
        with pytest.raises(ConfigError):
            coerce("ten", int)

    def test_float(self):
        assert coerce("1.5e2", float) == 150.0
        assert coerce(3, float) == 3.0

    def test_bool_words(self):
        assert coerce("yes", bool) is True
        assert coerce("TRUE", bool) is True
        assert coerce("off", bool) is False
        assert coerce("0", bool) is False

    def test_bool_rejects_garbage(self):
        with pytest.raises(ConfigError):
            coerce("maybe", bool)

    def test_str_passthrough(self):
        assert coerce("hi", str) == "hi"
        assert coerce(5, str) == "5"

    def test_already_typed(self):
        assert coerce(7, int) == 7
        assert coerce(True, bool) is True


class TestApplyOverrides:
    def test_none_returns_same_object(self):
        cfg = GdbgConfig()
        assert apply_overrides(cfg, None) is cfg
        assert apply_overrides(cfg, {}) is cfg

    def test_string_values_coerced_to_field_types(self):
        cfg = apply_overrides(GdbgConfig(), {"dimension": "12"})
        assert cfg.dimension == 12
        cfg = apply_overrides(QcssoConfig(), {"reinit_probability": "0.25"})
        assert cfg.reinit_probability == 0.25
        assert apply_overrides(ExperimentConfig(), {"trace": "true"}).trace is True

    def test_original_untouched(self):
        base = GdbgConfig()
        apply_overrides(base, {"dimension": 12})
        assert base.dimension == 10

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown override"):
            apply_overrides(GdbgConfig(), {"dimenson": 12})

    @pytest.mark.parametrize("cls", [GdbgConfig, QcssoConfig, SwarmConfig])
    def test_every_default_gives_its_field_type(self, cls):
        # an override is coerced to the type of the field's default
        for f in dataclasses.fields(cls):
            assert getattr(cls(), f.name) is not None, f.name

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot interpret"):
            apply_overrides(QcssoConfig(), {"population": "many"})
