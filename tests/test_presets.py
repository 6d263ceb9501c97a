"""The shipped ``configs/*.cfg`` presets load and resolve to the protocol."""

from pathlib import Path

import pytest

from dynopt.harness.csvio import load_weight_table
from dynopt.harness.experiment import ExperimentConfig
from dynopt.optimizers.runner import OPTIMIZER_IDS
from dynopt.overrides import parse_config_text

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PRESETS = sorted(CONFIGS.glob("*.cfg"))


def load(path: Path) -> ExperimentConfig:
    return ExperimentConfig.from_pairs(
        parse_config_text(path.read_text(encoding="utf-8"))
    )


def test_both_presets_ship():
    assert {"desk.cfg", "full.cfg"} <= {path.name for path in PRESETS}


@pytest.mark.parametrize("path", PRESETS, ids=lambda path: path.name)
def test_preset_resolves(path):
    config = load(path)
    assert config.selected_cases()
    load_weight_table(config.weights)


def test_full_is_the_published_protocol():
    full = load(CONFIGS / "full.cfg")
    assert len(full.selected_cases()) == 49
    assert full.optimizers == OPTIMIZER_IDS
    assert full.runs == 20
    assert full.num_change == 60
    assert full.resolved_frequency() == 100_000
    assert full.budget() == 60 * 100_000
