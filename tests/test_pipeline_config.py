"""Machine configuration presets."""

from dataclasses import FrozenInstanceError

import pytest

from repro.pipeline import contended_config, default_config


def test_default_is_well_provisioned():
    config = default_config()
    assert config.phys_regs >= 128
    assert config.iq_size >= 32
    assert not config.eliminate


def test_contended_is_starved():
    default = default_config()
    contended = contended_config()
    assert contended.phys_regs < default.phys_regs
    assert contended.iq_size < default.iq_size
    assert contended.mem_ports < default.mem_ports
    assert contended.rf_read_ports < default.rf_read_ports
    assert contended.name == "contended"


def test_overrides():
    config = default_config(eliminate=True, rob_size=64)
    assert config.eliminate
    assert config.rob_size == 64
    config = contended_config(phys_regs=40)
    assert config.phys_regs == 40
    assert config.iq_size == 16  # preset value retained


def test_config_is_immutable():
    config = default_config()
    with pytest.raises(FrozenInstanceError):
        config.rob_size = 1


def test_dead_predictor_budget():
    from repro.predictors import PathDeadPredictor

    predictor_config = default_config().dead_predictor
    predictor = PathDeadPredictor(
        entries=predictor_config.entries,
        tag_bits=predictor_config.tag_bits,
        path_bits=predictor_config.path_bits,
        conf_bits=predictor_config.conf_bits,
        threshold=predictor_config.threshold)
    assert predictor.storage_kb() < 5.0  # the paper's budget


def test_rejects_unknown_recovery_mode():
    # Any string but "replay" used to select flush silently.
    with pytest.raises(ValueError, match="recovery_mode"):
        default_config(recovery_mode="Replay")
    assert default_config(recovery_mode="flush").recovery_mode == "flush"


@pytest.mark.parametrize("name", [
    "alu_latency", "mul_latency", "div_latency", "branch_latency",
    "agen_latency", "l1d_latency", "l2_latency", "memory_latency"])
def test_rejects_latency_below_one(name):
    with pytest.raises(ValueError, match=name):
        default_config(**{name: 0})


@pytest.mark.parametrize("name", [
    "fetch_width", "rename_width", "issue_width", "commit_width",
    "alu_units", "mul_units", "div_units", "branch_units", "mem_ports"])
def test_rejects_width_or_unit_count_below_one(name):
    with pytest.raises(ValueError, match=name):
        contended_config(**{name: 0})


def test_rejects_single_read_port():
    # A two-source instruction could never issue.
    with pytest.raises(ValueError, match="rf_read_ports"):
        default_config(rf_read_ports=1)
    assert default_config(rf_read_ports=2).rf_read_ports == 2


def test_rejects_phys_regs_without_headroom():
    with pytest.raises(ValueError, match="phys_regs"):
        contended_config(phys_regs=32)
    assert contended_config(phys_regs=33).phys_regs == 33
