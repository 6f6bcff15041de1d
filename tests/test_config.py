from __future__ import annotations

import pytest

from graft.cli import main
from graft.config import ConfigError, RunConfig


def test_defaults_match_module_defaults():
    cfg = RunConfig()
    assert cfg.loss_tau == 0.07
    assert cfg.train_weight_decay == 1e-2
    assert cfg.train_epochs == 10
    assert cfg.pair_cap == 25
    assert cfg.pair_min_sep_px == 112
    assert cfg.tile_size_px == 224
    assert cfg.tile_patch_px == 16
    assert len(cfg.prompt_set().templates) == 3


def test_from_file_and_types(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "seed = 9\n"
        "world.classes = 5   # trailing comment\n"
        "loss.tau=0.2\n"
        "train.peak_lr = 5e-4\n"
        "loss.variant = l2\n"
    )
    cfg = RunConfig.from_file(path)
    assert cfg.seed == 9
    assert cfg.world_classes == 5
    assert cfg.loss_tau == 0.2
    assert cfg.train_peak_lr == 5e-4
    assert cfg.loss_variant == "l2"


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("world.clases = 5\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig.from_file(path)


def test_bad_value_type(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = not_an_int\n")
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.from_file(path)


def test_malformed_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="key = value"):
        RunConfig.from_file(path)


def test_overrides_win():
    cfg = RunConfig()
    cfg.apply_overrides(["train.epochs=3", "loss.variant=pixel_default"])
    assert cfg.train_epochs == 3
    assert cfg.loss_variant == "pixel_default"
    with pytest.raises(ConfigError):
        cfg.apply_overrides(["no_equals_sign"])
    with pytest.raises(ConfigError):
        cfg.apply_overrides(["bogus.key=1"])


def test_snapshot_roundtrip(tmp_path):
    cfg = RunConfig()
    cfg.seed = 17
    cfg.world_noise_sigma = 0.5
    text = cfg.to_text()
    path = tmp_path / "resolved.cfg"
    path.write_text(text)
    reparsed = RunConfig.from_file(path)
    assert reparsed == cfg
    assert reparsed.to_text() == text


def test_config_views():
    cfg = RunConfig()
    assert cfg.world_config().n_classes == cfg.world_classes
    assert cfg.tile_spec().grid_px == 14
    assert cfg.loss_config().tau == cfg.loss_tau
    sched = cfg.schedule()
    assert sched.epochs == cfg.train_epochs
    assert sched.weight_decay == cfg.train_weight_decay


def test_bad_prompts_rejected():
    cfg = RunConfig()
    cfg.prompts = "no slot"
    with pytest.raises(ConfigError):
        cfg.prompt_set()


@pytest.mark.parametrize("flags", [["--set", "seed=-1"], ["--seed", "-1"]])
def test_negative_seed_exits_2(tmp_path, capsys, flags):
    assert main(["synth", "--out", str(tmp_path / "w"), *flags]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "'seed': '-1' is out of range, must be >= 0" in err
    assert not (tmp_path / "w").exists()
    with pytest.raises(ConfigError, match="seed"):
        RunConfig().apply_overrides(["seed=-1"])
