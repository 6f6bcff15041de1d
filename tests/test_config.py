from __future__ import annotations

import pytest

from graft.cli import main
from graft.config import ConfigError, RunConfig


def test_defaults_match_module_defaults():
    cfg = RunConfig()
    assert cfg["loss.tau"] == 0.07
    assert cfg["train.weight_decay"] == 1e-2
    assert cfg["train.epochs"] == 10
    assert cfg["pair.cap"] == 25
    assert cfg["pair.min_sep_px"] == 112
    assert cfg["tile.size_px"] == 224
    assert cfg["tile.patch_px"] == 16
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
    assert cfg["seed"] == 9
    assert cfg["world.classes"] == 5
    assert cfg["loss.tau"] == 0.2
    assert cfg["train.peak_lr"] == 5e-4
    assert cfg["loss.variant"] == "l2"


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
    assert cfg["train.epochs"] == 3
    assert cfg["loss.variant"] == "pixel_default"
    with pytest.raises(ConfigError):
        cfg.apply_overrides(["no_equals_sign"])
    with pytest.raises(ConfigError):
        cfg.apply_overrides(["bogus.key=1"])


def test_snapshot_roundtrip(tmp_path):
    cfg = RunConfig()
    cfg.set_key("seed", "17")
    cfg.set_key("world.noise_sigma", "0.5")
    text = cfg.to_text()
    path = tmp_path / "resolved.cfg"
    path.write_text(text)
    reparsed = RunConfig.from_file(path)
    assert reparsed == cfg
    assert reparsed.to_text() == text


def test_config_views():
    cfg = RunConfig()
    assert cfg.world_config().n_classes == cfg["world.classes"]
    assert cfg.tile_spec().grid_px == 14
    assert cfg.loss_config().tau == cfg["loss.tau"]
    sched = cfg.schedule()
    assert sched.epochs == cfg["train.epochs"]
    assert sched.weight_decay == cfg["train.weight_decay"]


def test_bad_prompts_rejected():
    cfg = RunConfig()
    cfg.set_key("prompts", "no slot")
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


def test_keys_checked_together_may_be_set_one_at_a_time():
    # each first override alone is out of range; the checks run after the last
    cfg = RunConfig()
    cfg.apply_overrides(["tile.patch_px=10", "world.embed_dim=4"])
    with pytest.raises(ConfigError, match="world: embed_dim and feature_dim"):
        cfg.check()
    cfg.apply_overrides(["world.classes=4", "world.feature_dim=4"])
    with pytest.raises(ConfigError, match="tile: size_px 224 not divisible by patch_px 10"):
        cfg.check()
    cfg.apply_overrides(["tile.size_px=120"])
    cfg.check()
