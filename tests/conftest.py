from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from graft import corpus, geo

# Property tests draw the same examples on every run and keep no example
# database, so results do not depend on an untracked `.hypothesis/` directory.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def small_world():
    """A compact world: ~100 tiles, enough structure for pipeline tests."""
    cfg = corpus.SynthWorldConfig(extent_km=4.0, n_ground=120, noise_sigma=0.1)
    return corpus.synth_world(cfg, seed=7)


@pytest.fixture(scope="session")
def small_dataset(small_world):
    world = small_world
    return corpus.build_pairs(
        world.grounds,
        world.snapshots,
        geo.TileSpec(),
        cap=25,
        min_sep_px=112,
        seed=7,
        fields={"field.json": world.field},
        embeddings=world.ground_encoder,
    )


@pytest.fixture(scope="session")
def world_dir(tmp_path_factory, small_world):
    out = tmp_path_factory.mktemp("world")
    small_world.write(out)
    return out
