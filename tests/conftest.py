import pathlib

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

import specgames as sg

REPO = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"


def pytest_configure(config):
    # hypothesis caches the constants it finds in the tested source under its
    # home directory (./.hypothesis by default) while collecting; keep that
    # cache beside pytest's own, which is already ignored
    set_hypothesis_home_dir(REPO / ".pytest_cache" / "hypothesis")


@pytest.fixture(scope="session")
def contention():
    return sg.build_contention_game()


@pytest.fixture(scope="session")
def two_channel():
    return sg.two_channel_scenario()


@pytest.fixture(scope="session")
def two_channel_game():
    return sg.build_power_game_2x2()


@pytest.fixture(scope="session")
def scenario_dir():
    return SCENARIOS


def random_instance(rng, bins):
    """A random single-user water-filling instance with occasional dead bins."""
    gain = rng.uniform(0.1, 2.0, size=bins)
    dead = rng.random(bins) < 0.1
    if dead.all():
        dead[0] = False
    gain[dead] = 0.0
    noise = rng.uniform(0.5, 2.0, size=bins)
    budget = float(rng.uniform(1.0, 20.0))
    return gain, noise, budget


def ensemble_channels(entropy, index, grid, taps=4, **kwargs):
    stream = np.random.SeedSequence(entropy=entropy, spawn_key=(index,))
    return sg.generate_multipath_channels(stream, grid, taps, **kwargs)
