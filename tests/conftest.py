import os
import random

import pytest
from hypothesis import settings

# `ci`: the same examples on every run, and no per-example deadline on a slow runner.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    """Fresh deterministic RNG per test."""
    return random.Random(0xD15C)
