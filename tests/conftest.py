import os
import random

import pytest
from hypothesis import settings

# `ci`: the same examples on every run, and no per-example deadline on a slow runner.
settings.register_profile("ci", derandomize=True, deadline=None)
# `deep`: as `ci`, with 2000 examples for the properties that leave their count to the profile
# or take at least its count.
settings.register_profile("deep", derandomize=True, deadline=None, max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    """Fresh deterministic RNG per test."""
    return random.Random(0xD15C)
