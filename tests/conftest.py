import random

import pytest

from pairing381 import Engine


@pytest.fixture(scope="session")
def engine():
    """Shared bigint-backend engine. Tests read counters via deltas only,
    so sharing is safe; anything that mutates engine state builds its own."""
    return Engine()


@pytest.fixture(scope="session")
def twin_engines():
    """A bigint engine and a words engine at w = 64, shared like engine."""
    return Engine(), Engine(word_size=64, backend="words")


@pytest.fixture
def rng():
    return random.Random(0x5EED)
