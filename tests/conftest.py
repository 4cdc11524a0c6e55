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


@pytest.fixture(scope="session")
def wire_input():
    """draw(data, valid): hypothesis bytes that are either arbitrary (any
    length, or exactly 48, 96 or 192 bytes) or one of the valid encodings in
    `valid` with up to three bits flipped (zero keeps the decoder's
    accepting path in the draw; half the flips hit the flag byte)."""
    from hypothesis import strategies as st

    arbitrary = st.one_of(
        st.binary(max_size=200),
        st.sampled_from((48, 96, 192)).flatmap(
            lambda n: st.binary(min_size=n, max_size=n)))

    def draw(data, valid):
        if not data.draw(st.booleans(), label="flip"):
            return data.draw(arbitrary, label="arbitrary")
        raw = bytearray(data.draw(st.sampled_from(valid), label="valid"))
        bit = st.one_of(st.integers(0, 7), st.integers(0, 8 * len(raw) - 1))
        bits = data.draw(st.lists(bit, max_size=3), label="bits")
        for bit in bits:
            raw[bit // 8] ^= 0x80 >> (bit % 8)
        return bytes(raw)

    return draw


@pytest.fixture(scope="session")
def cofactor_points(engine):
    """A G1 and a G2 point on their curves but outside the order-q subgroup:
    the points with the least x = 1, 2, ... (x = 4), and with the least real
    x on the twist (x = 2)."""
    from pairing381.curve import G1Point, G2Point
    from pairing381.tower import Fp2El, fp2_sqrt, fp_sqrt

    with engine.uncounted():
        x1, x2 = engine.fp(4), Fp2El.of(engine, 2, 0)
        y1 = fp_sqrt(x1.square() * x1 + engine.fp(4))
        y2 = fp2_sqrt(x2.square() * x2 + Fp2El.of(engine, 4, 4))
        return (G1Point(x1, y1, engine.fp(1)),
                G2Point(x2, y2, Fp2El.one(engine)))
