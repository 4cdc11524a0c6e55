"""The point constructors, curve membership and point codec of G1, G2 and
Jubjub, pinned as values on bigint and on words at w = 64 and w = 32: the
identity and the affine generator of each group as canonical ints, the
curve equation on projective forms of points on and off each curve, and
the decoding of each encoding of the BLS12-381 generators."""

import hashlib
import json
from functools import partial

import pytest

from pairing381 import Engine, params
from pairing381.curve import G1Point, G2Point, ecsm, multi_exp
from pairing381.encoding import (g1_from_bytes, g1_to_bytes, g2_from_bytes,
                                 g2_to_bytes)
from pairing381.fields import FieldElement
from pairing381.jubjub import JubjubPoint
from pairing381.pairing import pairing
from pairing381.tower import Fp2El

CONFIGS = [("bigint", 64), ("words", 64), ("words", 32)]

# class, its generator's affine ints (x, y), its engine-held generator
GROUPS = {
    "g1": (G1Point, (params.G1_GEN_X, params.G1_GEN_Y),
           lambda e: e.curve.g1_gen),
    "g2": (G2Point, (params.G2_GEN_X, params.G2_GEN_Y),
           lambda e: e.curve.g2_gen),
    "jubjub": (JubjubPoint, (params.JUBJUB_GEN_X, params.JUBJUB_GEN_Y),
               lambda e: e.jubjub.generator),
}

POINTS_SHA256 = {
    "g1": "0c2389b8bb577837d7dc9620a68823e2d11b1b08a366cb397d2da23503690068",
    "g2": "17f5ca13f396ddced17ae9dea2489bb21e3891b8c711f9d6960c567112761420",
    "jubjub": "9f9a128ec6c58f8642df104f2f6fba7537ce8e65b349d361d28c4830240a6b57",
}


def _ints(point) -> list:
    """A point's coordinates x, y, z as canonical ints, an Fp2 one a pair."""
    return [c.to_int() if type(c) is FieldElement else list(c.to_ints())
            for c in (point.x, point.y, point.z)]


def _y_plus_one(cls, e, x, y):
    """The affine point (x, y + 1), off the curve whenever (x, y) is on it."""
    return cls.affine(e, x, (y[0] + 1, y[1]) if type(y) is tuple else y + 1)


def _times3(p):
    """p with every coordinate multiplied by 3, z = 1 giving the 3."""
    three = p.z + p.z + p.z
    return type(p)(p.x * three, p.y * three, p.z * three)


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("backend, w", CONFIGS)
def test_identity_and_affine_are_pinned(backend, w, group):
    """identity(e) and affine(e, x, y) on the generator's ints give the
    pinned canonical ints, and the latter is the engine's generator."""
    e = Engine(word_size=w, backend=backend)
    cls, (x, y), gen = GROUPS[group]
    ident, aff = cls.identity(e), cls.affine(e, x, y)
    blob = json.dumps({"identity": _ints(ident), "affine": _ints(aff)})
    assert hashlib.sha256(blob.encode()).hexdigest() == POINTS_SHA256[group]
    assert ident.is_identity() and type(aff) is cls
    assert aff == gen(e) and _ints(aff) == _ints(gen(e))


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("backend, w", CONFIGS)
def test_curve_equation_on_projective_forms(backend, w, group):
    """on_curve holds for the generator, its negation, its coordinates
    scaled by 3 and the identity, and fails for (x, y + 1) and its scaling."""
    e = Engine(word_size=w, backend=backend)
    cls, (x, y), gen = GROUPS[group]
    g = gen(e)
    for p in (g, -g, _times3(g), _times3(-g), cls.identity(e)):
        assert p.on_curve()
    off = _y_plus_one(cls, e, x, y)
    for p in (off, _times3(off)):
        assert not p.on_curve()


@pytest.mark.parametrize("backend, w", CONFIGS)
def test_generator_encodings_decode_back(backend, w):
    """The compressed and uncompressed encodings of +-G1 and +-G2 decode
    to the same coordinates."""
    e = Engine(word_size=w, backend=backend)
    for g, enc, dec in ((e.curve.g1_gen, g1_to_bytes, g1_from_bytes),
                        (e.curve.g2_gen, g2_to_bytes, g2_from_bytes)):
        for p in (g, -g):
            for compressed in (True, False):
                back = dec(e, enc(p, compressed))
                assert type(back) is type(p) and _ints(back) == _ints(p)


# builds a coordinate of each Weierstrass group from one int
COORDS = {G1Point: lambda e, v: e.fp(v), G2Point: lambda e, v: Fp2El.of(e, v, 0)}


@pytest.mark.parametrize("cls", COORDS)
def test_only_0_y_0_is_a_point_at_infinity(engine, cls):
    """z = 0 forces x = 0 on the projective curve y^2 z = x^3 + b z^3, and
    (0 : 0 : 0) is no point: (5 : 7 : 0) and (0 : 0 : 0) are off the
    curve, and multi_exp, ecsm and pairing reject them before any tally,
    while (0 : 7 : 0) is the identity."""
    c = partial(COORDS[cls], engine)
    assert cls(c(0), c(7), c(0)).on_curve()
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    g = g1 if cls is G1Point else g2
    for bad in (cls(c(5), c(7), c(0)), cls(c(0), c(0), c(0))):
        assert not bad.on_curve()
        before = engine.counter.snapshot()
        for op in (lambda: multi_exp(1, g, 1, bad), lambda: ecsm(1, bad),
                   lambda: pairing(bad, g2) if cls is G1Point
                   else pairing(g1, bad)):
            with pytest.raises(ValueError, match="point not on curve"):
                op()
        assert engine.counter == before
