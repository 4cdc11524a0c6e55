"""Message expansion, the counter-mode hash CSPRNG, and hash-to-G1."""

import pytest

from pairing381 import _iso_g1 as iso
from pairing381 import hashing
from pairing381.curve import G1Point, plain_mul, subgroup_check_canonical
from pairing381.hashing import (
    CsprngState,
    _sswu,
    expand_message_xmd,
    hash_to_field,
    hash_to_g1,
    sha256,
)
from pairing381.params import H_EFF_G1, P


def test_sha256_known_answers():
    assert sha256(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    assert sha256(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def test_expand_message_properties():
    out = expand_message_xmd(b"msg", b"DST", 96)
    assert len(out) == 96
    assert out == expand_message_xmd(b"msg", b"DST", 96)
    assert out[:32] != expand_message_xmd(b"msg", b"DST2", 96)[:32]
    # the requested length is hashed into the seed block, so different
    # lengths give unrelated streams rather than prefixes
    assert expand_message_xmd(b"msg", b"DST", 32) != out[:0x20]
    with pytest.raises(ValueError):
        expand_message_xmd(b"m", b"d" * 256, 32)
    with pytest.raises(ValueError):
        expand_message_xmd(b"m", b"d", 70000)


def test_csprng_determinism_and_bounds():
    a = CsprngState(b"\x07" * 32)
    b = CsprngState(b"\x07" * 32)
    assert a.bytes(100) == b.bytes(100)
    assert a.counter == b.counter > 0
    for _ in range(50):
        v = a.below(1000)
        assert 0 <= v < 1000
    assert a.nonzero_below(2) == 1
    with pytest.raises(ValueError):
        CsprngState(b"short")
    # an empty range has nothing to draw: raise instead of looping forever
    for draw, bound in ((a.below, 0), (a.below, -3), (a.nonzero_below, 1),
                        (a.nonzero_below, 0)):
        with pytest.raises(ValueError):
            draw(bound)


def test_hash_to_field_range():
    for i in range(10):
        for v in hash_to_field(bytes([i]), b"dst"):
            assert 0 <= v < P


def test_hash_to_g1_properties(engine):
    dst = b"hash-check-dst"
    seen = set()
    for i in range(20):
        msg = b"message %d" % i
        pt = hash_to_g1(engine, msg, dst)
        again = hash_to_g1(engine, msg, dst)
        assert pt == again
        assert pt.on_curve()
        assert not pt.is_identity()
        assert subgroup_check_canonical(pt)
        seen.add((pt.x.to_int(), pt.y.to_int()))
    assert len(seen) == 20


def test_hash_to_g1_domain_separation(engine):
    a = hash_to_g1(engine, b"same message", b"app-one")
    b = hash_to_g1(engine, b"same message", b"app-two")
    assert a != b


def test_hash_to_g1_cost_is_stable(engine):
    dst = b"cost-dst"
    before = engine.counter.snapshot()
    hash_to_g1(engine, b"cost probe", dst)
    d = engine.counter.delta(before)
    assert d.i1 <= 5
    assert 900 <= d.m1 + d.s1 <= 2200   # reported against the 1,897 anchor


def test_sswu_zero_input_lands_on_the_domain_curve(engine):
    # u = 0 takes the exceptional branch, x = B / (Z A), with its own root
    x, y = _sswu(engine, engine.fp(0))
    a, b = engine.fp(iso.A1), engine.fp(iso.B1)
    assert y.square() == (x.square() + a) * x + b


def test_hash_to_g1_when_the_isogeny_yields_the_identity(engine, monkeypatch):
    """An SSWU output on the isogeny's kernel maps to the identity, which
    the mixed addition cannot take as its affine operand; the hash is then
    the cofactor-cleared image of the other field element."""
    images = []

    def second_on_kernel(e, x, y):
        images.append(iso_eval(e, x, y))
        return images[-1] if len(images) == 1 else G1Point.identity(e)

    iso_eval = hashing._iso_eval
    monkeypatch.setattr(hashing, "_iso_eval", second_on_kernel)
    pt = hash_to_g1(engine, b"kernel probe", b"kernel-dst")
    assert pt.on_curve() and subgroup_check_canonical(pt)
    assert pt == plain_mul(images[0], H_EFF_G1)
