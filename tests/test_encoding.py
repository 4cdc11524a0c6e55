"""Point and target-group serialization: round trips, flag handling, and the
rejection taxonomy (malformed bytes, off-curve points, wrong subgroup)."""

import pytest

import pairing381
from pairing381.curve import G1Point, plain_mul, subgroup_check_canonical
from pairing381.encoding import (
    EncodingError,
    MalformedEncoding,
    NotOnCurve,
    WrongSubgroup,
    g1_from_bytes,
    g1_to_bytes,
    g2_from_bytes,
    g2_to_bytes,
    gt_from_bytes,
    gt_to_bytes,
)
from pairing381.pairing import pairing
from pairing381.params import P, Q
from pairing381.tower import Fp2El, fp2_sqrt


@pytest.mark.parametrize("compressed,size", [(True, 48), (False, 96)])
def test_g1_round_trip(compressed, size, engine, rng):
    g = engine.curve.g1_gen
    for _ in range(5):
        pt = plain_mul(g, rng.randrange(1, Q)).to_affine()
        raw = g1_to_bytes(pt, compressed=compressed)
        assert len(raw) == size
        assert g1_from_bytes(engine, raw) == pt


@pytest.mark.parametrize("compressed,size", [(True, 96), (False, 192)])
def test_g2_round_trip(compressed, size, engine, rng):
    g = engine.curve.g2_gen
    for _ in range(5):
        pt = plain_mul(g, rng.randrange(1, Q)).to_affine()
        raw = g2_to_bytes(pt, compressed=compressed)
        assert len(raw) == size
        assert g2_from_bytes(engine, raw) == pt


def test_identity_encodings(engine):
    ident1 = G1Point.identity(engine)
    raw = g1_to_bytes(ident1)
    assert raw[0] == 0xC0 and all(b == 0 for b in raw[1:])
    assert g1_from_bytes(engine, raw).is_identity()
    raw = g1_to_bytes(ident1, compressed=False)
    assert raw[0] == 0x40
    assert g1_from_bytes(engine, raw).is_identity()
    ident2 = type(engine.curve.g2_gen).identity(engine)
    assert g2_from_bytes(engine, g2_to_bytes(ident2)).is_identity()


def test_sign_bit_distinguishes_negation(engine):
    g = engine.curve.g1_gen
    a = g1_to_bytes(g)
    b = g1_to_bytes(-g)
    assert a != b and a[1:] == b[1:]
    assert (a[0] ^ b[0]) == 0x20
    assert g1_from_bytes(engine, b) == -g


def test_malformed_lengths_rejected(engine):
    for n in (0, 1, 47, 49, 95, 97, 191):
        with pytest.raises(MalformedEncoding):
            g1_from_bytes(engine, b"\x80" * n if n else b"")
        with pytest.raises(MalformedEncoding):
            g2_from_bytes(engine, b"\x80" * n if n else b"")


def test_flag_inconsistencies_rejected(engine):
    g = engine.curve.g1_gen
    comp = bytearray(g1_to_bytes(g))
    comp[0] &= ~0x80 & 0xFF            # compressed length, flag cleared
    with pytest.raises(MalformedEncoding):
        g1_from_bytes(engine, bytes(comp))
    uncomp = bytearray(g1_to_bytes(g, compressed=False))
    uncomp[0] |= 0x20                  # sign flag is meaningless here
    with pytest.raises(MalformedEncoding):
        g1_from_bytes(engine, bytes(uncomp))
    inf = bytearray(g1_to_bytes(G1Point.identity(engine)))
    inf[-1] = 1                        # infinity must be otherwise zero
    with pytest.raises(MalformedEncoding):
        g1_from_bytes(engine, bytes(inf))


def test_field_element_out_of_range_rejected(engine):
    raw = bytearray(48)
    raw[0] = 0x9F                      # compressed flag + x >= p
    raw[1:] = b"\xff" * 47
    with pytest.raises(MalformedEncoding):
        g1_from_bytes(engine, bytes(raw))


def test_x_without_square_rhs_rejected(engine):
    x = 0
    while pow((x * x * x + 4) % P, (P - 1) // 2, P) == 1:
        x += 1
    raw = bytearray(x.to_bytes(48, "big"))
    raw[0] |= 0x80
    with pytest.raises(NotOnCurve):
        g1_from_bytes(engine, bytes(raw))


def test_point_off_curve_rejected(engine):
    # uncompressed (x, y) that satisfies nothing
    raw = (5).to_bytes(48, "big") + (7).to_bytes(48, "big")
    with pytest.raises(NotOnCurve):
        g1_from_bytes(engine, raw)


def _g1_point_outside_subgroup(engine):
    x = 1
    while True:
        rhs = (x * x * x + 4) % P
        y = pow(rhs, (P + 1) // 4, P)
        if y * y % P == rhs:
            pt = G1Point.affine(engine, x, y)
            if not subgroup_check_canonical(pt):
                return pt
        x += 1


def test_wrong_subgroup_rejected(engine):
    pt = _g1_point_outside_subgroup(engine)
    raw = (pt.x.to_int().to_bytes(48, "big")
           + pt.y.to_int().to_bytes(48, "big"))
    with pytest.raises(WrongSubgroup):
        g1_from_bytes(engine, raw)

    # same on the twist: pick an x whose rhs is a square, take the root
    cx = 1
    while True:
        xf = Fp2El.of(engine, cx, 1)
        rhs = xf.square() * xf + Fp2El.of(engine, 4, 4)
        root = fp2_sqrt(rhs)
        if root is not None:
            break
        cx += 1
    c0, c1 = xf.to_ints()
    y0, y1 = root.to_ints()
    raw = (c1.to_bytes(48, "big") + c0.to_bytes(48, "big")
           + y1.to_bytes(48, "big") + y0.to_bytes(48, "big"))
    with pytest.raises(WrongSubgroup):
        g2_from_bytes(engine, raw)


def test_error_types_are_value_errors(engine):
    assert issubclass(MalformedEncoding, EncodingError)
    assert issubclass(NotOnCurve, EncodingError)
    assert issubclass(WrongSubgroup, EncodingError)
    assert issubclass(EncodingError, ValueError)


def test_gt_round_trip(engine):
    v = pairing(engine.curve.g1_gen, engine.curve.g2_gen)
    raw = gt_to_bytes(v)
    assert len(raw) == 576
    assert gt_from_bytes(engine, raw) == v
    with pytest.raises(MalformedEncoding):
        gt_from_bytes(engine, raw[:-1])


def test_gt_coefficient_out_of_range_rejected(engine):
    raw = bytearray(gt_to_bytes(
        pairing(engine.curve.g1_gen, engine.curve.g2_gen)))
    assert "gt_from_bytes" in pairing381.__all__
    for i in (0, 11):                  # first and last Fp coefficient
        bad = bytearray(raw)
        bad[48 * i:48 * (i + 1)] = P.to_bytes(48, "big")
        with pytest.raises(MalformedEncoding):
            gt_from_bytes(engine, bytes(bad))
