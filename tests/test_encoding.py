"""Point and target-group serialization: published wire vectors, round
trips, flag handling, and the rejection taxonomy (malformed bytes, off-curve
points, wrong subgroup), also as properties over arbitrary input."""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

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
from pairing381.pairing import final_exp, gt_pow, pairing
from pairing381.params import G1_GEN_X, G1_GEN_Y, G2_GEN_X, G2_GEN_Y, P, Q
from pairing381.protocol import PublicKey, Signature
from pairing381.tower import Fp2El, Fp12El, fp2_sqrt


def _wire(*ints):
    return b"".join(v.to_bytes(48, "big") for v in ints)


# Generator encodings of the common ZCash/zkcrypto BLS12-381 format, also
# given in draft-irtf-cfrg-pairing-friendly-curves, appendix C: compressed,
# uncompressed (Fp2 values c1 first) and the lead bytes of the negation.
GOLDEN = {
    "g1": (g1_to_bytes, g1_from_bytes,
           "97f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac58"
           "6c55e83ff97a1aeffb3af00adb22c6bb",
           _wire(G1_GEN_X, G1_GEN_Y), "b7f1"),
    "g2": (g2_to_bytes, g2_from_bytes,
           "93e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049"
           "334cf11213945d57e5ac7d055d042b7e024aa2b2f08f0a91260805272dc51051"
           "c6e47ad4fa403b02b4510b647ae3d1770bac0326a805bbefd48056c8c121bdb8",
           _wire(G2_GEN_X[1], G2_GEN_X[0], G2_GEN_Y[1], G2_GEN_Y[0]), "b3e0"),
}


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_published_wire_vectors(group, engine):
    to_bytes, from_bytes, compressed_hex, uncompressed, negated_lead = GOLDEN[group]
    gen = getattr(engine.curve, group + "_gen")
    ident = type(gen).identity(engine)
    compressed = bytes.fromhex(compressed_hex)
    negated = bytes([compressed[0] | 0x20]) + compressed[1:]
    assert negated[:2].hex() == negated_lead
    n = len(compressed)
    for pt, comp, raw in ((gen, True, compressed), (gen, False, uncompressed),
                          (-gen, True, negated),
                          (ident, True, b"\xc0" + bytes(n - 1)),
                          (ident, False, b"\x40" + bytes(2 * n - 1))):
        assert to_bytes(pt, comp) == raw
        assert from_bytes(engine, raw) == pt


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


def _rand_fp12(engine, rng):
    return Fp12El.from_coeffs([Fp2El.of(engine, rng.randrange(P),
                                        rng.randrange(P)) for _ in range(6)])


def test_gt_decoder_accepts_exactly_the_order_q_group(engine, rng):
    """Zero, the constant 2 and random Fp12 values raise WrongSubgroup;
    pairing outputs and final exponentiations decode. On every value the
    decoder agrees with f^q == 1."""
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    zero2 = Fp2El.zero(engine)
    outside = [Fp12El.from_coeffs([zero2] * 6),
               Fp12El.from_coeffs([Fp2El.of(engine, 2, 0)] + [zero2] * 5),
               _rand_fp12(engine, rng), _rand_fp12(engine, rng)]
    assert gt_to_bytes(outside[0]) == bytes(576)
    assert gt_to_bytes(outside[1]) == _wire(2) + bytes(528)
    for v in outside:
        with pytest.raises(WrongSubgroup):
            gt_from_bytes(engine, gt_to_bytes(v))
    inside = [pairing(g1, g2),
              pairing(plain_mul(g1, rng.randrange(1, Q)), g2),
              final_exp(_rand_fp12(engine, rng)),
              final_exp(_rand_fp12(engine, rng))]
    for v in inside:
        assert gt_from_bytes(engine, gt_to_bytes(v)) == v
    with engine.uncounted():
        assert not any(gt_pow(v, Q).is_one() for v in outside[1:])
        assert all(gt_pow(v, Q).is_one() for v in inside)


# name: (decoder returning the point, encoder of its group, Fp limbs per coordinate)
DECODERS = {
    "g1_from_bytes": (g1_from_bytes, g1_to_bytes, 1),
    "g2_from_bytes": (g2_from_bytes, g2_to_bytes, 2),
    "Signature.from_bytes":
        (lambda e, raw: Signature.from_bytes(e, raw).point, g1_to_bytes, 1),
    "PublicKey.from_bytes":
        (lambda e, raw: PublicKey.from_bytes(e, raw).point, g2_to_bytes, 2),
}


@pytest.fixture(scope="module")
def valid_encodings(engine):
    """Per limb count: ±generator, another multiple and the identity, both forms."""
    out = {}
    for limbs, gen, to_bytes in ((1, engine.curve.g1_gen, g1_to_bytes),
                                 (2, engine.curve.g2_gen, g2_to_bytes)):
        pts = (gen, -gen, plain_mul(gen, 0x5EED), type(gen).identity(engine))
        out[limbs] = [to_bytes(pt, comp) for pt in pts for comp in (True, False)]
    return out


@pytest.mark.parametrize("name", sorted(DECODERS))
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_decoders_yield_canonical_points_or_encoding_errors(
        name, data, engine, valid_encodings, wire_input):
    decode, encode, limbs = DECODERS[name]
    raw = wire_input(data, valid_encodings[limbs])
    try:
        pt = decode(engine, raw)
    except EncodingError as exc:
        event(type(exc).__name__)
        return
    event("point")
    assert encode(pt, len(raw) == 48 * limbs) == raw
