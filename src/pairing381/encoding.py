"""Point and Gt serialization.

Compressed points carry three flag bits in the most significant byte:
0x80 compression, 0x40 infinity, 0x20 sign (set when y is the
lexicographically larger of the two square roots). G2 field elements are
written c1 first, and the sign of an Fp2 value compares (c1, c0) as a tuple
of canonical integers. Deserialization validates field-element range,
flag consistency, curve membership and subgroup membership, raising a
distinct error for each failure kind; all of that work is uncounted
boundary validation.
"""

from .curve import G1Point, G2Point, g1_subgroup_check, g2_subgroup_check
from .params import P
from .tower import Fp2El, Fp6El, Fp12El, fp2_sqrt, fp_sqrt

FLAG_COMPRESSED = 0x80
FLAG_INFINITY = 0x40
FLAG_SIGN = 0x20


class EncodingError(ValueError):
    pass


class MalformedEncoding(EncodingError):
    pass


class NotOnCurve(EncodingError):
    pass


class WrongSubgroup(EncodingError):
    pass


def _fp_is_larger(y: int) -> bool:
    return y > P - y


def _fp2_is_larger(c0: int, c1: int) -> bool:
    neg = ((P - c1) % P, (P - c0) % P)
    return (c1, c0) > neg


def _split_flags(data: bytes):
    flags = data[0] & 0xE0
    body = bytes([data[0] & 0x1F]) + data[1:]
    return flags, body


def _int_be(b: bytes) -> int:
    v = int.from_bytes(b, "big")
    if v >= P:
        raise MalformedEncoding("field element out of range")
    return v


def g1_to_bytes(point: G1Point, compressed: bool = True) -> bytes:
    with point.engine.uncounted():
        if point.is_identity():
            if compressed:
                return bytes([FLAG_COMPRESSED | FLAG_INFINITY]) + b"\x00" * 47
            return bytes([FLAG_INFINITY]) + b"\x00" * 95
        aff = point.normalized()
        x, y = aff.x.to_int(), aff.y.to_int()
        if compressed:
            out = bytearray(x.to_bytes(48, "big"))
            out[0] |= FLAG_COMPRESSED
            if _fp_is_larger(y):
                out[0] |= FLAG_SIGN
            return bytes(out)
        return x.to_bytes(48, "big") + y.to_bytes(48, "big")


def g1_from_bytes(engine, data: bytes) -> G1Point:
    if len(data) not in (48, 96):
        raise MalformedEncoding("G1 encoding must be 48 or 96 bytes")
    flags, body = _split_flags(data)
    compressed = bool(flags & FLAG_COMPRESSED)
    if compressed != (len(data) == 48):
        raise MalformedEncoding("compression flag disagrees with length")
    with engine.uncounted():
        if flags & FLAG_INFINITY:
            if (flags & FLAG_SIGN) or any(body):
                raise MalformedEncoding("infinity encoding must be otherwise zero")
            return G1Point.identity(engine)
        if compressed:
            x = _int_be(body)
            xe = engine.fp(x)
            y = fp_sqrt(xe * xe.square() + engine.fp(4))
            if y is None:
                raise NotOnCurve("x has no matching y")
            yi = y.to_int()
            if bool(flags & FLAG_SIGN) != _fp_is_larger(yi):
                yi = P - yi
            pt = G1Point.affine(engine, x, yi)
        else:
            if flags & FLAG_SIGN:
                raise MalformedEncoding("sign flag set on uncompressed encoding")
            x = _int_be(body[:48])
            y = _int_be(body[48:])
            pt = G1Point.affine(engine, x, y)
            if not pt.on_curve():
                raise NotOnCurve("point not on curve")
        if not g1_subgroup_check(pt):
            raise WrongSubgroup("point not in the order-q subgroup")
        return pt


def _fp2_bytes(v: Fp2El) -> bytes:
    c0, c1 = v.to_ints()
    return c1.to_bytes(48, "big") + c0.to_bytes(48, "big")


def g2_to_bytes(point: G2Point, compressed: bool = True) -> bytes:
    with point.engine.uncounted():
        if point.is_identity():
            if compressed:
                return bytes([FLAG_COMPRESSED | FLAG_INFINITY]) + b"\x00" * 95
            return bytes([FLAG_INFINITY]) + b"\x00" * 191
        aff = point.normalized()
        if compressed:
            out = bytearray(_fp2_bytes(aff.x))
            out[0] |= FLAG_COMPRESSED
            c0, c1 = aff.y.to_ints()
            if _fp2_is_larger(c0, c1):
                out[0] |= FLAG_SIGN
            return bytes(out)
        return _fp2_bytes(aff.x) + _fp2_bytes(aff.y)


def g2_from_bytes(engine, data: bytes) -> G2Point:
    if len(data) not in (96, 192):
        raise MalformedEncoding("G2 encoding must be 96 or 192 bytes")
    flags, body = _split_flags(data)
    compressed = bool(flags & FLAG_COMPRESSED)
    if compressed != (len(data) == 96):
        raise MalformedEncoding("compression flag disagrees with length")
    with engine.uncounted():
        if flags & FLAG_INFINITY:
            if (flags & FLAG_SIGN) or any(body):
                raise MalformedEncoding("infinity encoding must be otherwise zero")
            return G2Point.identity(engine)
        if compressed:
            xc1, xc0 = _int_be(body[:48]), _int_be(body[48:])
            x = Fp2El.of(engine, xc0, xc1)
            y = fp2_sqrt(x * x.square() + Fp2El.of(engine, 4, 4))
            if y is None:
                raise NotOnCurve("x has no matching y")
            yc0, yc1 = y.to_ints()
            if bool(flags & FLAG_SIGN) != _fp2_is_larger(yc0, yc1):
                yc0, yc1 = (P - yc0) % P, (P - yc1) % P
            pt = G2Point.affine(engine, (x.to_ints()), (yc0, yc1))
        else:
            if flags & FLAG_SIGN:
                raise MalformedEncoding("sign flag set on uncompressed encoding")
            xc1, xc0 = _int_be(body[:48]), _int_be(body[48:96])
            yc1, yc0 = _int_be(body[96:144]), _int_be(body[144:])
            pt = G2Point.affine(engine, (xc0, xc1), (yc0, yc1))
            if not pt.on_curve():
                raise NotOnCurve("point not on twist")
        if not g2_subgroup_check(pt):
            raise WrongSubgroup("point not in the order-q subgroup")
        return pt


def gt_to_bytes(value: Fp12El) -> bytes:
    return value.to_bytes()


def gt_from_bytes(engine, data: bytes) -> Fp12El:
    if len(data) != 576:
        raise MalformedEncoding("Gt encoding must be 576 bytes")
    with engine.uncounted():
        vals = []
        for i in range(12):
            vals.append(engine.fp(_int_be(data[48 * i:48 * (i + 1)])))
        twos = [Fp2El(vals[2 * i], vals[2 * i + 1]) for i in range(6)]
        return Fp12El(Fp6El(twos[0], twos[1], twos[2]),
                      Fp6El(twos[3], twos[4], twos[5]))
