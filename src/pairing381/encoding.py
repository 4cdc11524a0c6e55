"""Point and Gt serialization.

One codec serves both groups: `_point_to_bytes` and `_point_from_bytes` hold
the whole point wire format, and a group descriptor (`_G1`, `_G2`) supplies
only what differs, the coordinate field. Coordinates are written as 48-byte
big-endian Fp limbs, an Fp2 value c1 first. Compressed points carry three
flag bits in the most significant byte: 0x80 compression, 0x40 infinity,
0x20 sign (set when y, as a tuple of wire-order limbs, is lexicographically
larger than -y). Deserialization validates field-element range, flag
consistency, curve membership and subgroup membership, raising a distinct
error for each failure kind; all of that work is uncounted boundary
validation.
"""

from typing import Callable, NamedTuple

from .curve import G1Point, G2Point, g1_subgroup_check, g2_subgroup_check
from .pairing import _exp_u
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


class _Group(NamedTuple):
    limbs: int                    # Fp limbs per coordinate
    to_wire: Callable             # coordinate -> wire-order ints
    from_wire: Callable           # (engine, wire-order ints) -> coordinate
    sqrt: Callable


_G1 = _Group(1, lambda v: (v.to_int(),), lambda e, w: e.fp(w[0]), fp_sqrt)
_G2 = _Group(2, lambda v: v.to_ints()[::-1],
             lambda e, w: Fp2El.of(e, w[1], w[0]), fp2_sqrt)


def _is_larger(ints: tuple) -> bool:
    return ints > tuple((P - v) % P for v in ints)


def _int_be(b: bytes) -> int:
    v = int.from_bytes(b, "big")
    if v >= P:
        raise MalformedEncoding("field element out of range")
    return v


def _point_to_bytes(point, group: _Group, compressed: bool) -> bytes:
    size = (48 if compressed else 96) * group.limbs
    with point.engine.uncounted():
        if point.is_identity():
            flags = FLAG_INFINITY | (FLAG_COMPRESSED if compressed else 0)
            return bytes([flags]) + bytes(size - 1)
        aff = point.normalized()
        x, y = group.to_wire(aff.x), group.to_wire(aff.y)
        out = bytearray(b"".join(v.to_bytes(48, "big")
                                 for v in (x if compressed else x + y)))
        if compressed:
            out[0] |= FLAG_COMPRESSED | (FLAG_SIGN if _is_larger(y) else 0)
        return bytes(out)


def _point_from_bytes(cls, group: _Group, engine, data: bytes):
    n = group.limbs
    if len(data) not in (48 * n, 96 * n):
        raise MalformedEncoding(f"encoding must be {48 * n} or {96 * n} bytes")
    flags = data[0] & 0xE0
    body = bytes([data[0] & 0x1F]) + data[1:]
    compressed = bool(flags & FLAG_COMPRESSED)
    if compressed != (len(data) == 48 * n):
        raise MalformedEncoding("compression flag disagrees with length")
    with engine.uncounted():
        if flags & FLAG_INFINITY:
            if (flags & FLAG_SIGN) or any(body):
                raise MalformedEncoding("infinity encoding must be otherwise zero")
            return cls.identity(engine)
        if not compressed and flags & FLAG_SIGN:
            raise MalformedEncoding("sign flag set on uncompressed encoding")
        ints = tuple(_int_be(body[i:i + 48]) for i in range(0, len(body), 48))
        one = cls._coord_one(engine)
        x = group.from_wire(engine, ints[:n])
        if compressed:
            y = group.sqrt(x * x.square() + cls._coord(engine, cls._B))
            if y is None:
                raise NotOnCurve("x has no matching y")
            if bool(flags & FLAG_SIGN) != _is_larger(group.to_wire(y)):
                y = -y
            pt = cls(x, y, one)
        else:
            pt = cls(x, group.from_wire(engine, ints[n:]), one)
            if not pt.on_curve():
                raise NotOnCurve("point not on curve")
        # read from this module's globals at call time, so a patched
        # attribute (a tracing wrapper) takes effect
        if not (g1_subgroup_check if n == 1 else g2_subgroup_check)(pt):
            raise WrongSubgroup("point not in the order-q subgroup")
        return pt


def g1_to_bytes(point: G1Point, compressed: bool = True) -> bytes:
    return _point_to_bytes(point, _G1, compressed)


def g1_from_bytes(engine, data: bytes) -> G1Point:
    return _point_from_bytes(G1Point, _G1, engine, data)


def g2_to_bytes(point: G2Point, compressed: bool = True) -> bytes:
    return _point_to_bytes(point, _G2, compressed)


def g2_from_bytes(engine, data: bytes) -> G2Point:
    return _point_from_bytes(G2Point, _G2, engine, data)


def gt_to_bytes(value: Fp12El) -> bytes:
    """Twelve 48-byte Fp encodings, c0.c0.c0 first (tower coefficient order)."""
    return b"".join(fp.to_bytes() for six in (value.c0, value.c1)
                    for two in (six.c0, six.c1, six.c2) for fp in (two.c0, two.c1))


def gt_from_bytes(engine, data: bytes) -> Fp12El:
    """Decode a Gt value; anything outside the order-q target group raises
    WrongSubgroup. The membership test is uncounted boundary work."""
    if len(data) != 576:
        raise MalformedEncoding("Gt encoding must be 576 bytes")
    ints = [_int_be(data[48 * i:48 * (i + 1)]) for i in range(12)]
    with engine.uncounted():
        twos = [Fp2El.of(engine, ints[2 * i], ints[2 * i + 1]) for i in range(6)]
        g = Fp12El(Fp6El(*twos[:3]), Fp6El(*twos[3:]))
        if not (any(ints) and _in_gt(g)):
            raise WrongSubgroup("value not in the order-q target group")
        return g


def _in_gt(g: Fp12El) -> bool:
    """Scott's test (ePrint 2021/1130) for nonzero g: g^(p^4) g == g^(p^2)
    puts g in the cyclotomic subgroup, and there g is in Gt iff g^p == g^u,
    with g^u = conj(g^|u|) as u < 0, computed by final_exp's cyclotomic
    chain, valid only once the first identity holds. Zero passes both."""
    tw = g.engine.tower
    g2 = tw.frobenius(g, 2)
    return (tw.frobenius(g2, 2) * g == g2 and tw.frobenius(g, 1)
            == g._wrap(g.o, _exp_u(g.o, g.val)).conjugate())
