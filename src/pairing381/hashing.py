"""Hashing: SHA-256 utilities, a hash-counter CSPRNG, and hash-to-G1.

hash_to_g1 is expand-message-xmd over SHA-256, two field elements, a
simplified-SWU map onto an 11-isogenous curve, the isogeny back to the main
curve, and cofactor clearing by the 64-bit effective cofactor. Messages are
public, so none of this path needs to be constant-time; it still runs under
the operation counters because its multiplication count is a reported figure.

The square-root-of-ratio trick keeps the map at one exponentiation per field
element: with s = U * V^3, y = U*V * s^((p-3)/4) satisfies y^2 = U/V exactly
when s is a square; otherwise y^2 = -U/V, and multiplying by a precomputed
sqrt(-Z) converts that into the second SSWU candidate. That exponentiation
is one counted step, tower.pow_p34, charged as its chain's 378 squarings and
227 multiplies.
"""

import hashlib

from . import _iso_g1 as iso
from . import params
from .curve import G1Point, plain_mul
from .fields import FieldElement
from .tower import pow_p34


def sha256(msg: bytes) -> bytes:
    return hashlib.sha256(msg).digest()


class CsprngState:
    """SHA-256(seed || counter) stream with rejection sampling.

    Identical (seed, counter) always reproduces the stream; the counter
    advances once per block. The rejection loop is bounded in expectation
    only, which is fine for benchmarking randomness.
    """

    def __init__(self, seed: bytes):
        if len(seed) != 32:
            raise ValueError("seed must be 32 bytes")
        self.seed = seed
        self.counter = 0

    def _block(self) -> bytes:
        out = sha256(self.seed + self.counter.to_bytes(8, "big"))
        self.counter += 1
        return out

    def bytes(self, n: int) -> bytes:
        out = b""
        while len(out) < n:
            out += self._block()
        return out[:n]

    def below(self, bound: int) -> int:
        if bound < 1:
            raise ValueError("empty range: bound must be at least 1")
        nbits = bound.bit_length()
        nbytes = (nbits + 7) // 8
        shift = 8 * nbytes - nbits
        while True:
            v = int.from_bytes(self.bytes(nbytes), "big") >> shift
            if v < bound:
                return v

    def nonzero_below(self, bound: int) -> int:
        if bound < 2:
            raise ValueError("empty range: bound must be at least 2")
        while True:
            v = self.below(bound)
            if v:
                return v


def expand_message_xmd(msg: bytes, dst: bytes, length: int) -> bytes:
    """Expand msg to `length` bytes, domain-separated by dst (SHA-256 core)."""
    if len(dst) > 255:
        raise ValueError("domain separation tag longer than 255 bytes")
    ell = (length + 31) // 32
    if ell > 255 or length > 65535:
        raise ValueError("requested expansion too long")
    dst_prime = dst + bytes([len(dst)])
    b0 = sha256(b"\x00" * 64 + msg + length.to_bytes(2, "big") + b"\x00" + dst_prime)
    bi = sha256(b0 + b"\x01" + dst_prime)
    out = bi
    for i in range(2, ell + 1):
        bi = sha256(bytes(a ^ b for a, b in zip(b0, bi)) + bytes([i]) + dst_prime)
        out += bi
    return out[:length]


def hash_to_field(msg: bytes, dst: bytes):
    """Two integers modulo p with 128 bits of oversampling each."""
    raw = expand_message_xmd(msg, dst, 128)
    return [int.from_bytes(raw[i:i + 64], "big") % params.P for i in (0, 64)]


def _sgn0(v: FieldElement) -> int:
    return v.to_int() & 1


def _sswu(engine, u: FieldElement):
    """Simplified SWU onto y^2 = x^3 + A1 x + B1; returns affine (x, y).
    The square root of gn/gd is one fixed chain, s^((p-3)/4) (pow_p34), one
    tally with the stepwise chain's record."""
    e = engine
    A = e.fp(iso.A1)
    B = e.fp(iso.B1)
    Z = e.fp(iso.SSWU_Z)
    u2 = u.square()
    zu2 = Z * u2
    t = zu2.square() + zu2                 # Z^2 u^4 + Z u^2
    if t.is_zero():
        # u = 0 (RFC 9380 6.6.2): x1 = B / (Z A), where Z makes g(x1) square
        n1, d1 = B, Z * A
    else:
        n1 = -B * (t + e.fp(1))            # numerator of x1
        d1 = A * t                         # denominator
    d2 = d1.square()
    gn = (n1.square() + A * d2) * n1 + B * d2 * d1   # numerator of g(x1)
    gd = d2 * d1                                     # denominator (d1^3)
    # one-exponentiation square root of gn/gd
    w = gn * gd
    s = w * gd.square()
    y = w * pow_p34(s)
    if (y.square() * gd) == gn:
        x = n1 * d1.inverse()
    else:
        # g(x1) is non-square: move to x2 = Z u^2 x1, y2 = Z u^3 sqrt(-Z) y
        x = zu2 * n1 * d1.inverse()
        y = zu2 * u * e.fp(_SQRT_NEG_Z) * y
    if _sgn0(u) != _sgn0(y):
        y = -y
    return x, y


def _iso_eval(engine, x: FieldElement, y: FieldElement) -> G1Point:
    """Evaluate the 11-isogeny at an affine point of the domain curve."""
    e = engine

    def horner(coeffs):
        acc = e.fp(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc = acc * x + e.fp(c)
        return acc

    xn = horner(iso.X_NUM)
    xd = horner(iso.X_DEN)
    yn = horner(iso.Y_NUM)
    yd = horner(iso.Y_DEN)
    den = xd * yd
    if den.is_zero():
        # the input sits on the kernel; its image is the identity
        return G1Point.identity(e)
    inv = den.inverse()
    xo = xn * inv * yd
    yo = y * yn * inv * xd
    return G1Point(xo, yo, e.fp(1))


def hash_to_g1(engine, msg: bytes, dst: bytes) -> G1Point:
    """Deterministic map from a message into the order-q subgroup of G1."""
    u0, u1 = hash_to_field(msg, dst)
    p0 = _iso_eval(engine, *_sswu(engine, engine.fp(u0)))
    p1 = _iso_eval(engine, *_sswu(engine, engine.fp(u1)))
    # the mixed addition needs an affine p1; the isogeny's kernel maps to the
    # identity, and messages are public, so this branch may depend on them
    s = p0 if p1.is_identity() else p0.add_mixed(p1)
    return plain_mul(s, params.H_EFF_G1).to_affine()


# sqrt(-Z) for the non-square SSWU branch, fixed at import
_SQRT_NEG_Z = pow((-iso.SSWU_Z) % params.P, (params.P + 1) // 4, params.P)
if _SQRT_NEG_Z * _SQRT_NEG_Z % params.P != (-iso.SSWU_Z) % params.P:
    raise ImportError("SSWU constant is not usable: -Z must be a square")
