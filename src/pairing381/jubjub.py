"""Jubjub: the twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2 over Fq.

a = -1 is a square mod q and d is not, so the single unified addition formula
is complete: identity, doublings and inverses all go through the same code
path. Projective coordinates (X : Y : Z) with identity (0 : 1 : 1).

Cost layout per ECSM iteration: doubling 3M + 4S, unified addition 11M + 1S,
both over Fq. The 252-bit fixed loop plus the final affine conversion gives
252*19 + 2 = 4,790 Fq mul/sqr operations and one Fq inversion. Doubling and
addition are raw kernels, as in curve.py; the addition reads the curve
constant d as o.jubjub_d, a named constant of Fq.
"""

from .curve import ProjectivePoint, _entry_check, ladder, plain_mul
from .fields import CONSTANTS, X1, _Context, _method, kernel
from .params import JUBJUB_COFACTOR, JUBJUB_D, JUBJUB_ELL, Q


_PT = (X1, X1, X1)           # placeholder shape of a raw point
CONSTANTS["fq", "jubjub_d"] = JUBJUB_D


@kernel("jubjub_double", _PT, out=_PT)
def _double(o, p):
    mul, sqr, add, sub = o.mul, o.sqr, o.add, o.sub
    X, Y, Z = p
    b = sqr(add(X, Y))
    c = sqr(X)
    d = sqr(Y)
    e = o.neg(c)               # a = -1
    f = add(e, d)
    h = sqr(Z)
    j = sub(f, add(h, h))
    return mul(sub(sub(b, c), d), j), mul(f, sub(e, d)), mul(f, j)


@kernel("jubjub_add", _PT, _PT, out=_PT)
def _add(o, p, q):
    """Unified projective addition, complete for this curve."""
    mul, add, sub, d = o.mul, o.add, o.sub, o.jubjub_d
    (X1, Y1, Z1), (X2, Y2, Z2) = p, q
    a = mul(Z1, Z2)
    b = o.sqr(a)
    c = mul(X1, X2)
    dd = mul(Y1, Y2)
    e = mul(mul(d, c), dd)
    f = sub(b, e)
    g = add(b, e)
    cross = sub(sub(mul(add(X1, Y1), add(X2, Y2)), c), dd)
    x3 = mul(mul(a, f), cross)
    y3 = mul(mul(a, g), add(dd, c))      # D - a*C with a = -1
    return x3, y3, mul(f, g)


class JubjubPoint(ProjectivePoint, field="fq"):
    __slots__ = ()

    @classmethod
    def identity(cls, engine):
        return cls(engine.fq(0), engine.fq(1), engine.fq(1))

    @classmethod
    def affine(cls, engine, x: int, y: int):
        return cls(engine.fq(x), engine.fq(y), engine.fq(1))

    def is_identity(self) -> bool:
        # (0 : Z : Z) for any Z != 0
        return self.x.is_zero() and self.y == self.z

    def __neg__(self):
        return JubjubPoint(-self.x, self.y, self.z)

    double = _method("jubjub_double")
    add = __add__ = _method("jubjub_add")

    def to_affine(self) -> "JubjubPoint":
        # always inverts, identity included, so the ladder's trace ends the
        # same way for every scalar
        zinv = self.z.inverse()
        return JubjubPoint(self.x * zinv, self.y * zinv, self.engine.fq(1))

    def on_curve(self) -> bool:
        e = self.engine
        with e.uncounted():
            if self.z.is_zero():
                return False
            x2 = self.x.square()
            y2 = self.y.square()
            z2 = self.z.square()
            lhs = (y2 - x2) * z2
            rhs = z2.square() + e.jubjub.d * x2 * y2
            return lhs == rhs


def jubjub_ecsm(k: int, point: JubjubPoint) -> JubjubPoint:
    """Constant-time k*P over the 252-bit subgroup order, always-add loop."""
    _entry_check(point, JubjubPoint, k=k, bound=JUBJUB_ELL)
    return ladder(k, point, JUBJUB_ELL.bit_length(), JubjubPoint.add.op)


def _tonelli_shanks(n: int, p: int):
    """Integer square root mod p, or None. Used only for generator derivation."""
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


class JubjubCtx(_Context):
    """Curve constant and a deterministically derived generator, once per
    process for each field spec and backend (fields._Context).

    The generator is the cofactor-cleared point with the smallest y whose
    doubled-out image is not the identity; x is the even root. Order ell is
    verified in the test suite via ell*G = identity.
    """

    field = "fq"

    def derive(self):
        self.d = self.engine.fq(JUBJUB_D)
        self.generator = self._derive_generator()

    def _derive_generator(self):
        e = self.engine
        y = 2
        while True:
            num = (y * y - 1) % Q
            den = (1 + JUBJUB_D * y * y) % Q
            x2 = num * pow(den, -1, Q) % Q
            x = _tonelli_shanks(x2, Q)
            if x is not None:
                if x % 2 == 1:
                    x = Q - x
                pt = plain_mul(JubjubPoint.affine(e, x, y), JUBJUB_COFACTOR)
                if not pt.is_identity():
                    return pt.to_affine()
            y += 1
