"""Jubjub: the twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2 over Fq.

a = -1 is a square mod q and d is not, so the single unified addition formula
is complete: identity, doublings and inverses all go through the same code
path. Projective coordinates (X : Y : Z) with identity (0 : 1 : 1).

Cost layout per ECSM iteration: doubling 3M + 4S, unified addition 11M + 1S,
both over Fq. The 252-bit fixed loop plus the final affine conversion gives
252*19 + 2 = 4,790 Fq mul/sqr operations and one Fq inversion. Doubling and
addition are raw kernels, as in curve.py; the addition reads the curve
constant d as o.jubjub_d, a named constant of Fq. The generator is a params
value, checked at import (on the curve) and by the tests (of order ell).
JubjubPoint declares Engine.fq as its coordinate builder and the identity
and coordinate one as ints; curve.ProjectivePoint builds identity and
affine points from them, as for G1 and G2.
"""

from .curve import ProjectivePoint, _entry_check, ladder
from .fields import CONSTANTS, X1, Engine, _method, kernel
from .params import JUBJUB_D, JUBJUB_ELL, JUBJUB_GEN_X, JUBJUB_GEN_Y


_PT = (X1, X1, X1)           # placeholder shape of a raw point
CONSTANTS["fq", "jubjub_d"] = JUBJUB_D


@kernel("jubjub_double", _PT)
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


@kernel("jubjub_add", _PT, _PT)
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
    _coord = staticmethod(Engine.fq)
    _IDENTITY, _ONE = (0, 1, 1), 1

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


class JubjubCtx:
    """The curve constant d and the generator (params.JUBJUB_GEN_X/Y), built
    on each engine at its first use of .jubjub."""

    def __init__(self, engine):
        self.d = engine.fq(JUBJUB_D)
        self.generator = JubjubPoint.affine(engine, JUBJUB_GEN_X, JUBJUB_GEN_Y)
