"""Group arithmetic for G1 (E/Fp: y^2 = x^3 + 4) and G2 (twist E'/Fp2).

Point formulas are the complete homogeneous-projective ones for a = 0 curves:
one formula per operation, no exceptional branches, identity included. The
multiplication by 3b is done additively, which pins the operation counts:

  doubling      6M + 2S + 9A + one mul-by-12
  mixed add    11M      + 13A + two mul-by-12
  full add     12M      + 19A + two mul-by-12

In G1 the mul-by-12 is eleven successive Fp additions. In G2 the constant is
12(1+alpha), computed as a four-addition doubling chain followed by one
xi-multiplication; the resulting A2 total per ECSM differs from the G1-shaped
A1 total, which is expected (the two strategies do not mirror each other).

ECSM is double-and-add-always: 255 fixed iterations, one doubling plus one
mixed addition each, masked select of the addition result, final conversion
to affine. Input validation runs outside the counters; the algorithm itself
is fully counted.
"""

from . import params
from .tower import Fp2El


class _CurvePoint:
    """Shared complete-formula machinery; subclasses bind the coordinate type."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        self.x = x
        self.y = y
        self.z = z

    @property
    def engine(self):
        return self._engine_of(self.x)

    def is_identity(self) -> bool:
        return self.z.is_zero()

    def __neg__(self):
        return type(self)(self.x, -self.y, self.z)

    def double(self):
        X, Y, Z = self.x, self.y, self.z
        t0 = Y.square()
        z3 = t0 + t0
        z3 = z3 + z3
        z3 = z3 + z3
        t1 = Y * Z
        t2 = Z.square()
        t2 = self._mb3(t2)
        x3 = t2 * z3
        y3 = t0 + t2
        z3 = t1 * z3
        t1 = t2 + t2
        t2 = t1 + t2
        t0 = t0 - t2
        y3 = t0 * y3
        y3 = x3 + y3
        t1 = X * Y
        x3 = t0 * t1
        x3 = x3 + x3
        return type(self)(x3, y3, z3)

    def add_mixed(self, other):
        """Complete mixed addition; other must have z = 1."""
        X1, Y1, Z1 = self.x, self.y, self.z
        X2, Y2 = other.x, other.y
        t0 = X1 * X2
        t1 = Y1 * Y2
        t3 = X2 + Y2
        t4 = X1 + Y1
        t3 = t3 * t4
        t4 = t0 + t1
        t3 = t3 - t4
        t4 = Y2 * Z1
        t4 = t4 + Y1
        y3 = X2 * Z1
        y3 = y3 + X1
        x3 = t0 + t0
        t0 = x3 + t0
        t2 = self._mb3(Z1)
        z3 = t1 + t2
        t1 = t1 - t2
        y3 = self._mb3(y3)
        x3 = t4 * y3
        t2 = t3 * t1
        x3 = t2 - x3
        y3 = y3 * t0
        t1 = t1 * z3
        y3 = t1 + y3
        t0 = t0 * t3
        z3 = z3 * t4
        z3 = z3 + t0
        return type(self)(x3, y3, z3)

    def add(self, other):
        """Complete projective addition, any inputs."""
        X1, Y1, Z1 = self.x, self.y, self.z
        X2, Y2, Z2 = other.x, other.y, other.z
        t0 = X1 * X2
        t1 = Y1 * Y2
        t2 = Z1 * Z2
        t3 = X1 + Y1
        t4 = X2 + Y2
        t3 = t3 * t4
        t4 = t0 + t1
        t3 = t3 - t4
        t4 = Y1 + Z1
        x3 = Y2 + Z2
        t4 = t4 * x3
        x3 = t1 + t2
        t4 = t4 - x3
        x3 = X1 + Z1
        y3 = X2 + Z2
        x3 = x3 * y3
        y3 = t0 + t2
        y3 = x3 - y3
        x3 = t0 + t0
        t0 = x3 + t0
        t2 = self._mb3(t2)
        z3 = t1 + t2
        t1 = t1 - t2
        y3 = self._mb3(y3)
        x3 = t4 * y3
        t2 = t3 * t1
        x3 = t2 - x3
        y3 = y3 * t0
        t1 = t1 * z3
        y3 = t1 + y3
        t0 = t0 * t3
        z3 = z3 * t4
        z3 = z3 + t0
        return type(self)(x3, y3, z3)

    __add__ = add

    def __sub__(self, other):
        return self.add(-other)

    def to_affine(self):
        """Normalize to z = 1 (identity passes through unchanged)."""
        if self.is_identity():
            return self
        zinv = self.z.inverse()
        one = self._coord_one(self.engine)
        return type(self)(self.x * zinv, self.y * zinv, one)

    def on_curve(self) -> bool:
        if self.is_identity():
            return True
        e = self.engine
        with e.uncounted():
            lhs = self.y.square() * self.z
            zc = self.z.square() * self.z
            rhs = self.x.square() * self.x + self._mb(zc)
            return lhs == rhs

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # cross-multiplied projective equality
        if self.is_identity() or other.is_identity():
            return self.is_identity() and other.is_identity()
        e = self.engine
        with e.uncounted():
            return (self.x * other.z == other.x * self.z
                    and self.y * other.z == other.y * self.z)

    def __hash__(self):
        with self.engine.uncounted():
            a = self.to_affine()
        return hash((a.x, a.y, a.is_identity()))

    @classmethod
    def select(cls, flag: int, a, b):
        """Masked point select: a if flag else b. Bit logic only."""
        return cls(
            cls._el_select(flag, a.x, b.x),
            cls._el_select(flag, a.y, b.y),
            cls._el_select(flag, a.z, b.z),
        )


class G1Point(_CurvePoint):
    __slots__ = ()

    @staticmethod
    def _engine_of(el):
        return el.engine

    @staticmethod
    def _coord_one(engine):
        return engine.fp(1)

    @classmethod
    def identity(cls, engine):
        return cls(engine.fp(0), engine.fp(1), engine.fp(0))

    @classmethod
    def affine(cls, engine, x: int, y: int):
        return cls(engine.fp(x), engine.fp(y), engine.fp(1))

    @staticmethod
    def _mb3(v):
        # 12*v as eleven successive additions
        acc = v
        for _ in range(11):
            acc = acc + v
        return acc

    @staticmethod
    def _mb(v):
        # 4*v, for the curve equation only
        t = v + v
        return t + t

    @staticmethod
    def _el_select(flag, a, b):
        return a.engine.select(flag, a, b)


class G2Point(_CurvePoint):
    __slots__ = ()

    @staticmethod
    def _engine_of(el):
        return el.engine

    @staticmethod
    def _coord_one(engine):
        return Fp2El.one(engine)

    @classmethod
    def identity(cls, engine):
        return cls(Fp2El.zero(engine), Fp2El.one(engine), Fp2El.zero(engine))

    @classmethod
    def affine(cls, engine, x: tuple, y: tuple):
        return cls(Fp2El.of(engine, *x), Fp2El.of(engine, *y), Fp2El.one(engine))

    @staticmethod
    def _mb3(v):
        # 12(1+alpha)*v: doubling chain 2,4,8,12 then one xi-multiplication
        t = v + v
        t = t + t
        d = t + t
        d = d + t
        return d.mul_by_xi()

    @staticmethod
    def _mb(v):
        # 4(1+alpha)*v, curve equation only
        t = v + v
        return (t + t).mul_by_xi()

    @staticmethod
    def _el_select(flag, a, b):
        e = a.engine
        return Fp2El(e.select(flag, a.c0, b.c0), e.select(flag, a.c1, b.c1))


def ecsm(k: int, point):
    """Constant-time k*P by double-and-add-always over the 255-bit width of q.

    Exactly 255 iterations run regardless of k. The addition executes every
    iteration; a masked select keeps or discards it. The result is affine (the
    one inversion the cost anchors include). Identity input short-circuits:
    there is no affine base to add.
    """
    if not 0 <= k < params.Q:
        raise ValueError("scalar out of range")
    with point.engine.uncounted():
        if not point.on_curve():
            raise ValueError("point not on curve")
    if point.is_identity():
        return point
    base = point if point.z == point._coord_one(point.engine) else point.to_affine()
    acc = type(point).identity(point.engine)
    for i in range(254, -1, -1):
        acc = acc.double()
        cand = acc.add_mixed(base)
        acc = type(point).select((k >> i) & 1, cand, acc)
    return acc.to_affine()


def multi_exp(k1: int, p1, k2: int, p2, bits: int = 128):
    """k1*P1 + k2*P2 with shared doublings (fixed-window Shamir).

    One doubling and one always-executed full addition per bit; the added
    table entry (identity, P1, P2 or the precomputed P1+P2) is chosen by
    masked 4-way select.
    """
    if k1 < 0 or k2 < 0 or max(k1.bit_length(), k2.bit_length()) > bits:
        raise ValueError("scalar out of range for fixed width")
    cls = type(p1)
    e = p1.engine
    with e.uncounted():
        if not (p1.on_curve() and p2.on_curve()):
            raise ValueError("point not on curve")
    t0 = cls.identity(e)
    table = (t0, p1, p2, p1.add(p2))
    acc = cls.identity(e)
    for i in range(bits - 1, -1, -1):
        acc = acc.double()
        b1 = (k1 >> i) & 1
        b2 = (k2 >> i) & 1
        lo = cls.select(b1, table[1], table[0])
        hi = cls.select(b1, table[3], table[2])
        entry = cls.select(b2, hi, lo)
        acc = acc.add(entry)
    return acc.to_affine()


def scalar_split(k: int) -> tuple[int, int]:
    """k = k1 + k2*u^2 with both halves at most 128 bits."""
    if not 0 <= k < params.Q:
        raise ValueError("scalar out of range")
    k2, k1 = divmod(k, params.U_SQ)
    return k1, k2


def skew_frobenius(point: G2Point) -> G2Point:
    """phi(P) = p*P on the q-order subgroup, by coordinate-wise Frobenius."""
    ctx = point.engine.curve
    return G2Point(
        point.x.conjugate() * ctx.skew_cx,
        point.y.conjugate() * ctx.skew_cy,
        point.z.conjugate(),
    )


def g2_ecsm_split(k: int, point: G2Point) -> G2Point:
    """k*P via the 128-bit split k = k1 + k2*u^2 and phi^2(P) = u^2*P."""
    k1, k2 = scalar_split(k)
    p2 = skew_frobenius(skew_frobenius(point))
    return multi_exp(k1, point, k2, p2, bits=128)


def plain_mul(point, n: int):
    """Variable-time double-and-add for public scalars (checks, cofactors)."""
    cls = type(point)
    acc = cls.identity(point.engine)
    if n < 0:
        point, n = -point, -n
    for bit in bin(n)[2:] if n else "":
        acc = acc.double()
        if bit == "1":
            acc = acc.add(point)
    return acc


def g1_subgroup_check(point: G1Point) -> bool:
    """Fast check: sigma(P) = -u^2*P where sigma scales x by a cube root of 1."""
    if point.is_identity():
        return True
    ctx = point.engine.curve
    sig = G1Point(point.x * ctx.omega, point.y, point.z)
    return sig == -plain_mul(point, params.U_SQ)

def g2_subgroup_check(point: G2Point) -> bool:
    """Fast check: phi(P) = u*P (u negative, so compare against -(|u|P))."""
    if point.is_identity():
        return True
    return skew_frobenius(point) == -plain_mul(point, params.ABS_U)


def subgroup_check_canonical(point) -> bool:
    """Reference check q*P = identity; slower, used to validate the fast ones."""
    return plain_mul(point, params.Q).is_identity()


class CurveCtx:
    """Generators and endomorphism constants, validated at construction."""

    def __init__(self, engine):
        self.engine = engine
        tw = engine.tower
        # register early: the validation below routes through engine.curve
        engine._curve = self
        with engine.uncounted():
            self.skew_cx = tw.skew_cx
            self.skew_cy = tw.skew_cy
            self.g1_gen = G1Point.affine(engine, params.G1_GEN_X, params.G1_GEN_Y)
            self.g2_gen = G2Point.affine(engine, params.G2_GEN_X, params.G2_GEN_Y)
            assert self.g1_gen.on_curve(), "G1 generator not on curve"
            assert self.g2_gen.on_curve(), "G2 generator not on twist"
            self.omega = self._derive_omega()
            assert g1_subgroup_check(self.g1_gen)
            assert g2_subgroup_check(self.g2_gen)

    def _derive_omega(self):
        e = self.engine
        p = params.P
        base = 2
        while True:
            w = pow(base, (p - 1) // 3, p)
            if w != 1:
                break
            base += 1
        # two nontrivial roots; pick the one acting as multiplication by -u^2
        lam_g = plain_mul(self.g1_gen, params.LAMBDA_G1)
        for cand in (w, w * w % p):
            omega = e.fp(cand)
            if G1Point(self.g1_gen.x * omega, self.g1_gen.y, self.g1_gen.z) == lam_g:
                return omega
        raise AssertionError("no cube root matches the endomorphism eigenvalue")
