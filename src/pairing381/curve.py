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

Each formula is one raw kernel body, registered as g1_* over the Fp
primitives and as g2_* over the Fp2 ops; the mul-by-12 steps are the g1_mb3
and g2_mb3 kernels. A point op is one tally of the records of its steps, in
call order, so its counts and trace are those of the per-op formulas. The
loops (ladder, multi_exp, plain_mul) check their operands once, apply each
step by kernel name to raw values, select by bit logic on those (_select,
uncounted) and wrap only the result.
"""

from operator import attrgetter

from . import params
from .fields import X1, FieldElement, _method, kernel
from .tower import X2, Fp2El


class ProjectivePoint:
    """Coordinates (X : Y : Z), equality and hashing.

    Shared by the Weierstrass points below and by the Edwards points in
    jubjub.py; subclasses supply identity, is_identity, to_affine and the
    group law, whose double and add methods name the kernels the loops run.
    """

    __slots__ = ("x", "y", "z")
    _coord = FieldElement         # coordinate type

    def __init__(self, x, y, z):
        self.x = x
        self.y = y
        self.z = z

    @property
    def engine(self):
        return self.x.engine

    def _leaves(self):
        return (*self.x._leaves(), *self.y._leaves(), *self.z._leaves())

    def _raw(self):
        return self.x._raw(), self.y._raw(), self.z._raw()

    @classmethod
    def _wrap(cls, o, v):
        w = cls._coord._wrap
        return cls(w(o, v[0]), w(o, v[1]), w(o, v[2]))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # cross-multiplied projective equality
        if self.is_identity() or other.is_identity():
            return self.is_identity() and other.is_identity()
        with self.engine.uncounted():
            return (self.x * other.z == other.x * self.z
                    and self.y * other.z == other.y * self.z)

    def __hash__(self):
        with self.engine.uncounted():
            a = self.to_affine()
        return hash((a.x, a.y, a.is_identity()))

    def _consts(self):
        """Raw constant operands of the add kernels, after the two points."""
        return ()


def _select(m, a, b):
    """a if m = -1, b if m = 0, for two raw values of one shape: bit logic on
    every int (a Montgomery value on bigint, a limb on words), uncounted."""
    if type(a) is tuple:
        return tuple(_select(m, x, y) for x, y in zip(a, b))
    return (a & m) | (b & ~m)


@kernel("g1_mb3", X1, out=X1)
def _g1_mb3(o, v):
    # 12*v as eleven successive additions
    acc = v
    for _ in range(11):
        acc = o.add(acc, v)
    return acc


@kernel("g2_mb3", X2, out=X2)
def _g2_mb3(o, v):
    # 12(1+alpha)*v: doubling chain 2,4,8,12 then one xi-multiplication
    add = o.add2
    t = add(v, v)
    t = add(t, t)
    return o.xi2(add(add(t, t), t))


def _formulas(group, coord, *names):
    """Register the complete formulas as the kernels group_double,
    group_add_mixed and group_add; each body picks its mul, sqr, add, sub
    and mul-by-3b ops from the primitive set by the given names."""
    ops = attrgetter(*names)
    pt = (coord,) * 3

    @kernel(group + "_double", pt, out=pt)
    def double(o, p):
        mul, sqr, add, sub, mb3 = ops(o)
        X, Y, Z = p
        t0 = sqr(Y)
        z3 = add(t0, t0)
        z3 = add(z3, z3)
        z3 = add(z3, z3)
        t1 = mul(Y, Z)
        t2 = mb3(sqr(Z))
        x3 = mul(t2, z3)
        y3 = add(t0, t2)
        z3 = mul(t1, z3)
        t1 = add(t2, t2)
        t2 = add(t1, t2)
        t0 = sub(t0, t2)
        y3 = add(x3, mul(t0, y3))
        x3 = mul(t0, mul(X, Y))
        return add(x3, x3), y3, z3

    @kernel(group + "_add_mixed", pt, pt, out=pt)
    def add_mixed(o, p, q):
        """Complete mixed addition; q must have z = 1."""
        mul, _, add, sub, _ = ops(o)
        (X1, Y1, Z1), (X2, Y2, _) = p, q
        t0 = mul(X1, X2)
        t1 = mul(Y1, Y2)
        t3 = add(X2, Y2)
        t3 = mul(t3, add(X1, Y1))
        t4 = add(t0, t1)
        t3 = sub(t3, t4)
        t4 = add(mul(Y2, Z1), Y1)
        y3 = add(mul(X2, Z1), X1)
        return finish(o, t0, t1, Z1, t3, t4, y3)

    @kernel(group + "_add", pt, pt, out=pt)
    def add_full(o, p, q):
        """Complete projective addition, any inputs."""
        mul, _, add, sub, _ = ops(o)
        (X1, Y1, Z1), (X2, Y2, Z2) = p, q
        t0 = mul(X1, X2)
        t1 = mul(Y1, Y2)
        t2 = mul(Z1, Z2)
        t3 = add(X1, Y1)
        t3 = mul(t3, add(X2, Y2))
        t4 = add(t0, t1)
        t3 = sub(t3, t4)
        t4 = add(Y1, Z1)
        t4 = mul(t4, add(Y2, Z2))
        t4 = sub(t4, add(t1, t2))
        x3 = add(X1, Z1)
        x3 = mul(x3, add(X2, Z2))
        y3 = sub(x3, add(t0, t2))
        return finish(o, t0, t1, t2, t3, t4, y3)

    def finish(o, t0, t1, t2, t3, t4, y3):
        # the common end of both additions, from 3*t0, 3b*t2 and 3b*y3 on
        mul, _, add, sub, mb3 = ops(o)
        x3 = add(t0, t0)
        t0 = add(x3, t0)
        t2 = mb3(t2)
        z3 = add(t1, t2)
        t1 = sub(t1, t2)
        y3 = mb3(y3)
        x3 = mul(t4, y3)
        x3 = sub(mul(t3, t1), x3)
        y3 = mul(y3, t0)
        y3 = add(mul(t1, z3), y3)
        t0 = mul(t0, t3)
        z3 = add(mul(z3, t4), t0)
        return x3, y3, z3


_formulas("g1", X1, "mul", "sqr", "add", "sub", "g1_mb3")
_formulas("g2", X2, "mul2", "sqr2", "add2", "sub2", "g2_mb3")


class _CurvePoint(ProjectivePoint):
    """Weierstrass-point behaviour; subclasses bind coordinates and kernels."""

    __slots__ = ()

    def is_identity(self) -> bool:
        return self.z.is_zero()

    def __neg__(self):
        return type(self)(self.x, -self.y, self.z)

    def __sub__(self, other):
        return self.add(-other)

    def to_affine(self):
        """Normalize to z = 1 (identity passes through unchanged)."""
        if self.is_identity():
            return self
        zinv = self.z.inverse()
        one = self._coord_one(self.engine)
        return type(self)(self.x * zinv, self.y * zinv, one)

    def normalized(self):
        """self when already affine (z = 1), else to_affine()."""
        return self if self.z == self._coord_one(self.engine) else self.to_affine()

    def on_curve(self) -> bool:
        if self.is_identity():
            return True
        e = self.engine
        with e.uncounted():
            lhs = self.y.square() * self.z
            zc = self.z.square() * self.z
            rhs = self.x.square() * self.x + self._mb(zc)
            return lhs == rhs


class G1Point(_CurvePoint):
    __slots__ = ()
    double = _method("g1_double")
    add_mixed = _method("g1_add_mixed")     # other must have z = 1
    add = __add__ = _method("g1_add")

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
    def _mb(v):
        # 4*v, for the curve equation only
        t = v + v
        return t + t


class G2Point(_CurvePoint):
    __slots__ = ()
    _coord = Fp2El
    double = _method("g2_double")
    add_mixed = _method("g2_add_mixed")     # other must have z = 1
    add = __add__ = _method("g2_add")

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
    def _mb(v):
        # 4(1+alpha)*v, curve equation only
        t = v + v
        return (t + t).mul_by_xi()


def ecsm(k: int, point):
    """Constant-time k*P by double-and-add-always over the 255-bit width of q.

    Exactly 255 iterations run regardless of k. The addition executes every
    iteration; a masked select keeps or discards it. The result is affine (the
    one inversion the cost anchors include). Identity input short-circuits:
    there is no affine base to add.
    """
    if not 0 <= k < params.Q:
        raise ValueError("scalar out of range")
    if not point.on_curve():
        raise ValueError("point not on curve")
    if point.is_identity():
        return point
    return ladder(k, point.normalized(), 255, type(point).add_mixed.op)


def ladder(k: int, base, bits: int, add: str):
    """The fixed double-and-add-always loop over the low `bits` bits of k.

    Every iteration runs one doubling and the add kernel named `add` on
    (acc, base); a masked select keeps or discards the sum, so the operation
    trace does not depend on k. Returns the affine result.
    """
    cls, o = type(base), base.engine.raw_ops(*base._leaves())
    run, dbl, b, consts = o.apply, cls.double.op, base._raw(), base._consts()
    acc = cls.identity(base.engine)._raw()
    for i in range(bits - 1, -1, -1):
        acc = run(dbl, acc)
        cand = run(add, acc, b, *consts)
        acc = _select(-((k >> i) & 1), cand, acc)
    return cls._wrap(o, acc).to_affine()


def multi_exp(k1: int, p1, k2: int, p2, bits: int = 128):
    """k1*P1 + k2*P2 with shared doublings (fixed-window Shamir).

    One doubling and one always-executed full addition per bit; the added
    table entry (identity, P1, P2 or the precomputed P1+P2) is chosen by
    masked 4-way select.
    """
    if k1 < 0 or k2 < 0 or max(k1.bit_length(), k2.bit_length()) > bits:
        raise ValueError("scalar out of range for fixed width")
    cls = type(p1)
    if not (p1.on_curve() and p2.on_curve()):
        raise ValueError("point not on curve")
    table = (cls.identity(p1.engine), p1, p2, p1.add(p2))   # add checks p2
    o = p1.engine.raw_ops(*[fe for t in table for fe in t._leaves()])
    run, dbl, add, consts = o.apply, cls.double.op, cls.add.op, p1._consts()
    t0, t1, t2, t3 = (t._raw() for t in table)
    acc = t0
    for i in range(bits - 1, -1, -1):
        acc = run(dbl, acc)
        m1 = -((k1 >> i) & 1)
        entry = _select(-((k2 >> i) & 1), _select(m1, t3, t2),
                        _select(m1, t1, t0))
        acc = run(add, acc, entry, *consts)
    return cls._wrap(o, acc).to_affine()


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
    if n < 0:
        point, n = -point, -n
    o = point.engine.raw_ops(*point._leaves())
    run, dbl, add, consts = o.apply, cls.double.op, cls.add.op, point._consts()
    p, acc = point._raw(), cls.identity(point.engine)._raw()
    for bit in bin(n)[2:] if n else "":
        acc = run(dbl, acc)
        if bit == "1":
            acc = run(add, acc, p, *consts)
    return cls._wrap(o, acc)


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
