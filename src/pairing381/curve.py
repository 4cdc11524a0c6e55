"""Group arithmetic for G1 (E/Fp: y^2 = x^3 + b) and G2 (twist E'/Fp2).

G1, G2 and Jubjub (jubjub.py) points differ in data only: each class
declares its coordinate builder, its identity and coordinate one as ints,
and, on G1 and G2, b as ints (params.G1_B, G2_B). ProjectivePoint builds
the identity and affine points from these, and _CurvePoint checks the curve
equation y^2 z = x^3 + b z^3 with them.

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
primitives and as g2_* over the Fp2 ops; the mul-by-12 steps are the plain
helpers _g1_mb3 and _g2_mb3, which the bodies call and which are no ops of
their own. A point op is one tally of the records of its steps, in call
order, so its counts and trace are those of the per-op formulas. A
point is a fields._Value whose parts are its coordinates x, y, z. The loops
(ladder, multi_exp, plain_mul) read their operands' RawOps and raw values
once, apply each step by kernel name to raw values, select by bit logic on
those (_select, uncounted) and wrap only the result.

A secret scalar multiplication runs either the 255-bit ladder (ecsm) or the
128-bit endomorphism split k*P = k1*P + k2*(u^2*P), one multi_exp with
shared doublings (ecsm(..., split=True), which sign uses, and
g2_ecsm_split, which keygen uses). Each class gives u^2*P on the order-q
subgroup as one endomorphism image, times_u_sq: -sigma(P) = (omega*x, -y, z)
on G1 and phi^2(P) on G2.
"""

from operator import attrgetter

from . import params
from .fields import (X1, Engine, FieldElement, _expect, _is_zero, _method,
                     _Value, kernel)
from .tower import X2, Fp2El


class ProjectivePoint(_Value, part=FieldElement, names=("x", "y", "z")):
    """Coordinates (X : Y : Z), construction, equality and hashing.

    Shared by the Weierstrass points below and by the Edwards points in
    jubjub.py. A subclass declares its group as data: _coord(engine, ints)
    builds one coordinate, _IDENTITY holds the identity's coordinates as
    ints and _ONE the coordinate one's. It supplies is_identity, on_curve,
    to_affine and the group law, whose double and add methods name the
    kernels the loops run.
    """

    __slots__ = ()

    @classmethod
    def _coord_one(cls, engine):
        return cls._coord(engine, cls._ONE)

    @classmethod
    def identity(cls, engine):
        return cls(*(cls._coord(engine, v) for v in cls._IDENTITY))

    @classmethod
    def affine(cls, engine, x, y):
        """The point (x, y, 1) from x and y as ints, a pair of ints on G2."""
        return cls(cls._coord(engine, x), cls._coord(engine, y),
                   cls._coord_one(engine))

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
        if self.is_identity():   # alike; to_affine leaves a Weierstrass one as is
            return hash(type(self))
        with self.engine.uncounted():
            a = self.to_affine()
        return hash((a.x, a.y))


def _select(m, a, b):
    """a if m = -1, b if m = 0, for two raw values of one shape: bit logic on
    every int (a residue on bigint, a limb on words), uncounted."""
    if type(a) is tuple:
        return tuple(_select(m, x, y) for x, y in zip(a, b))
    return (a & m) | (b & ~m)


def _g1_mb3(o, v):
    # 12*v as eleven successive additions
    acc = v
    for _ in range(11):
        acc = o.add(acc, v)
    return acc


def _g2_mb3(o, v):
    # 12(1+alpha)*v: doubling chain 2,4,8,12 then one xi-multiplication
    add = o.add2
    t = add(v, v)
    t = add(t, t)
    return o.xi2(add(add(t, t), t))


def _formulas(group, coord, mb3, *names):
    """Register the complete formulas as the kernels group_double,
    group_add_mixed and group_add; each body picks its mul, sqr, add and
    sub ops from the primitive set by the given names and multiplies by 3b
    with the helper mb3(o, v)."""
    ops = attrgetter(*names)
    pt = (coord,) * 3

    @kernel(group + "_double", pt)
    def double(o, p):
        mul, sqr, add, sub = ops(o)
        X, Y, Z = p
        t0 = sqr(Y)
        z3 = add(t0, t0)
        z3 = add(z3, z3)
        z3 = add(z3, z3)
        t1 = mul(Y, Z)
        t2 = mb3(o, sqr(Z))
        x3 = mul(t2, z3)
        y3 = add(t0, t2)
        z3 = mul(t1, z3)
        t1 = add(t2, t2)
        t2 = add(t1, t2)
        t0 = sub(t0, t2)
        y3 = add(x3, mul(t0, y3))
        x3 = mul(t0, mul(X, Y))
        return add(x3, x3), y3, z3

    @kernel(group + "_add_mixed", pt, pt)
    def add_mixed(o, p, q):
        """Complete mixed addition; q must have z = 1."""
        mul, _, add, sub = ops(o)
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

    @kernel(group + "_add", pt, pt)
    def add_full(o, p, q):
        """Complete projective addition, any inputs."""
        mul, _, add, sub = ops(o)
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
        mul, _, add, sub = ops(o)
        x3 = add(t0, t0)
        t0 = add(x3, t0)
        t2 = mb3(o, t2)
        z3 = add(t1, t2)
        t1 = sub(t1, t2)
        y3 = mb3(o, y3)
        x3 = mul(t4, y3)
        x3 = sub(mul(t3, t1), x3)
        y3 = mul(y3, t0)
        y3 = add(mul(t1, z3), y3)
        t0 = mul(t0, t3)
        z3 = add(mul(z3, t4), t0)
        return x3, y3, z3


_formulas("g1", X1, _g1_mb3, "mul", "sqr", "add", "sub")
_formulas("g2", X2, _g2_mb3, "mul2", "sqr2", "add2", "sub2")


class _CurvePoint(ProjectivePoint):
    """Weierstrass-point behaviour on y^2 = x^3 + b; a subclass also
    declares b as ints (_B, from params) and binds its kernels."""

    __slots__ = ()

    def is_identity(self) -> bool:
        x, y, z = self.val          # (0 : y : 0), y != 0, as on_curve reads
        return _is_zero(z) and _is_zero(x) and not _is_zero(y)

    def __neg__(self):
        return type(self)(self.x, -self.y, self.z)

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
        """y^2 z = x^3 + b z^3, uncounted. At z = 0 it forces x = 0, so the
        one point at infinity is (0 : y : 0), y != 0; (0 : 0 : 0) is none."""
        e = self.engine
        with e.uncounted():
            lhs = self.y.square() * self.z
            zc = self.z.square() * self.z
            rhs = self.x.square() * self.x + zc * self._coord(e, self._B)
            return lhs == rhs and not (self.z.is_zero() and self.y.is_zero())


class G1Point(_CurvePoint, field="fp"):
    __slots__ = ()
    _coord = staticmethod(Engine.fp)
    _IDENTITY, _ONE, _B = (0, 1, 0), 1, params.G1_B
    double = _method("g1_double")
    add_mixed = _method("g1_add_mixed")     # other must have z = 1
    add = __add__ = _method("g1_add")

    def times_u_sq(self):
        """u^2*P on the q-order subgroup: -sigma(P) = (omega*x, -y, z)."""
        return G1Point(self.x * self.engine.curve.omega, -self.y, self.z)


class G2Point(_CurvePoint, part=Fp2El, field="fp"):
    __slots__ = ()
    _coord = staticmethod(lambda engine, ints: Fp2El.of(engine, *ints))
    _IDENTITY, _ONE, _B = ((0, 0), (1, 0), (0, 0)), (1, 0), params.G2_B
    double = _method("g2_double")
    add_mixed = _method("g2_add_mixed")     # other must have z = 1
    add = __add__ = _method("g2_add")

    def times_u_sq(self):
        """u^2*P on the q-order subgroup: phi^2(P)."""
        return skew_frobenius(skew_frobenius(self))


def _entry_check(point, *classes, k=0, bound=1):
    """The entry check of a scalar multiplication or a pairing, before any
    tally: k an int in [0, bound), point of one of classes (a loop runs the
    kernels of the class it was written for) and on its curve (uncounted)."""
    _expect(k, int)
    if not 0 <= k < bound:
        raise ValueError("scalar out of range")
    _expect(point, *classes)
    if not point.on_curve():
        raise ValueError("point not on curve")


def ecsm(k: int, point, split: bool = False):
    """Constant-time k*P by double-and-add-always over the 255-bit width of q.

    Exactly 255 iterations run regardless of k. The addition executes every
    iteration; a masked select keeps or discards it. The result is affine (the
    one inversion the cost anchors include). Identity input short-circuits:
    there is no affine base to add.

    With split=True, k = k1 + k2*u^2 (scalar_split) and k*P = k1*P +
    k2*(u^2*P) run as one 128-bit multi_exp (Gallant, Lambert and Vanstone,
    CRYPTO 2001), with u^2*P one endomorphism image (times_u_sq). That
    image is u^2*P only on the order-q subgroup, which ecsm does not check:
    P must lie in it, as hash outputs and the generators do. The split's
    divmod on the secret k is variable-time in CPython, as in g2_ecsm_split.
    """
    _entry_check(point, G1Point, G2Point, k=k, bound=params.Q)
    if point.is_identity():
        return point
    if split:
        return _split_mul(k, point)
    return ladder(k, point.normalized(), 255, type(point).add_mixed.op)


def ladder(k: int, base, bits: int, add: str):
    """The fixed double-and-add-always loop over the low `bits` bits of k.

    Every iteration runs one doubling and the add kernel named `add` on
    (acc, base); a masked select keeps or discards the sum, so the operation
    trace does not depend on k. Returns the affine result.
    """
    cls, o = type(base), base.o
    run, dbl, b = o.apply, cls.double.op, base.val
    acc = cls.identity(base.engine).val
    for i in range(bits - 1, -1, -1):
        acc = run(dbl, acc)
        cand = run(add, acc, b)
        acc = _select(-((k >> i) & 1), cand, acc)
    return cls._wrap(o, acc).to_affine()


def multi_exp(k1: int, p1, k2: int, p2, bits: int = 128):
    """k1*P1 + k2*P2 with shared doublings (fixed-window Shamir).

    One doubling and one always-executed full addition per bit; the added
    table entry (identity, P1, P2 or the precomputed P1+P2) is chosen by
    masked 4-way select.
    """
    _entry_check(p1, G1Point, G2Point, k=k1, bound=1 << bits)
    _entry_check(p2, type(p1), k=k2, bound=1 << bits)
    return _multi_exp(k1, p1, k2, p2, bits)


def _multi_exp(k1: int, p1, k2: int, p2, bits: int):
    """multi_exp after its entry checks, which its callers have run."""
    cls = type(p1)
    table = (cls.identity(p1.engine), p1, p2, p1.add(p2))
    o = p1.engine.raw_ops(*table)
    run, dbl, add = o.apply, cls.double.op, cls.add.op
    t0, t1, t2, t3 = (t.val for t in table)
    acc = t0
    for i in range(bits - 1, -1, -1):
        acc = run(dbl, acc)
        m1 = -((k1 >> i) & 1)
        entry = _select(-((k2 >> i) & 1), _select(m1, t3, t2),
                        _select(m1, t1, t0))
        acc = run(add, acc, entry)
    return cls._wrap(o, acc).to_affine()


def scalar_split(k: int) -> tuple[int, int]:
    """k = k1 + k2*u^2 with both halves at most 128 bits, for k in [0, q)."""
    k2, k1 = divmod(k, params.U_SQ)
    return k1, k2


def skew_frobenius(point: G2Point) -> G2Point:
    """phi(P) = p*P on the q-order subgroup, by coordinate-wise Frobenius."""
    ctx = point.engine.tower
    return G2Point(
        point.x.conjugate() * ctx.skew_cx,
        point.y.conjugate() * ctx.skew_cy,
        point.z.conjugate(),
    )


def _split_mul(k: int, point):
    """k*P as k1*P + k2*(u^2*P), after the callers' entry check."""
    k1, k2 = scalar_split(k)
    return _multi_exp(k1, point, k2, point.times_u_sq(), bits=128)


def g2_ecsm_split(k: int, point: G2Point) -> G2Point:
    """k*P via the 128-bit split k = k1 + k2*u^2 and phi^2(P) = u^2*P."""
    _entry_check(point, G2Point, k=k, bound=params.Q)
    return _split_mul(k, point)


def plain_mul(point, n: int):
    """Variable-time double-and-add for public scalars (checks, cofactors)."""
    cls = type(point)
    if n < 0:
        point, n = -point, -n
    o = point.o
    run, dbl, add = o.apply, cls.double.op, cls.add.op
    p, acc = point.val, cls.identity(point.engine).val
    for bit in bin(n)[2:] if n else "":
        acc = run(dbl, acc)
        if bit == "1":
            acc = run(add, acc, p)
    return cls._wrap(o, acc)


def g1_subgroup_check(point: G1Point) -> bool:
    """Fast check: -sigma(P) = u^2*P, sigma scaling x by a cube root of 1."""
    if point.is_identity():
        return True
    return point.times_u_sq() == plain_mul(point, params.U_SQ)

def g2_subgroup_check(point: G2Point) -> bool:
    """Fast check: phi(P) = u*P (u negative, so compare against -(|u|P))."""
    if point.is_identity():
        return True
    return skew_frobenius(point) == -plain_mul(point, params.ABS_U)


def subgroup_check_canonical(point) -> bool:
    """Reference check q*P = identity; slower, used to validate the fast ones."""
    return plain_mul(point, params.Q).is_identity()


class CurveCtx:
    """The generators and omega (params.G1_GEN_X/Y, G2_GEN_X/Y, OMEGA), built
    with the tower on each engine at its first use of .curve. Import checks
    the generators on their curves; the tests and selftest check their
    subgroups, and that omega, not omega^2, passes g1_subgroup_check."""

    def __init__(self, engine):
        engine.tower            # built here too, not in a first request
        self.g1_gen = G1Point.affine(engine, params.G1_GEN_X, params.G1_GEN_Y)
        self.g2_gen = G2Point.affine(engine, params.G2_GEN_X, params.G2_GEN_Y)
        self.omega = engine.fp(params.OMEGA)
