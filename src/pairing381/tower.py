"""Extension tower Fp2 -> Fp6 -> Fp12.

    Fp2  = Fp[alpha] / (alpha^2 + 1)
    Fp6  = Fp2[beta] / (beta^3 - xi),   xi = 1 + alpha
    Fp12 = Fp6[gamma] / (gamma^2 - beta)

Collapsing the tower, Fp12 = Fp2[z]/(z^6 - xi) with z = gamma; a coefficient
at (c_j, b_k) sits at z-degree 2k + j. Frobenius and the sparse pairing
operations work on that degree grid.

Counter contract: an Fp2 mul is 3 Fp muls and 5 adds (Karatsuba), a squaring
is 2 muls and 3 adds (complex method), an inversion is 4 muls, 2 adds and one
Fp inversion via the norm map. An Fp2 add, sub or neg is one a2 and 2 Fp adds,
a conjugate one a2 and 1 Fp add, a multiplication by xi one a2 and 2 Fp adds.
Multiplying an Fp2 element by a plain Fp scalar is charged as two direct Fp
muls, not as an Fp2 op. Every op here is a raw kernel over a primitive set
(fields.RawOps) on tuples of raw Fp values; each element class is a
fields._Value that names its part class (an Fp2 value holds its RawOps and
the pair of raw Fp values), and its methods are fields._method wrappers, the
one path by which a value runs a counted op: check the operands, one tally
of the op's record, the kernel. An Fp6/Fp12 op (and a Frobenius map) is
one tally of a composite record: the records of the Fp2 ops its body
applies, concatenated in call order, so its counters and trace are exactly
those of its Fp2 steps.
"""

from .fields import X1, FieldElement, _expect, _method, _Value, kernel
from .params import FROB1, FROB2, FROB3, SKEW_CX, SKEW_CY, P

X2 = (X1, X1)          # placeholder shapes of raw Fp2, Fp6 and Fp12 values
X6 = (X2, X2, X2)
X12 = (X6, X6)


kernel("add2", X2, X2, marker="a2")(
    lambda o, a, b: (o.add(a[0], b[0]), o.add(a[1], b[1])))
kernel("sub2", X2, X2, marker="a2")(
    lambda o, a, b: (o.sub(a[0], b[0]), o.sub(a[1], b[1])))
kernel("neg2", X2, marker="a2")(lambda o, a: (o.neg(a[0]), o.neg(a[1])))
kernel("conj2", X2, marker="a2")(lambda o, a: (a[0], o.neg(a[1])))
# (1 + alpha)(a0 + a1 alpha) = (a0 - a1) + (a0 + a1) alpha
kernel("xi2", X2, marker="a2")(
    lambda o, a: (o.sub(a[0], a[1]), o.add(a[0], a[1])))
# an Fp2 value times an Fp scalar: two direct Fp muls, no marker
kernel("mul_fp", X2, X1)(lambda o, a, k: (o.mul(a[0], k), o.mul(a[1], k)))


@kernel("mul2", X2, X2, marker="m2")
def _mul2(o, a, b):
    # Karatsuba: v0 = a0 b0, v1 = a1 b1, c1 = (a0 + a1)(b0 + b1) - v0 - v1
    mul, add, sub = o.mul, o.add, o.sub
    (a0, a1), (b0, b1) = a, b
    v0 = mul(a0, b0)
    v1 = mul(a1, b1)
    s = add(a0, a1)
    t = add(b0, b1)
    c0 = sub(v0, v1)                      # v0 - v1 runs before s*t
    return c0, sub(sub(mul(s, t), v0), v1)


@kernel("sqr2", X2, marker="s2")
def _sqr2(o, a):
    # complex method: (a0 + a1)(a0 - a1) + 2 a0 a1 alpha
    mul, add = o.mul, o.add
    a0, a1 = a
    t = mul(add(a0, a1), o.sub(a0, a1))
    c1 = mul(a0, a1)
    return t, add(c1, c1)


@kernel("inv2", X2, marker="i2")
def _inv2(o, a):
    # norm descent: 1/(a0 + a1 alpha) = (a0 - a1 alpha) / (a0^2 + a1^2)
    mul = o.mul
    a0, a1 = a
    t = o.inv(o.add(mul(a0, a0), mul(a1, a1)))
    return mul(a0, t), o.neg(mul(a1, t))


class Fp2El(_Value, part=FieldElement, names=("c0", "c1"), field="fp"):
    __slots__ = ()

    @staticmethod
    def of(engine, a0: int, a1: int) -> "Fp2El":
        x0, x1 = engine.fp(a0), engine.fp(a1)
        return Fp2El._wrap(x0.o, (x0.val, x1.val))

    @staticmethod
    def zero(engine) -> "Fp2El":
        return Fp2El.of(engine, 0, 0)

    @staticmethod
    def one(engine) -> "Fp2El":
        return Fp2El.of(engine, 1, 0)

    __add__ = _method("add2")
    __sub__ = _method("sub2")
    __neg__ = _method("neg2")
    __mul__ = _method("mul2")
    square = _method("sqr2")
    conjugate = _method("conj2")
    mul_by_xi = _method("xi2")
    inverse = _method("inv2", inverse=True)
    mul_fp = _method("mul_fp")           # times an Fp scalar

    def to_ints(self) -> tuple[int, int]:
        return (self.c0.to_int(), self.c1.to_int())

    def __repr__(self):
        a, b = self.to_ints()
        return f"<fp2 0x{a:x} + 0x{b:x}*a>"


# The square roots' two fixed Fp chains, each one tally of pow_raw's steps
# (fields.RawOps.pow): x^((p+1)/4), a root of x if x is a square, and
# x^((p-3)/4), whose product with x is that root.
for _name, _exp in (("pow_sqrt", (P + 1) // 4), ("pow_p34", (P - 3) // 4)):
    kernel(_name, X1)(lambda o, a, _exp=_exp: o.pow(a, _exp))
pow_sqrt, pow_p34 = _method("pow_sqrt"), _method("pow_p34")


def fp_sqrt(x: FieldElement):
    """Square root in Fp (p = 3 mod 4), or None: one fixed chain."""
    cand = pow_sqrt(x)
    return cand if cand.square() == x else None


def fp2_sqrt(a: Fp2El):
    """Square root in Fp2, or None if a is a non-square, by the norm
    ("complex") method of Adj and Rodriguez-Henriquez (IEEE TC 2014): two
    fixed Fp chains, no inversion. With s a root of the norm a0^2 + a1^2
    and t = (a0 + s)/2, or (a0 - s)/2 if that is 0, u = t^((p-3)/4) gives
    the root (u t, a1 u/2) when t is a square (u^2 t = 1), and otherwise,
    when -t is one, (a1 u/2, -u t). Decoding runs it uncounted."""
    a0, a1 = a.c0, a.c1
    s = fp_sqrt(a0.square() + a1.square())
    if s is None:
        return None
    half = a.engine.fp((P + 1) // 2)
    t = (a0 + s) * half
    if t.is_zero():
        t = (a0 - s) * half
    u = pow_p34(t)
    ut, v = u * t, a1 * u * half
    cand = Fp2El(ut, v) if u * ut == a.engine.fp(1) else Fp2El(v, -ut)
    return cand if cand.square() == a else None


# componentwise: Fp6 add/sub/neg apply the Fp2 op to each coefficient, Fp12
# add/sub/neg the Fp6 op to each half, in order
for _name, _part, _shape, _arity in (
        ("fp6_add", "add2", X6, 2), ("fp6_sub", "sub2", X6, 2),
        ("fp6_neg", "neg2", X6, 1), ("fp12_add", "fp6_add", X12, 2),
        ("fp12_sub", "fp6_sub", X12, 2), ("fp12_neg", "fp6_neg", X12, 1)):
    kernel(_name, *(_shape,) * _arity)(
        lambda o, *a, _part=_part: tuple(map(getattr(o, _part), *a)))


def _fp6_nonres(o, a):
    # multiply by beta: (c0, c1, c2) -> (xi*c2, c0, c1)
    return o.xi2(a[2]), a[0], a[1]


@kernel("fp6_mul", X6, X6)
def _fp6_mul(o, a, b):
    # Karatsuba over the cubic: 6 Fp2 muls
    mul, add, sub, xi = o.mul2, o.add2, o.sub2, o.xi2
    (a0, a1, a2), (b0, b1, b2) = a, b
    v0 = mul(a0, b0)
    v1 = mul(a1, b1)
    v2 = mul(a2, b2)
    t0 = xi(sub(sub(mul(add(a1, a2), add(b1, b2)), v1), v2))
    t1 = sub(sub(mul(add(a0, a1), add(b0, b1)), v0), v1)
    t2 = sub(sub(mul(add(a0, a2), add(b0, b2)), v0), v2)
    return add(v0, t0), add(t1, xi(v2)), add(t2, v1)


@kernel("fp6_sqr", X6)
def _fp6_sqr(o, a):
    # 2 Fp2 muls + 3 Fp2 squarings
    mul, sqr, add, sub, xi = o.mul2, o.sqr2, o.add2, o.sub2, o.xi2
    a0, a1, a2 = a
    s0 = sqr(a0)
    ab = mul(a0, a1)
    s1 = add(ab, ab)
    s2 = sqr(add(sub(a0, a1), a2))
    bc = mul(a1, a2)
    s3 = add(bc, bc)
    s4 = sqr(a2)
    return (add(s0, xi(s3)), add(s1, xi(s4)),
            sub(sub(add(add(s1, s2), s3), s0), s4))


@kernel("fp6_inv", X6)
def _fp6_inv(o, a):
    # 9 Fp2 muls + 3 squarings + one Fp2 inversion
    mul, sqr, add, sub, xi = o.mul2, o.sqr2, o.add2, o.sub2, o.xi2
    a0, a1, a2 = a
    t0 = sub(sqr(a0), xi(mul(a1, a2)))
    t1 = sub(xi(sqr(a2)), mul(a0, a1))
    t2 = sub(sqr(a1), mul(a0, a2))
    d = add(mul(a0, t0), xi(add(mul(a2, t1), mul(a1, t2))))
    dinv = o.inv2(d)
    return mul(t0, dinv), mul(t1, dinv), mul(t2, dinv)


@kernel("fp12_conj", X12)
def _fp12_conj(o, a):
    """f^(p^6): negation of the gamma half."""
    return a[0], o.fp6_neg(a[1])


@kernel("fp12_mul", X12, X12)
def _fp12_mul(o, a, b):
    # Karatsuba over the quadratic: 3 Fp6 muls = 18 Fp2 muls
    mul, add, sub = o.fp6_mul, o.fp6_add, o.fp6_sub
    (a0, a1), (b0, b1) = a, b
    v0 = mul(a0, b0)
    v1 = mul(a1, b1)
    c1 = sub(sub(mul(add(a0, a1), add(b0, b1)), v0), v1)
    return add(v0, _fp6_nonres(o, v1)), c1


@kernel("fp12_sqr", X12)
def _fp12_sqr(o, a):
    # complex method: 2 Fp6 muls = 12 Fp2 muls
    mul, add, sub = o.fp6_mul, o.fp6_add, o.fp6_sub
    a0, a1 = a
    v = mul(a0, a1)
    t = mul(add(a0, a1), add(a0, _fp6_nonres(o, a1)))
    return sub(sub(t, v), _fp6_nonres(o, v)), add(v, v)


@kernel("fp12_inv", X12)
def _fp12_inv(o, a):
    a0, a1 = a
    t = o.fp6_inv(o.fp6_sub(o.fp6_sqr(a0), _fp6_nonres(o, o.fp6_sqr(a1))))
    return o.fp6_mul(a0, t), o.fp6_neg(o.fp6_mul(a1, t))


@kernel("fp12_cyclo_sqr", X12)
def _fp12_cyclo_sqr(o, f):
    """Squaring valid only in the cyclotomic subgroup: 9 Fp2 squarings.

    Works on the three Fp4 sub-planes of the z-degree grid
    (0,3), (1,4), (2,5); for x in the subgroup, x^2 has the closed
    Granger-Scott form below.
    """
    sqr, add, sub, xi = o.sqr2, o.add2, o.sub2, o.xi2
    (x0, x2, x4), (x1, x3, x5) = f     # even, odd z-degrees

    def fp4_sq(a, b):
        t0 = sqr(a)
        t1 = sqr(b)
        cross = sub(sub(sqr(add(a, b)), t0), t1)
        return add(t0, xi(t1)), cross

    def re_part(t, x):
        d = sub(t, x)
        return add(add(d, d), t)      # 3t - 2x

    def im_part(t, x):
        d = add(t, x)
        return add(add(d, d), t)      # 3t + 2x

    a0, a1 = fp4_sq(x0, x3)
    b0, b1 = fp4_sq(x1, x4)
    c0, c1 = fp4_sq(x2, x5)
    return ((re_part(a0, x0), re_part(b0, x2), re_part(c0, x4)),
            (im_part(xi(c1), x1), im_part(a1, x3), im_part(b1, x5)))


def _frobenius(power):
    """The kernel of pi^power on the z-degree grid: conjugate (odd powers) and
    scale the degree-d coefficient by k[d] (an Fp2 constant, Fp for pi^2)."""
    def frob(o, f, k):
        (c0, c2, c4), (c1, c3, c5) = f
        out = []
        for d, c in enumerate((c0, c1, c2, c3, c4, c5)):
            if power != 2:
                c = o.conj2(c)
            if d:
                c = o.mul_fp(c, k[d]) if power == 2 else o.mul2(c, k[d])
            out.append(c)
        return (out[0], out[2], out[4]), (out[1], out[3], out[5])
    return frob


for _power, _k in ((1, X2), (2, X1), (3, X2)):
    kernel(f"frob{_power}", X12, (_k,) * 6)(_frobenius(_power))


class Fp6El(_Value, part=Fp2El, names=("c0", "c1", "c2"), field="fp"):
    __slots__ = ()

    @staticmethod
    def zero(engine) -> "Fp6El":
        return Fp6El(Fp2El.zero(engine), Fp2El.zero(engine), Fp2El.zero(engine))

    @staticmethod
    def one(engine) -> "Fp6El":
        return Fp6El(Fp2El.one(engine), Fp2El.zero(engine), Fp2El.zero(engine))

    __add__ = _method("fp6_add")
    __sub__ = _method("fp6_sub")
    __neg__ = _method("fp6_neg")
    __mul__ = _method("fp6_mul")
    square = _method("fp6_sqr")
    inverse = _method("fp6_inv", inverse=True)


class Fp12El(_Value, part=Fp6El, names=("c0", "c1"), field="fp"):
    __slots__ = ()

    @staticmethod
    def one(engine) -> "Fp12El":
        return Fp12El(Fp6El.one(engine), Fp6El.zero(engine))

    __add__ = _method("fp12_add")
    __sub__ = _method("fp12_sub")
    __neg__ = _method("fp12_neg")
    __mul__ = _method("fp12_mul")
    square = _method("fp12_sqr")
    inverse = _method("fp12_inv", inverse=True)
    conjugate = _method("fp12_conj")                # f^(p^6)
    cyclotomic_square = _method("fp12_cyclo_sqr")   # cyclotomic subgroup only

    def is_one(self) -> bool:
        return self == Fp12El.one(self.engine)

    def coeffs(self) -> list[Fp2El]:
        """Coefficients indexed by z-degree 0..5."""
        return [self.c0.c0, self.c1.c0, self.c0.c1,
                self.c1.c1, self.c0.c2, self.c1.c2]

    @staticmethod
    def from_coeffs(cs) -> "Fp12El":
        """The inverse of coeffs(); perfbench/run.py builds operands with it."""
        return Fp12El(Fp6El(cs[0], cs[2], cs[4]), Fp6El(cs[1], cs[3], cs[5]))


class TowerCtx:
    """The Frobenius and skew constants (params.FROB1/2/3, SKEW_CX/CY), built
    on each engine at its first use of .tower.

    frob[power] holds the constants of pi^power by z-degree as raw values,
    the constant operands of the frob1/frob2/frob3 kernels; skew_cx and
    skew_cy are Fp2 elements (curve.skew_frobenius).
    """

    def __init__(self, engine):
        def fp2(c):
            return Fp2El.of(engine, *c).val
        self.frob = {1: tuple(map(fp2, FROB1)),
                     2: tuple(engine.fp(c).val for c in FROB2),
                     3: tuple(map(fp2, FROB3))}
        self.skew_cx = Fp2El.of(engine, *SKEW_CX)
        self.skew_cy = Fp2El.of(engine, *SKEW_CY)

    def frobenius(self, f: Fp12El, power: int) -> Fp12El:
        _expect(f, Fp12El)
        if power == 6:
            return f.conjugate()
        if power not in (1, 2, 3):
            raise ValueError(f"unsupported Frobenius power {power}")
        return Fp12El._wrap(f.o, f.o.apply(f"frob{power}", f.val,
                                           self.frob[power]))
