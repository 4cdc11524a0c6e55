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
Fp6/Fp12 operations bump only their Fp2-level constituents. Multiplying an
Fp2 element by a plain Fp scalar is charged as two direct Fp muls, not as an
Fp2 op. Each Fp2 op charges all of this in one engine tally
(fields.STEPS) and then computes on raw values.
"""

from .fields import FieldElement, pow_public
from .params import P


class Fp2El:
    __slots__ = ("c0", "c1")

    def __init__(self, c0: FieldElement, c1: FieldElement):
        self.c0 = c0
        self.c1 = c1

    @property
    def engine(self):
        return self.c0.engine

    @staticmethod
    def of(engine, a0: int, a1: int) -> "Fp2El":
        return Fp2El(engine.fp(a0), engine.fp(a1))

    @staticmethod
    def zero(engine) -> "Fp2El":
        return Fp2El.of(engine, 0, 0)

    @staticmethod
    def one(engine) -> "Fp2El":
        return Fp2El.of(engine, 1, 0)

    # Each operation is one engine tally plus raw arithmetic, in the step
    # order of its fields.STEPS entry.

    def __add__(self, other: "Fp2El") -> "Fp2El":
        e = self.c0.engine
        spec = e.charge("add2", self.c0, self.c1, other.c0, other.c1)
        add = e.raw_add
        return _fp2(e, spec, add(self.c0.val, other.c0.val, spec),
                    add(self.c1.val, other.c1.val, spec))

    def __sub__(self, other: "Fp2El") -> "Fp2El":
        e = self.c0.engine
        spec = e.charge("sub2", self.c0, self.c1, other.c0, other.c1)
        sub = e.raw_sub
        return _fp2(e, spec, sub(self.c0.val, other.c0.val, spec),
                    sub(self.c1.val, other.c1.val, spec))

    def __neg__(self) -> "Fp2El":
        e = self.c0.engine
        spec = e.charge("neg2", self.c0, self.c1)
        neg = e.raw_neg
        return _fp2(e, spec, neg(self.c0.val, spec), neg(self.c1.val, spec))

    def __mul__(self, other: "Fp2El") -> "Fp2El":
        # Karatsuba: v0 = a0 b0, v1 = a1 b1, c1 = (a0 + a1)(b0 + b1) - v0 - v1
        e = self.c0.engine
        spec = e.charge("mul2", self.c0, self.c1, other.c0, other.c1)
        mul, add, sub = e.raw_mul, e.raw_add, e.raw_sub
        a0, a1, b0, b1 = self.c0.val, self.c1.val, other.c0.val, other.c1.val
        v0 = mul(a0, b0, spec)
        v1 = mul(a1, b1, spec)
        s = add(a0, a1, spec)
        t = add(b0, b1, spec)
        c0 = sub(v0, v1, spec)
        return _fp2(e, spec, c0, sub(sub(mul(s, t, spec), v0, spec), v1, spec))

    def square(self) -> "Fp2El":
        # complex method: (a0 + a1)(a0 - a1) + 2 a0 a1 alpha
        e = self.c0.engine
        spec = e.charge("sqr2", self.c0, self.c1)
        mul, add = e.raw_mul, e.raw_add
        a0, a1 = self.c0.val, self.c1.val
        t = mul(add(a0, a1, spec), e.raw_sub(a0, a1, spec), spec)
        c1 = mul(a0, a1, spec)
        return _fp2(e, spec, t, add(c1, c1, spec))

    def inverse(self) -> "Fp2El":
        # norm descent: 1/(a0 + a1 alpha) = (a0 - a1 alpha) / (a0^2 + a1^2)
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero in fp2")
        e = self.c0.engine
        spec = e.charge("inv2", self.c0, self.c1)
        mul = e.raw_mul
        a0, a1 = self.c0.val, self.c1.val
        n = e.raw_add(mul(a0, a0, spec), mul(a1, a1, spec), spec)
        t = e.raw_inv(n, spec)
        return _fp2(e, spec, mul(a0, t, spec), e.raw_neg(mul(a1, t, spec), spec))

    def conjugate(self) -> "Fp2El":
        e = self.c0.engine
        spec = e.charge("conj2", self.c0, self.c1)
        return Fp2El(self.c0, FieldElement(e, spec, e.raw_neg(self.c1.val, spec)))

    def mul_by_xi(self) -> "Fp2El":
        # (1 + alpha)(a0 + a1 alpha) = (a0 - a1) + (a0 + a1) alpha
        e = self.c0.engine
        spec = e.charge("xi2", self.c0, self.c1)
        a0, a1 = self.c0.val, self.c1.val
        return _fp2(e, spec, e.raw_sub(a0, a1, spec), e.raw_add(a0, a1, spec))

    def mul_fp(self, k: FieldElement) -> "Fp2El":
        e = self.c0.engine
        spec = e.charge("mul_fp", self.c0, self.c1, k)
        mul = e.raw_mul
        return _fp2(e, spec, mul(self.c0.val, k.val, spec),
                    mul(self.c1.val, k.val, spec))

    def is_zero(self) -> bool:
        return self.c0.is_zero() and self.c1.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Fp2El):
            return NotImplemented
        return self.c0 == other.c0 and self.c1 == other.c1

    def __hash__(self):
        return hash((self.c0, self.c1))

    def to_ints(self) -> tuple[int, int]:
        return (self.c0.to_int(), self.c1.to_int())

    def __repr__(self):
        a, b = self.to_ints()
        return f"<fp2 0x{a:x} + 0x{b:x}*a>"



def _fp2(e, spec, v0, v1) -> Fp2El:
    return Fp2El(FieldElement(e, spec, v0), FieldElement(e, spec, v1))


def fp_sqrt(x: FieldElement):
    """Square root in Fp (p = 3 mod 4), or None. Fixed public-exponent chain."""
    cand = pow_public(x, (P + 1) // 4)
    return cand if cand.square() == x else None


def fp2_sqrt(a: Fp2El):
    """Square root in Fp2 for p = 3 mod 4, or None if a is a non-residue."""
    e = a.engine
    if a.is_zero():
        return Fp2El.zero(e)
    a1 = pow_public(a, (P - 3) // 4)
    x0 = a1 * a
    alpha = a1 * x0                       # a^((p-1)/2)
    minus_one = Fp2El.of(e, P - 1, 0)
    if alpha == minus_one:
        # sqrt = alpha_gen * x0 where alpha_gen^2 = -1
        cand = Fp2El(-x0.c1, x0.c0)       # multiply by alpha: (a0+a1*al)*al
    else:
        cand = pow_public(alpha + Fp2El.one(e), (P - 1) // 2) * x0
    return cand if cand.square() == a else None


class Fp6El:
    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0: Fp2El, c1: Fp2El, c2: Fp2El):
        self.c0 = c0
        self.c1 = c1
        self.c2 = c2

    @property
    def engine(self):
        return self.c0.engine

    @staticmethod
    def zero(engine) -> "Fp6El":
        return Fp6El(Fp2El.zero(engine), Fp2El.zero(engine), Fp2El.zero(engine))

    @staticmethod
    def one(engine) -> "Fp6El":
        return Fp6El(Fp2El.one(engine), Fp2El.zero(engine), Fp2El.zero(engine))

    def __add__(self, o: "Fp6El") -> "Fp6El":
        return Fp6El(self.c0 + o.c0, self.c1 + o.c1, self.c2 + o.c2)

    def __sub__(self, o: "Fp6El") -> "Fp6El":
        return Fp6El(self.c0 - o.c0, self.c1 - o.c1, self.c2 - o.c2)

    def __neg__(self) -> "Fp6El":
        return Fp6El(-self.c0, -self.c1, -self.c2)

    def __mul__(self, o: "Fp6El") -> "Fp6El":
        # Karatsuba over the cubic: 6 Fp2 muls
        v0 = self.c0 * o.c0
        v1 = self.c1 * o.c1
        v2 = self.c2 * o.c2
        t0 = ((self.c1 + self.c2) * (o.c1 + o.c2) - v1 - v2).mul_by_xi()
        t1 = (self.c0 + self.c1) * (o.c0 + o.c1) - v0 - v1
        t2 = (self.c0 + self.c2) * (o.c0 + o.c2) - v0 - v2
        return Fp6El(v0 + t0, t1 + v2.mul_by_xi(), t2 + v1)

    def square(self) -> "Fp6El":
        # 2 Fp2 muls + 3 Fp2 squarings
        s0 = self.c0.square()
        ab = self.c0 * self.c1
        s1 = ab + ab
        s2 = (self.c0 - self.c1 + self.c2).square()
        bc = self.c1 * self.c2
        s3 = bc + bc
        s4 = self.c2.square()
        return Fp6El(
            s0 + s3.mul_by_xi(),
            s1 + s4.mul_by_xi(),
            s1 + s2 + s3 - s0 - s4,
        )

    def inverse(self) -> "Fp6El":
        # 9 Fp2 muls + 3 squarings + one Fp2 inversion
        a0, a1, a2 = self.c0, self.c1, self.c2
        t0 = a0.square() - (a1 * a2).mul_by_xi()
        t1 = a2.square().mul_by_xi() - a0 * a1
        t2 = a1.square() - a0 * a2
        d = a0 * t0 + ((a2 * t1) + (a1 * t2)).mul_by_xi()
        dinv = d.inverse()
        return Fp6El(t0 * dinv, t1 * dinv, t2 * dinv)

    def mul_by_nonres(self) -> "Fp6El":
        # multiply by beta: (c0, c1, c2) -> (xi*c2, c0, c1)
        return Fp6El(self.c2.mul_by_xi(), self.c0, self.c1)

    def __eq__(self, other):
        if not isinstance(other, Fp6El):
            return NotImplemented
        return self.c0 == other.c0 and self.c1 == other.c1 and self.c2 == other.c2

    def __hash__(self):
        return hash((self.c0, self.c1, self.c2))


class Fp12El:
    __slots__ = ("c0", "c1")

    def __init__(self, c0: Fp6El, c1: Fp6El):
        self.c0 = c0
        self.c1 = c1

    @property
    def engine(self):
        return self.c0.engine

    @staticmethod
    def one(engine) -> "Fp12El":
        return Fp12El(Fp6El.one(engine), Fp6El.zero(engine))

    def __add__(self, o: "Fp12El") -> "Fp12El":
        return Fp12El(self.c0 + o.c0, self.c1 + o.c1)

    def __sub__(self, o: "Fp12El") -> "Fp12El":
        return Fp12El(self.c0 - o.c0, self.c1 - o.c1)

    def __neg__(self) -> "Fp12El":
        return Fp12El(-self.c0, -self.c1)

    def __mul__(self, o: "Fp12El") -> "Fp12El":
        # Karatsuba over the quadratic: 3 Fp6 muls = 18 Fp2 muls
        v0 = self.c0 * o.c0
        v1 = self.c1 * o.c1
        c1 = (self.c0 + self.c1) * (o.c0 + o.c1) - v0 - v1
        return Fp12El(v0 + v1.mul_by_nonres(), c1)

    def square(self) -> "Fp12El":
        # complex method: 2 Fp6 muls = 12 Fp2 muls
        v = self.c0 * self.c1
        t = (self.c0 + self.c1) * (self.c0 + self.c1.mul_by_nonres())
        c0 = t - v - v.mul_by_nonres()
        return Fp12El(c0, v + v)

    def inverse(self) -> "Fp12El":
        t = (self.c0.square() - self.c1.square().mul_by_nonres()).inverse()
        return Fp12El(self.c0 * t, -(self.c1 * t))

    def conjugate(self) -> "Fp12El":
        """f^(p^6): negation of the gamma half."""
        return Fp12El(self.c0, -self.c1)

    def cyclotomic_square(self) -> "Fp12El":
        """Squaring valid only in the cyclotomic subgroup: 9 Fp2 squarings.

        Works on the three Fp4 sub-planes of the z-degree grid
        (0,3), (1,4), (2,5); for x in the subgroup, x^2 has the closed
        Granger-Scott form below.
        """
        e = self.engine
        x0, x2, x4 = self.c0.c0, self.c0.c1, self.c0.c2   # even z-degrees
        x1, x3, x5 = self.c1.c0, self.c1.c1, self.c1.c2   # odd z-degrees

        def fp4_sq(a: Fp2El, b: Fp2El):
            t0 = a.square()
            t1 = b.square()
            cross = (a + b).square() - t0 - t1
            return t0 + t1.mul_by_xi(), cross

        a0, a1 = fp4_sq(x0, x3)
        b0, b1 = fp4_sq(x1, x4)
        c0, c1 = fp4_sq(x2, x5)

        def re_part(t: Fp2El, x: Fp2El) -> Fp2El:
            d = t - x
            return d + d + t          # 3t - 2x

        def im_part(t: Fp2El, x: Fp2El) -> Fp2El:
            d = t + x
            return d + d + t          # 3t + 2x

        return Fp12El(
            Fp6El(re_part(a0, x0), re_part(b0, x2), re_part(c0, x4)),
            Fp6El(im_part(c1.mul_by_xi(), x1), im_part(a1, x3), im_part(b1, x5)),
        )

    def is_one(self) -> bool:
        return self == Fp12El.one(self.engine)

    def __eq__(self, other):
        if not isinstance(other, Fp12El):
            return NotImplemented
        return self.c0 == other.c0 and self.c1 == other.c1

    def __hash__(self):
        return hash((self.c0, self.c1))

    def coeffs(self) -> list[Fp2El]:
        """Coefficients indexed by z-degree 0..5."""
        return [self.c0.c0, self.c1.c0, self.c0.c1,
                self.c1.c1, self.c0.c2, self.c1.c2]

    @staticmethod
    def from_coeffs(cs) -> "Fp12El":
        return Fp12El(Fp6El(cs[0], cs[2], cs[4]), Fp6El(cs[1], cs[3], cs[5]))


class TowerCtx:
    """Per-engine Frobenius constants, derived at first use and self-checked.

    zeta = xi^((p-1)/6); the constant applied to the z-degree-d coefficient is
    zeta^d for pi, its Fp norm for pi^2, and their product for pi^3. Nothing
    here is transcribed from tables.
    """

    def __init__(self, engine):
        self.engine = engine
        with engine.uncounted():
            xi = Fp2El.of(engine, 1, 1)
            zeta = pow_public(xi, (P - 1) // 6)
            self.frob1 = [Fp2El.one(engine)]
            for _ in range(5):
                self.frob1.append(self.frob1[-1] * zeta)
            self.frob2 = []
            self.frob3 = []
            for d in range(6):
                norm = self.frob1[d] * self.frob1[d].conjugate()
                assert norm.c1.is_zero()
                self.frob2.append(norm.c0)
                self.frob3.append(self.frob1[d].mul_fp(norm.c0))
            # skew Frobenius constants for the twist endomorphism
            self.skew_cx = self.frob1[2].inverse()
            self.skew_cy = self.frob1[3].inverse()
            self._self_check()

    def _self_check(self):
        e = self.engine
        probe = Fp12El(
            Fp6El(Fp2El.of(e, 3, 1), Fp2El.of(e, 1, 4), Fp2El.of(e, 1, 5)),
            Fp6El(Fp2El.of(e, 9, 2), Fp2El.of(e, 6, 5), Fp2El.of(e, 3, 5)),
        )
        f = probe
        for _ in range(12):
            f = self.frobenius(f, 1)
        assert f == probe, "pi^12 != identity"
        f2 = self.frobenius(self.frobenius(probe, 1), 1)
        assert f2 == self.frobenius(probe, 2), "pi^2 constants wrong"
        f3 = self.frobenius(f2, 1)
        assert f3 == self.frobenius(probe, 3), "pi^3 constants wrong"
        f6 = probe
        for _ in range(6):
            f6 = self.frobenius(f6, 1)
        assert f6 == probe.conjugate(), "pi^6 is not conjugation"

    def frobenius(self, f: Fp12El, power: int) -> Fp12El:
        if power == 6:
            return f.conjugate()
        if power not in (1, 2, 3):
            raise ValueError(f"unsupported Frobenius power {power}")
        cs = f.coeffs()
        out = []
        for d, c in enumerate(cs):
            if power == 1:
                c = c.conjugate()
                if d:
                    c = c * self.frob1[d]
            elif power == 2:
                if d:
                    c = c.mul_fp(self.frob2[d])
            else:
                c = c.conjugate()
                if d:
                    c = c * self.frob3[d]
            out.append(c)
        return Fp12El.from_coeffs(out)
