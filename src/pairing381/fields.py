"""Prime-field engine for Fp and Fq with intrusive operation counting.

An Engine owns the parameters, the counter state, and an optional trace sink.
Two backends produce bit-identical values and counter streams: "bigint" does
Montgomery reduction on Python integers and charges the word counters from the
CIOS law, "words" executes the instrumented word-array loops in cios.py.

Counting rules (the whole artifact depends on these):
  * every mul/sqr/add/sub/neg/inv on a field element bumps exactly one
    base counter, unconditionally;
  * multiplications executed inside an inversion's exponentiation chain go to
    inv_m1/inv_mq, never to m1/mq, so an inversion's full fixed cost is
    carried by its i-counter exactly once;
  * Fp work nested inside an Fp2 operation goes to its own buckets
    (m1_in2, ...), never to m1/s1/a1/i1, which count direct Fp work only;
    the raw Fp view is the sum of the two, and the trace names both m1, ...;
  * conversions into and out of Montgomery form are I/O boundary work and are
    not counted;
  * constant-time selects are bit logic, not arithmetic, and are not counted.
"""

from contextlib import contextmanager

from .cios import cios_mont_mul, from_limbs, to_limbs, word_mod_add, word_mod_sub
from .counters import OpCounter
from .params import system_params


class FieldElement:
    """An element of Fp or Fq in Montgomery form, bound to its engine."""

    __slots__ = ("engine", "spec", "val")

    def __init__(self, engine, spec, val):
        self.engine = engine
        self.spec = spec
        self.val = val

    def __add__(self, other):
        return self.engine.mod_add(self, other)

    def __sub__(self, other):
        return self.engine.mod_sub(self, other)

    def __neg__(self):
        return self.engine.mod_neg(self)

    def __mul__(self, other):
        return self.engine.mont_mul(self, other)

    def square(self):
        return self.engine.mont_sqr(self)

    def inverse(self):
        return self.engine.mont_inv(self)

    def is_zero(self) -> bool:
        if isinstance(self.val, tuple):
            return not any(self.val)
        return self.val == 0

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.spec is other.spec and self.val == other.val

    def __hash__(self):
        return hash((self.spec.name, self.val))

    def to_int(self) -> int:
        return self.engine.from_mont(self)

    def to_bytes(self) -> bytes:
        return self.to_int().to_bytes(self.spec.byte_len, "big")

    def __repr__(self):
        return f"<{self.spec.name} 0x{self.to_int():x}>"


def pow_public(x, exp: int):
    """x^exp by MSB-first square-and-multiply, for a public exponent exp >= 1.

    Works on any element with square() and *. The sequence of operations
    depends on exp, so exp must never be secret.
    """
    acc = x
    for bit in bin(exp)[3:]:
        acc = acc.square()
        if bit == "1":
            acc = acc * x
    return acc


class Engine:
    """Field arithmetic context: parameters, counters, trace, backend."""

    def __init__(self, word_size: int = 64, backend: str = "bigint"):
        if backend not in ("bigint", "words"):
            raise ValueError(f"unknown backend {backend!r}")
        self.params = system_params(word_size)
        self.backend = backend
        self.counter = OpCounter()
        self.trace = None            # list to append op kinds to, or None
        self.fp_spec = self.params.fp
        self.fq_spec = self.params.fq
        self._suspend = 0
        self._in_inv = 0
        self._fp2_depth = 0
        self._scratch = OpCounter()  # sink for word ops while suspended
        self._tower = None
        self._curve = None
        self._jubjub = None

    # ----- element construction (uncounted boundary work) -----

    def fp(self, value: int) -> FieldElement:
        return self._make(self.fp_spec, value % self.fp_spec.modulus)

    def fq(self, value: int) -> FieldElement:
        return self._make(self.fq_spec, value % self.fq_spec.modulus)

    def from_mont(self, x: FieldElement) -> int:
        v = from_limbs(x.val, x.spec) if self.backend == "words" else x.val
        return v * x.spec.rinv % x.spec.modulus

    def _make(self, spec, reduced: int) -> FieldElement:
        mont = reduced * spec.r1 % spec.modulus
        if self.backend == "words":
            mont = to_limbs(mont, spec)
        return FieldElement(self, spec, mont)

    # ----- counted arithmetic -----

    def mod_add(self, x: FieldElement, y: FieldElement) -> FieldElement:
        spec = self._common_spec(x, y)
        self._bump(spec, "a")
        if self.backend == "words":
            val = word_mod_add(x.val, y.val, spec, self._wsink())
        else:
            val = x.val + y.val
            val -= spec.modulus * (val >= spec.modulus)
            self._charge_words(0, spec.word_adds_per_modadd)
        return FieldElement(self, spec, val)

    def mod_sub(self, x: FieldElement, y: FieldElement) -> FieldElement:
        spec = self._common_spec(x, y)
        self._bump(spec, "a")
        if self.backend == "words":
            val = word_mod_sub(x.val, y.val, spec, self._wsink())
        else:
            val = x.val - y.val
            val += spec.modulus * (val < 0)
            self._charge_words(0, spec.word_adds_per_modsub)
        return FieldElement(self, spec, val)

    def mod_neg(self, x: FieldElement) -> FieldElement:
        spec = x.spec
        self._bump(spec, "a")
        if self.backend == "words":
            zero = (0,) * spec.limbs
            val = word_mod_sub(zero, x.val, spec, self._wsink())
        else:
            val = -x.val
            val += spec.modulus * (val < 0)
            self._charge_words(0, spec.word_adds_per_modsub)
        return FieldElement(self, spec, val)

    def mont_mul(self, x: FieldElement, y: FieldElement) -> FieldElement:
        spec = self._common_spec(x, y)
        self._bump(spec, "m")
        return FieldElement(self, spec, self._raw_mul(x.val, y.val, spec))

    def mont_sqr(self, x: FieldElement) -> FieldElement:
        spec = x.spec
        self._bump(spec, "s")
        return FieldElement(self, spec, self._raw_mul(x.val, x.val, spec))

    def mont_inv(self, x: FieldElement) -> FieldElement:
        """x^(modulus-2) by fixed MSB-first square-and-multiply.

        The chain length depends only on the public modulus: 380 squarings and
        228 multiplications for Fp, 254 and 163 for Fq. Those go to the
        inversion-internal counters; the i-counter itself advances by one.
        """
        if x.is_zero():
            raise ZeroDivisionError(f"inversion of zero in {x.spec.name}")
        self._bump(x.spec, "i")
        self._in_inv += 1
        try:
            return pow_public(x, x.spec.modulus - 2)
        finally:
            self._in_inv -= 1

    def _raw_mul(self, a, b, spec):
        if self.backend == "words":
            return cios_mont_mul(a, b, spec, self._wsink())
        t = a * b
        m = (t * spec.np_full) & spec.full_mask
        t = (t + m * spec.modulus) >> spec.rbits
        t -= spec.modulus * (t >= spec.modulus)
        self._charge_words(spec.words_per_mul, spec.word_adds_per_mul)
        return t

    # ----- constant-time select (bit logic, uncounted) -----

    def select(self, flag: int, a: FieldElement, b: FieldElement) -> FieldElement:
        """flag must be 0 or 1; returns a if flag else b, via masking."""
        spec = a.spec
        if self.backend == "words":
            m = -flag & spec.word_mask
            val = tuple((x & m) | (y & ~m & spec.word_mask)
                        for x, y in zip(a.val, b.val))
        else:
            m = -flag & spec.full_mask
            val = (a.val & m) | (b.val & ~m & spec.full_mask)
        return FieldElement(self, spec, val)

    # ----- counter plumbing -----

    def _bump(self, spec, kind: str) -> None:
        if self._suspend:
            return
        name = kind + ("1" if spec.name == "fp" else "q")
        if self.trace is not None:
            self.trace.append(name)
        c = self.counter
        if self._in_inv and kind in ("m", "s"):
            if spec.name == "fp":
                c.inv_m1 += 1
            else:
                c.inv_mq += 1
            return
        if self._fp2_depth and spec.name == "fp":
            name += "_in2"
        setattr(c, name, getattr(c, name) + 1)

    def _bump2(self, kind: str) -> None:
        if self._suspend:
            return
        name = kind + "2"
        if self.trace is not None:
            self.trace.append(name)
        setattr(self.counter, name, getattr(self.counter, name) + 1)

    @contextmanager
    def _fp2_scope(self, kind: str):
        self._bump2(kind)
        self._fp2_depth += 1
        try:
            yield
        finally:
            self._fp2_depth -= 1

    def _wsink(self):
        return self._scratch if self._suspend else self.counter

    def _charge_words(self, muls: int, adds: int) -> None:
        if self._suspend:
            return
        self.counter.word_mul += muls
        self.counter.word_add += adds

    @contextmanager
    def uncounted(self):
        """Suspend all counting and tracing; for init-time constant derivation."""
        self._suspend += 1
        try:
            yield
        finally:
            self._suspend -= 1

    @contextmanager
    def tracing(self, sink: list):
        prev = self.trace
        self.trace = sink
        try:
            yield sink
        finally:
            self.trace = prev

    def _common_spec(self, x: FieldElement, y: FieldElement):
        if x.spec is not y.spec or x.engine is not y.engine:
            raise TypeError("operands from different fields or engines")
        return x.spec

    # ----- lazily built higher-layer contexts -----

    @property
    def tower(self):
        if self._tower is None:
            from .tower import TowerCtx
            self._tower = TowerCtx(self)
        return self._tower

    @property
    def curve(self):
        if self._curve is None:
            from .curve import CurveCtx
            self._curve = CurveCtx(self)
        return self._curve

    @property
    def jubjub(self):
        if self._jubjub is None:
            from .jubjub import JubjubCtx
            self._jubjub = JubjubCtx(self)
        return self._jubjub

    # ----- self-test hooks -----

    def inject_fault(self) -> None:
        """Flip one bit of the Fp Montgomery constant n' (self-test hook).

        The shared parameter cache must stay pristine, so the corrupted spec
        is a private copy.
        """
        import copy

        spec = copy.copy(self.fp_spec)
        spec.np_full ^= 1 << 7
        spec.np0 = spec.np_full & spec.word_mask
        self.fp_spec = spec
        self._tower = None
        self._curve = None

    def montgomery_sane(self) -> bool:
        """Cheap invariant: to/from Montgomery round-trip and 1*1 == 1."""
        try:
            one = self.fp(1)
            if (one * one).to_int() != 1:
                return False
            probe = self.fp(0x1234567890ABCDEF)
            if (probe * one).to_int() != 0x1234567890ABCDEF:
                return False
            x = self.fp(3)
            if (x.inverse() * x).to_int() != 1:
                return False
        except ZeroDivisionError:
            return False
        return True
