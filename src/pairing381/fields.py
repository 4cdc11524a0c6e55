"""Prime-field engine for Fp and Fq with intrusive operation counting.

An Engine owns the parameters, the counter state, and an optional trace sink.
Two backends produce bit-identical values and counter streams: "bigint" does
Montgomery reduction on Python integers and charges the word counters from the
CIOS law, "words" executes the instrumented word-array loops in cios.py.

Counting rules (the whole artifact depends on these):
  * every counted operation, Fp or Fp2, is one tally plus arithmetic on raw
    values. The tally applies a record built once per operation kind and field
    spec from the operation's steps (STEPS below): its counter increments and
    its trace tuple, in the order the operation runs its Fp-level steps. On
    bigint the record also holds the word-law increments; on words the cios.py
    loops charge the word counters as they run;
  * every mul/sqr/add/sub/neg/inv on a field element bumps exactly one
    base counter, unconditionally;
  * multiplications executed inside an inversion's exponentiation chain go to
    inv_m1/inv_mq, never to m1/mq, so an inversion's full fixed cost is
    carried by its i-counter exactly once;
  * Fp work nested inside an Fp2 operation goes to its own buckets
    (m1_in2, ...), never to m1/s1/a1/i1, which count direct Fp work only;
    the raw Fp view is the sum of the two, and the trace names both m1, ...;
  * under uncounted() a tally does nothing and the word loops charge a scratch
    counter;
  * conversions into and out of Montgomery form are I/O boundary work and are
    not counted;
  * constant-time selects are bit logic, not arithmetic, and are not counted.
"""

from collections import Counter
from contextlib import contextmanager

from .cios import cios_mont_mul, from_limbs, to_limbs, word_mod_add, word_mod_sub
from .counters import OpCounter
from .params import system_params

# Fp-level steps of each counted operation, in execution order: "m" mul,
# "s" square, "+" add, "-" sub or neg, "i" inversion (its i-counter, then the
# Fermat chain). An Fp2 operation first bumps its own counter, named here.
# The Fp2 bodies in tower.py run their steps in exactly this order.
STEPS = {
    "add": (None, "+"),
    "sub": (None, "-"),
    "neg": (None, "-"),
    "mul": (None, "m"),
    "sqr": (None, "s"),
    "inv": (None, "i"),
    "mul_fp": (None, "mm"),           # Fp2 times an Fp scalar: direct Fp work
    "add2": ("a2", "++"),
    "sub2": ("a2", "--"),
    "neg2": ("a2", "--"),
    "conj2": ("a2", "-"),
    "xi2": ("a2", "-+"),
    "mul2": ("m2", "mm++-m--"),       # v0 - v1 runs before s*t
    "sqr2": ("s2", "+-mm+"),
    "inv2": ("i2", "mm+imm-"),
}


def _record(spec, outer, steps, word_law):
    """(counter increments, trace tuple) of one operation over spec."""
    f = "1" if spec.name == "fp" else "q"
    nested = "_in2" if outer and spec.name == "fp" else ""
    chain = tuple(k + f for bit in bin(spec.modulus - 2)[3:]
                  for k in ("sm" if bit == "1" else "s"))
    mul_law = (spec.words_per_mul, spec.word_adds_per_mul)
    law = {"m": mul_law, "s": mul_law,
           "+": (0, spec.word_adds_per_modadd),
           "-": (0, spec.word_adds_per_modsub),
           "i": (len(chain) * mul_law[0], len(chain) * mul_law[1])}
    incs = Counter()
    trace = []
    if outer:
        incs[outer] += 1
        trace.append(outer)
    for step in steps:
        name = ("a" if step in "+-" else step) + f
        incs[name + nested] += 1
        trace.append(name)
        if step == "i":
            incs["inv_m" + f] += len(chain)
            trace += chain
        if word_law:
            incs["word_mul"] += law[step][0]
            incs["word_add"] += law[step][1]
    return tuple((k, n) for k, n in incs.items() if n), tuple(trace)


class _Records(dict):
    """spec -> {operation: record}, built on first use of each spec."""

    def __init__(self, word_law: bool):
        super().__init__()
        self.word_law = word_law

    def __missing__(self, spec):
        recs = {op: _record(spec, outer, steps, self.word_law)
                for op, (outer, steps) in STEPS.items()}
        self[spec] = recs
        return recs


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


def _big_mul(a, b, spec):
    n, mask = spec.modulus, spec.full_mask
    t = a * b
    m = (t & mask) * spec.np_full & mask     # only t mod R matters for m
    t = (t + m * n) >> spec.rbits
    return t - n * (t >= n)


def _big_add(a, b, spec):
    v = a + b
    return v - spec.modulus * (v >= spec.modulus)


def _big_sub(a, b, spec):
    v = a - b
    return v + spec.modulus * (v < 0)


def _big_neg(a, spec):
    v = -a
    return v + spec.modulus * (v < 0)


class Engine:
    """Field arithmetic context: parameters, counters, trace, backend.

    raw_mul(a, b, spec), raw_add, raw_sub and raw_neg(a, spec) are the
    backend's arithmetic on raw Montgomery values (ints on bigint, limb tuples
    on words). They count nothing themselves, except that the words versions
    run the cios.py loops, which charge their word operations as they go.
    """

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
        self._scratch = OpCounter()  # sink for word ops while suspended
        self._records = _Records(word_law=backend == "bigint")
        if backend == "words":
            self.raw_mul, self.raw_add = self._word_mul, self._word_add
            self.raw_sub, self.raw_neg = self._word_sub, self._word_neg
        else:
            self.raw_mul, self.raw_add = _big_mul, _big_add
            self.raw_sub, self.raw_neg = _big_sub, _big_neg
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
        spec = self.charge("add", x, y)
        return FieldElement(self, spec, self.raw_add(x.val, y.val, spec))

    def mod_sub(self, x: FieldElement, y: FieldElement) -> FieldElement:
        spec = self.charge("sub", x, y)
        return FieldElement(self, spec, self.raw_sub(x.val, y.val, spec))

    def mod_neg(self, x: FieldElement) -> FieldElement:
        spec = self.charge("neg", x)
        return FieldElement(self, spec, self.raw_neg(x.val, spec))

    def mont_mul(self, x: FieldElement, y: FieldElement) -> FieldElement:
        spec = self.charge("mul", x, y)
        return FieldElement(self, spec, self.raw_mul(x.val, y.val, spec))

    def mont_sqr(self, x: FieldElement) -> FieldElement:
        spec = self.charge("sqr", x)
        return FieldElement(self, spec, self.raw_mul(x.val, x.val, spec))

    def mont_inv(self, x: FieldElement) -> FieldElement:
        """x^(modulus-2) by fixed MSB-first square-and-multiply.

        The chain length depends only on the public modulus: 380 squarings and
        228 multiplications for Fp, 254 and 163 for Fq. Those go to the
        inversion-internal counters; the i-counter itself advances by one.
        """
        if x.is_zero():
            raise ZeroDivisionError(f"inversion of zero in {x.spec.name}")
        spec = self.charge("inv", x)
        return FieldElement(self, spec, self.raw_inv(x.val, spec))

    def raw_inv(self, a, spec):
        """a^(modulus-2) on a raw nonzero value: the fixed Fermat chain."""
        mul = self.raw_mul
        acc = a
        for bit in bin(spec.modulus - 2)[3:]:
            acc = mul(acc, acc, spec)
            if bit == "1":
                acc = mul(acc, a, spec)
        return acc

    def _word_mul(self, a, b, spec):
        return cios_mont_mul(a, b, spec, self._wsink())

    def _word_add(self, a, b, spec):
        return word_mod_add(a, b, spec, self._wsink())

    def _word_sub(self, a, b, spec):
        return word_mod_sub(a, b, spec, self._wsink())

    def _word_neg(self, a, spec):
        return word_mod_sub((0,) * spec.limbs, a, spec, self._wsink())

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

    def charge(self, op: str, *xs: FieldElement):
        """Tally op once for operands that share one field and this engine.

        Returns their spec; operands from different fields or engines raise
        TypeError before anything is counted.
        """
        spec = xs[0].spec
        for x in xs:
            if x.spec is not spec or x.engine is not self:
                raise TypeError("operands from different fields or engines")
        self._tally(self._records[spec][op])
        return spec

    def _tally(self, record) -> None:
        """Apply a record's counter increments and trace tuple."""
        if self._suspend:
            return
        incs, trace = record
        c = self.counter.__dict__
        for name, n in incs:
            c[name] += n
        if self.trace is not None:
            self.trace.extend(trace)

    def _wsink(self):
        return self._scratch if self._suspend else self.counter

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
