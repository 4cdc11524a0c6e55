"""Prime-field engine for Fp and Fq with intrusive operation counting.

An Engine owns the parameters, the counter state, and an optional trace sink.
Two backends produce bit-identical values and counter streams: "bigint" does
Montgomery reduction on Python integers and charges the word counters from the
CIOS law, "words" executes the instrumented word-array loops in cios.py.

Counting rules (the whole artifact depends on these):
  * every counted operation, from an Fp add to a Miller step or a point
    doubling, is one tally (_tally, the only code that applies a record)
    plus a raw kernel: a function of a primitive set (RawOps) and raw values,
    registered with @kernel. The record, counter increments and a trace
    tuple, is built once per op and field spec on first use by running the
    op's own kernel on a _Recorder with placeholder values: each Fp primitive
    the body calls (mul, sqr, add, sub, neg, inv) is one step, each
    registered op it calls adds that op's record, in call order. On bigint a
    record also holds the word-law increments; on words the cios.py loops
    charge the word counters as they run;
  * a wrapped value (element or point) runs an op by one path, a _method:
    operand types, then a zero inverse, then (in _call) the Fp leaves'
    field and engine are checked before the tally, so a rejected op counts
    nothing. A loop (pow_public, the curve ladders) checks its operands'
    leaves once, applies each step's op by name on raw values, one tally
    per step as its _method would, and wraps only the result;
  * a step's kind is the primitive the body calls, so every mul/sqr/add/sub/
    neg/inv bumps exactly one base counter (the Fp2 inverse squares with mul,
    so its trace says m1);
  * multiplications executed inside an inversion's exponentiation chain go to
    inv_m1/inv_mq, never to m1/mq, so an inversion's full fixed cost is
    carried by its i-counter exactly once;
  * an op with a marker (each Fp2 op: m2, a2, ...) bumps it first, and its Fp
    steps go to their own buckets (m1_in2, ...), never to m1/s1/a1/i1, which
    count direct Fp work only; the raw Fp view is the sum of the two, and the
    trace names both m1, ...;
  * under uncounted() a tally does nothing and the word loops charge a scratch
    counter;
  * conversions into and out of Montgomery form are I/O boundary work and are
    not counted;
  * constant-time selects are bit logic on raw values, (a & m) | (b & ~m)
    with m = -bit (curve._select), not arithmetic, and are not counted.
"""

from collections import Counter
from contextlib import contextmanager

from .cios import cios_mont_mul, from_limbs, to_limbs, word_mod_add, word_mod_sub
from .counters import OpCounter
from .params import system_params


class _Symbol:
    """A placeholder raw value: a kernel that tests one cannot be recorded."""

    def __bool__(self, *other):
        raise TypeError("kernel branched on a value")

    __eq__ = __lt__ = __gt__ = __index__ = __bool__


X1 = _Symbol()     # placeholder shape of one raw Fp value


class _Recorder:
    """A primitive set that records the steps a kernel takes, computing
    nothing; .record is the op's (counter increments, trace tuple)."""

    def __init__(self, ops, op):
        fn, marker, args, _ = KERNELS[op]
        spec = ops.spec
        self.ops = ops
        self.f = f = "1" if spec.name == "fp" else "q"
        self.nested = "_in2" if marker and spec.name == "fp" else ""
        w = ops.engine.backend == "bigint"   # words: the loops charge words
        mul = (w * spec.words_per_mul, w * spec.word_adds_per_mul)
        add, sub = (0, w * spec.word_adds_per_modadd), (0, w * spec.word_adds_per_modsub)
        chain = tuple(s + f for bit in bin(spec.modulus - 2)[3:]
                      for s in ("sm" if bit == "1" else "s"))
        self.mul = lambda a, b: self._step("m", mul)
        self.sqr = lambda a: self._step("s", mul)
        self.add = lambda a, b: self._step("a", add)
        self.sub = lambda a, b: self._step("a", sub)
        self.neg = lambda a: self._step("a", sub)
        self.inv = lambda a: self._step("i", mul, chain)
        self.incs = Counter({marker: 1} if marker else {})
        self.trace = [marker] if marker else []
        fn(self, *args)
        self.record = (tuple((k, n) for k, n in self.incs.items() if n),
                       tuple(self.trace))

    def _step(self, kind, law, chain=()):
        name = kind + self.f
        self.incs[name + self.nested] += 1
        self.trace.append(name)
        if chain:         # an inversion: its Fermat chain follows it
            self.incs["inv_m" + self.f] += len(chain)
            self.trace += chain
        self.incs["word_mul"] += max(len(chain), 1) * law[0]
        self.incs["word_add"] += max(len(chain), 1) * law[1]
        return X1

    def __getattr__(self, name):
        """A registered op called from the body adds its own record."""
        if name not in KERNELS:
            raise AttributeError(name)
        record = self.ops.records[name]

        def apply(*raw):
            _tally(record, self.incs, self.trace)
            return KERNELS[name][3]
        return apply


class _Records(dict):
    """op -> record over one RawOps' field, built on first use."""

    def __init__(self, ops):
        super().__init__()
        self.ops = ops

    def __missing__(self, op):
        rec = self[op] = _Recorder(self.ops, op).record
        return rec


def _tally(record, counts, trace) -> None:
    """Apply a record's counter increments and trace tuple to counts (a
    counter's fields, or a _Recorder's) and to trace, unless it is None."""
    incs, steps = record
    for name, n in incs:
        counts[name] += n
    if trace is not None:
        trace.extend(steps)


KERNELS = {}       # op -> (fn, marker, placeholder operands, placeholder result)


def kernel(name: str, *args, out, marker=None):
    """Register fn(o, *raw) as the raw kernel of the counted op `name`; a
    kernel that is not an Fp primitive becomes a method of RawOps."""
    def register(fn):
        KERNELS[name] = (fn, marker, args, out)
        if name not in _PRIMITIVES:
            setattr(RawOps, name, fn)
        return fn
    return register


_PRIMITIVES = {"add": 2, "sub": 2, "neg": 1, "mul": 2, "sqr": 1, "inv": 1}
for _op, _n in _PRIMITIVES.items():     # an Fp op is its primitive alone
    kernel(_op, *(X1,) * _n, out=X1)(
        lambda o, *a, _op=_op: getattr(o, _op)(*a))


def _call(op, out, *xs, raw=()):
    """One tally of op on wrapped operands xs, whose Fp leaves must share
    one field and engine, then its raw kernel (raw: constant operands); the
    result is wrapped as out."""
    leaves = [fe for x in xs for fe in x._leaves()]
    o = leaves[0].engine.raw_ops(*leaves)
    return out._wrap(o, o.apply(op, *[x._raw() for x in xs], *raw))


def _method(op, inverse=False):
    """A method of a wrapped value running op through _call. Before anything
    is charged, each further operand must have self's type, or be a
    FieldElement where the kernel declares one raw Fp value (X1); an inverse
    rejects zero."""
    scalar = [a is X1 for a in KERNELS[op][2][1:]]

    def method(self, *other):
        for x, fp in zip(other, scalar):
            if type(x) is not (FieldElement if fp else type(self)):
                raise TypeError(f"{op}: operand {type(x).__name__} given "
                                f"to {type(self).__name__}")
        if inverse and all(fe.is_zero() for fe in self._leaves()):
            raise ZeroDivisionError(
                f"inversion of zero in {type(self).__name__}")
        return _call(op, type(self), self, *other)
    method.op = op     # pow_public and the curve loops apply it by name
    return method


class FieldElement:
    """An element of Fp or Fq in Montgomery form, bound to its engine."""

    __slots__ = ("engine", "spec", "val")

    def __init__(self, engine, spec, val):
        self.engine = engine
        self.spec = spec
        self.val = val

    def _leaves(self):
        return (self,)

    def _raw(self):
        return self.val

    @staticmethod
    def _wrap(o, v) -> "FieldElement":
        return FieldElement(o.engine, o.spec, v)

    __add__ = _method("add")
    __sub__ = _method("sub")
    __neg__ = _method("neg")
    __mul__ = _method("mul")
    square = _method("sqr")
    inverse = _method("inv", inverse=True)

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
    """x^exp by MSB-first square-and-multiply, for a public exponent exp >= 1,
    on the raw value of any element class (by the ops of its square and *).
    The sequence of operations depends on exp, so exp must never be secret.
    """
    o = x.engine.raw_ops(*x._leaves())
    run, sqr, mul = o.apply, type(x).square.op, type(x).__mul__.op
    a = acc = x._raw()
    for bit in bin(exp)[3:]:
        acc = run(sqr, acc)
        if bit == "1":
            acc = run(mul, acc, a)
    return x._wrap(o, acc)


def _big_ops(spec):
    """Montgomery mul, add, sub and neg on Python ints for one spec."""
    n, mask, np_full, rbits = spec.modulus, spec.full_mask, spec.np_full, spec.rbits

    def mul(a, b):
        t = a * b
        m = (t & mask) * np_full & mask       # only t mod R matters for m
        t = (t + m * n) >> rbits
        return t - n * (t >= n)

    def add(a, b):
        v = a + b
        return v - n * (v >= n)

    def sub(a, b):
        v = a - b
        return v + n * (v < 0)

    def neg(a):
        v = -a
        return v + n * (v < 0)

    return mul, add, sub, neg


class RawOps:
    """One engine's arithmetic over one field spec, on raw Montgomery values.

    mul, sqr, add, sub, neg and inv are the Fp primitives (ints on bigint,
    limb tuples on words, where the cios.py loops charge their word
    operations as they run). Every other registered kernel is a method.
    Only apply tallies: it charges the op's record, then runs the kernel.
    """

    def __init__(self, engine, spec):
        self.engine = engine
        self.spec = spec
        self.records = _Records(self)
        if engine.backend == "bigint":
            self.mul, self.add, self.sub, self.neg = _big_ops(spec)
            return
        sink, zero = engine._wsink, (0,) * spec.limbs
        self.mul = lambda a, b: cios_mont_mul(a, b, spec, sink())
        self.add = lambda a, b: word_mod_add(a, b, spec, sink())
        self.sub = lambda a, b: word_mod_sub(a, b, spec, sink())
        self.neg = lambda a: word_mod_sub(zero, a, spec, sink())

    def sqr(self, a):
        return self.mul(a, a)

    def inv(self, a):
        """a^(modulus-2) on a raw nonzero value, by the fixed MSB-first
        square-and-multiply chain: 380 squarings and 228 multiplications for
        Fp, 254 and 163 for Fq, charged to inv_m1/inv_mq."""
        mul = self.mul
        acc = a
        for bit in bin(self.spec.modulus - 2)[3:]:
            acc = mul(acc, acc)
            if bit == "1":
                acc = mul(acc, a)
        return acc

    def apply(self, op: str, *raw):
        """Tally op once, then run its kernel on raw values."""
        e = self.engine
        if not e._suspend:
            _tally(self.records[op], e.counter.__dict__, e.trace)
        return getattr(self, op)(*raw)


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
        self._scratch = OpCounter()  # sink for word ops while suspended
        self._ops = {}               # spec -> RawOps
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

    # ----- counter plumbing -----

    def raw_ops(self, *xs: FieldElement) -> RawOps:
        """The RawOps of operands that share one field and this engine;
        operands from different fields or engines raise TypeError."""
        spec = xs[0].spec
        for x in xs:
            if x.spec is not spec or x.engine is not self:
                raise TypeError("operands from different fields or engines")
        o = self._ops.get(spec)
        if o is None:
            o = self._ops[spec] = RawOps(self, spec)
        return o

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
