"""Prime-field engine for Fp and Fq with intrusive operation counting.

An Engine owns the parameters, the counter state, and an optional trace sink.
Two backends produce the same values and counter streams: "bigint" holds an Fp
value as its plain residue in [0, n), one % per product, and charges the word
counters from the CIOS law; "words" holds it in Montgomery form, a·R mod n as
limbs, and executes the instrumented word-array loops in cios.py. The raw
values of the two agree through that fixed map v -> v·R mod n.

Counting rules (the whole artifact depends on these):
  * every counted operation, from an Fp add to a Miller step or a point
    doubling, is one tally (RawOps.apply, the only code that applies a
    record) plus a raw kernel: a function of a primitive set (RawOps) and raw
    values, registered with @kernel. The kernel body is the only source of
    its op. At the op's first counted use over a field spec in the process,
    one walk (_Walker) runs the body on named placeholders: each Fp
    primitive it meets (mul, sqr, add, sub, neg, inv, pow) is one step of
    the record (counter increments, word law included, trace tuple), a
    fixed power pow its chain's steps, and one line of a straight-line
    bigint function; a named constant of the field (CONSTANTS, such as
    Jubjub's d) is a name the function binds. Every registered op the body
    calls is walked inline, so each function is its op's whole Fp program
    and calls no other kernel. A product line reduces by one %; a sum,
    difference or negation is left wide (unreduced, maybe negative), and a
    reduction line, no step, takes each wide output to [0, n), so outputs
    are canonical and equal the body's. One store per field spec
    (RawOps.store) keeps the walks. Each RawOps takes the record at its own
    first counted use of the op; until then the body runs as a call tree.
    Bigint then installs its copy of the function, compiled once; words
    compiles nothing and runs the body, its record less the word law, which
    the cios.py loops charge;
  * every element and point is one _Value: the RawOps of its engine and
    field, and its raw value. It runs an op by one path, a _method: the
    operand types are checked, the operands share one RawOps, and an
    inverse rejects zero, all before the tally, so a rejected op counts
    nothing. A loop (pow_raw, the curve ladders) reads its operands' .o and
    .val once, applies each step's op by name on raw values, one tally per
    step as its _method would, and wraps only the result;
  * a step's kind is the primitive the body calls, so every mul/sqr/add/sub/
    neg/inv bumps exactly one base counter (the Fp2 inverse squares with mul,
    so its trace says m1);
  * counters count the kernel's steps, which are the processor's program,
    not the Python operations that compute the value: a fixed public power
    (RawOps.pow: an inversion's Fermat chain, a square root's chain) is
    charged step by step as pow_raw's squarings and multiplies, and is one
    line of its op; words runs that chain on its primitives, bigint computes
    it by CPython's pow;
  * multiplications inside an inversion's exponentiation chain go to
    inv_m1/inv_mq, never to m1/mq, so an inversion's full fixed cost is
    carried by its i-counter exactly once;
  * an op with a marker (each Fp2 op: m2, a2, ...) bumps it first, and its Fp
    steps go to their own buckets (m1_in2, ...), never to m1/s1/a1/i1, which
    count direct Fp work only; the raw Fp view is the sum of the two, and the
    trace names both m1, ...;
  * under uncounted() a tally does nothing and the word loops charge a scratch
    counter;
  * conversions between ints and raw values (Engine._raw, Engine._int) are
    I/O boundary work and are not counted;
  * constant-time selects are bit logic on raw values, (a & m) | (b & ~m)
    with m = -bit (curve._select), not arithmetic, and are not counted.
"""

from collections import Counter
from contextlib import contextmanager
from functools import cache, cached_property, partial
from itertools import count
from operator import attrgetter
from weakref import WeakKeyDictionary

from .cios import cios_mont_mul, from_limbs, to_limbs, word_mod_add, word_mod_sub
from .counters import OpCounter
from .params import system_params


class _Symbol:
    """A placeholder raw value, named by its variable in compiled code."""

    def __init__(self, name=""):
        self.name = name

    def __bool__(self, *other):
        raise TypeError("kernel branched on a value")

    __eq__ = __lt__ = __gt__ = __index__ = __bool__


X1 = _Symbol()     # placeholder shape of one raw Fp value

# One bigint line per Fp primitive step (a squaring is mul with b = a), on
# plain residues: mul, pow and inv land in [0, n); add, sub and neg (_WIDE)
# leave their value wide, unreduced and maybe negative, which a product, a
# power or an inversion reads as it is. Python ints are unbounded, so no
# value needs a bound: _Walker emits one _REDUCE line at each wide output.
# The bigint primitives are these lines, a wide one followed by _REDUCE.
# Words compiles nothing: its kernels run their bodies.
_TEMPLATES = {
    "mul": "{r} = {a} * {b} % n", "add": "{r} = {a} + {b}",
    "sub": "{r} = {a} - {b}", "neg": "{r} = -{a}",
    "inv": "{r} = inv({a})", "pow": "{r} = pow({a}, {b}, n)"}
_WIDE = {"add", "sub", "neg"}
_REDUCE = "{r} %= n"
_BIND = "n, inv = o.spec.line_modulus, o.inv"  # what a function reads from o


def _factory(op, params, lines, out, binds=()):
    """Compile make(o), which binds o's modulus and inversion and each
    (name, expression) of binds (the named constants), and returns the
    straight-line bigint function op(params) of lines."""
    bind = "".join(f"    {name} = {value}\n" for name, value in sorted(binds))
    body = "".join(f"        {line}\n" for line in lines)
    src = (f"def make(o):\n    {_BIND}\n{bind}    def {op}({params}):"
           f"\n{body}        return {out}\n    return {op}\n")
    ns = {}
    exec(compile(src, f"<{op} on bigint>", "exec"), ns)
    return ns["make"]


@cache
def _chain(exp: int, f: str) -> tuple:
    """The trace of pow_raw's fixed chain for a public exp over field f: s
    per squaring, then m on a one bit. Built once per (exp, f): every walk
    of an op that inverts reads the Fermat chain."""
    return tuple(k + f for bit in bin(exp)[3:]
                 for k in ("sm" if bit == "1" else "s"))


def _expr(v) -> str:
    """The source text of a placeholder or a nested tuple of them."""
    if isinstance(v, _Symbol):
        return v.name
    return "(" + "".join(_expr(x) + ", " for x in v) + ")"


class _Walker:
    """Runs an op's kernel once on named placeholders (a body that branches
    on a value fails), inlining every registered op it calls, whatever its
    size: each bigint function is its op's whole straight-line Fp program
    and calls no other kernel. Measured against calling each Fp6 and Fp12
    op as a function of its own (BENCH_27.json, Python 3.11 on a 2-core
    VM), a warm verify from bytes ran at 0.95 of it and a pairing at
    0.91-0.96, while the cold work grew: every kernel on one fresh store
    walked in 16.6 ms against 10.0 and spent 35.5 ms in compile() against
    22.0, over 4,095 source lines against 2,148, and a first verify from
    bytes in a fresh process took 81 ms against 72.

    .record is the op's (counter increments, trace tuple): each Fp primitive
    step counts once, in the _in2 bucket iff the innermost enclosing op has
    a marker, and charges the spec's word law; a marker op appends its
    marker when entered; a named constant it reads is a placeholder of that
    name. .code is (params, lines, result, binds) of the op's straight-line
    bigint function, one _TEMPLATES line per step; binds holds the (name,
    expression) pairs make(o) binds, the named constants. .wide names the
    values of _WIDE lines not yet reduced: a _REDUCE line follows the body
    for each one among the outputs, so outputs are canonical."""

    def __init__(self, spec, op):
        self.spec, self.binds, self.wide = spec, set(), set()
        self.f = f = "1" if spec.name == "fp" else "q"
        mul = (spec.words_per_mul, spec.word_adds_per_mul)
        sub = (0, spec.word_adds_per_modsub)
        self.law = {"mul": mul, "inv": mul, "pow": mul, "sub": sub,
                    "neg": sub, "add": (0, spec.word_adds_per_modadd)}
        self.chain = _chain(spec.modulus - 2, f)
        self.mul = lambda a, b: self._step("m", "mul", a, b)
        self.sqr = lambda a: self._step("s", "mul", a)
        self.add = lambda a, b: self._step("a", "add", a, b)
        self.sub = lambda a, b: self._step("a", "sub", a, b)
        self.neg = lambda a: self._step("a", "neg", a)
        self.inv = lambda a: self._step("i", "inv", a)
        self.pow = lambda a, exp: self._step("", "pow", a, exp)
        self.incs, self.trace, self.nested = Counter(), [], []
        self.names = map("v{}".format, count())
        args = [self._bind(shape) for shape in KERNELS[op][2]]
        self.lines = [f"{_expr(a)} = a{i}" for i, a in enumerate(args)]
        out = self._enter(op, args)
        self._reduce(out)
        self.record = (tuple((k, n) for k, n in self.incs.items() if n),
                       tuple(self.trace))
        params = ", ".join(f"a{i}" for i in range(len(args)))
        self.code = (params, self.lines, _expr(out), self.binds)

    def _bind(self, shape):
        if shape is X1:
            return _Symbol(next(self.names))
        return tuple(map(self._bind, shape))

    def _reduce(self, v):
        """A _REDUCE line for each wide placeholder in v, once each."""
        if isinstance(v, tuple):
            for x in v:
                self._reduce(x)
        elif v.name in self.wide:
            self.lines.append(_REDUCE.format(r=v.name))
            self.wide.discard(v.name)

    def _enter(self, op, args):
        fn, marker = KERNELS[op][:2]
        if marker:
            self.incs[marker] += 1
            self.trace.append(marker)
        self.nested.append("_in2" if marker and self.f == "1" else "")
        out = fn(self, *args)
        self.nested.pop()
        return out

    def __getattr__(self, name):
        """A registered op called from the body is walked inline; a named
        constant of the field is a placeholder that make(o) binds."""
        if (self.spec.name, name) in CONSTANTS:
            self.binds.add((name, f"o.{name}"))
            return _Symbol(name)
        if name not in KERNELS:
            raise AttributeError(name)
        return lambda *args: self._enter(name, args)

    def _step(self, kind, prim, a, b=None):
        """One line of prim's template, and its steps: one of kind or, for a
        fixed power a^b (b a public int), pow_raw's chain, each squaring and
        multiply one step. An inversion's Fermat chain follows its i step,
        charged to inv_m."""
        steps = _chain(b, self.f) if prim == "pow" else (kind + self.f,)
        self.incs.update(s + self.nested[-1] for s in steps)
        reps = len(steps)
        if kind == "i":
            reps = len(self.chain)
            self.incs["inv_m" + self.f] += reps
            steps += self.chain
        self.trace += steps
        self.incs["word_mul"] += reps * self.law[prim][0]
        self.incs["word_add"] += reps * self.law[prim][1]
        if prim != "pow":
            b = (a if b is None else b).name
        r = _Symbol(next(self.names))
        if prim in _WIDE:
            self.wide.add(r.name)
        self.lines.append(_TEMPLATES[prim].format(r=r.name, a=a.name, b=b))
        return r


_STORES = WeakKeyDictionary()  # field spec -> its store (see RawOps)


def _walk(spec, op) -> list:
    """op's walk over spec, run once per store: [record, code, make],
    make compiled at op's first bigint use. Plain data: a _Walker holds
    spec, which its store must not keep alive."""
    store = _STORES.setdefault(spec, {})
    if op not in store:
        w = _Walker(spec, op)
        store[op] = [w.record, w.code, None]
    return store[op]


class _Records(dict):
    """op -> record over one RawOps' field, filled at the op's first counted
    use on this RawOps from the op's walk: on bigint the walk's record, and
    make(o) installs the op's compiled function; on words the record less
    the word law, which the cios.py loops charge, and nothing compiles."""

    def __init__(self, ops):
        super().__init__()
        self.ops = ops

    def __missing__(self, op):
        o = self.ops
        record, code, make = walk = _walk(o.spec, op)
        if o.engine.backend == "words":
            record = tuple(i for i in record[0] if i[0] not in (
                "word_mul", "word_add")), record[1]
        elif op not in _PRIMITIVES:              # one function already
            make = walk[2] = make or _factory(op, *code)
            setattr(o, op, make(o))
        self[op] = record
        return record


KERNELS = {}  # op -> (fn, marker, operand shapes): the ops a caller tallies
CONSTANTS = {}     # (field, name) -> int, held raw as o.name by RawOps made later


def kernel(name: str, *shapes, marker=None):
    """Register fn(o, *raw) as the raw kernel of the counted op `name`; a
    kernel that is not an Fp primitive becomes a method of RawOps. A walk
    inlines every registered op its body calls, so registering one drops
    every store: engines made afterwards walk the new body. A plain helper
    fn(o, ...) that a body calls is no op: the ops it calls are the body's."""
    def register(fn):
        _STORES.clear()
        KERNELS[name] = (fn, marker, shapes)
        if name not in _PRIMITIVES:
            setattr(RawOps, name, fn)
        return fn
    return register


_PRIMITIVES = {"add": 2, "sub": 2, "neg": 1, "mul": 2, "sqr": 1, "inv": 1}
_BIG = {}     # the bigint primitives, built from the lines the kernels inline
for _op, _n in _PRIMITIVES.items():     # an Fp op is its primitive alone
    kernel(_op, *(X1,) * _n)(
        lambda o, *a, _op=_op: getattr(o, _op)(*a))
    if _op != "inv":
        _line = _TEMPLATES["mul" if _op == "sqr" else _op].format(
            r="r", a="a", b="ab"[_n - 1])
        if _op in _WIDE:
            _line += "; " + _REDUCE.format(r="r")
        _BIG[_op] = _factory(_op, ", ".join("ab"[:_n]), [_line], "r")


_val = attrgetter("val")
_new = object.__new__


def _is_zero(v) -> bool:
    """Whether a raw value is zero: every int in it (a residue on bigint, a
    limb on words, nested in tuples above Fp) is 0."""
    return not v if type(v) is int else all(map(_is_zero, v))


class _Value:
    """An element or a point: the RawOps of its engine and field, which fixes
    both, and its raw value in the layout the kernels use.

    A composite class (an extension element, a point) names its part class,
    its part names and the name of its base field: it is built from one part
    per name, each of the part class and all on one RawOps over that field,
    or TypeError; each name is then a read-only view of that part, built on
    access. An op's result, and a loop's, is wrapped from a RawOps and a raw
    value by _wrap.
    """

    __slots__ = ("o", "val")
    _part, _names, _field = None, (), None

    def __init_subclass__(cls, part=None, names=(), field=None):
        super().__init_subclass__()
        if part is not None:
            cls._part = part
        if field is not None:
            cls._field = field
        if names:
            cls._names = names
            for i, name in enumerate(names):
                setattr(cls, name, property(
                    lambda self, i=i: self._part._wrap(self.o, self.val[i])))

    def __init__(self, *parts):
        n, part = len(self._names), self._part
        if not n or len(parts) != n:
            raise TypeError(f"{type(self).__name__} takes {n or 'no'} parts")
        o = parts[0].o if type(parts[0]) is part else None
        for x in parts:
            if type(x) is not part or x.o is not o:
                raise TypeError(f"{type(self).__name__} parts must be "
                                f"{part.__name__} values of one field and engine")
        if o.spec.name != self._field:
            raise TypeError(f"{type(self).__name__} is over {self._field}, "
                            f"not {o.spec.name}")
        self.o, self.val = o, tuple(map(_val, parts))

    @classmethod
    def _wrap(cls, o, val):
        x = _new(cls)
        x.o = o
        x.val = val
        return x

    @property
    def engine(self):
        return self.o.engine

    def is_zero(self) -> bool:
        return _is_zero(self.val)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.o.spec is other.o.spec and self.val == other.val

    def __hash__(self):
        return hash((self.o.spec.name, self.val))


def _expect(value, *classes) -> None:
    """TypeError unless value's class is one of classes: the class check of
    an entry point, before any tally."""
    if type(value) not in classes:
        names = " or ".join(c.__name__ for c in classes)
        raise TypeError(f"{type(value).__name__} given where {names} is expected")


def _method(op, inverse=False):
    """A method of a value running op: one tally of its record, then its
    kernel on raw values, the result wrapped as self's class. Before anything
    is charged, each further operand must have self's type, or be a
    FieldElement where the kernel declares one raw Fp value (X1), and share
    self's RawOps; an inverse rejects zero."""
    scalar = [a is X1 for a in KERNELS[op][2][1:]]

    def method(self, *other):
        o, cls = self.o, type(self)
        for x, fp in zip(other, scalar):
            if type(x) is not (FieldElement if fp else cls) or x.o is not o:
                raise TypeError(f"{op}: {type(x).__name__} operand of another "
                                f"type, field or engine given to {cls.__name__}")
        if inverse and self.is_zero():
            raise ZeroDivisionError(
                f"inversion of zero in {type(self).__name__}")
        return self._wrap(o, o.apply(op, self.val, *map(_val, other)))
    method.op = op     # pow_public and the curve loops apply it by name
    return method


class FieldElement(_Value):
    """An element of Fp or Fq, made by Engine.fp/fq: on bigint its raw value
    is the residue itself, on words the limbs of its Montgomery form."""

    __slots__ = ()

    @property
    def spec(self):
        return self.o.spec

    __add__ = _method("add")
    __sub__ = _method("sub")
    __neg__ = _method("neg")
    __mul__ = _method("mul")
    square = _method("sqr")
    inverse = _method("inv", inverse=True)

    def to_int(self) -> int:
        return self.o.engine._int(self.o.spec, self.val)

    def to_bytes(self) -> bytes:
        return self.to_int().to_bytes(self.spec.byte_len, "big")

    def __repr__(self):
        return f"<{self.spec.name} 0x{self.to_int():x}>"


def pow_raw(a, exp: int, sqr, mul):
    """a^exp on a raw value by MSB-first square-and-multiply, for a public
    exponent exp >= 1: acc = sqr(acc) per bit after the leading one, then
    acc = mul(acc, a) if the bit is set. The sequence of steps depends on
    exp, so exp must never be secret. The steps are RawOps primitives (an
    inversion's Fermat chain) or counted ops applied by name.
    """
    acc = a
    for bit in bin(exp)[3:]:
        acc = sqr(acc)
        if bit == "1":
            acc = mul(acc, a)
    return acc


def pow_public(x, exp: int):
    """x^exp (see pow_raw) for an element of any class, by the ops of its
    square and *, one tally per step."""
    cls, run = type(x), x.o.apply
    return x._wrap(x.o, pow_raw(x.val, exp, partial(run, cls.square.op),
                                partial(run, cls.__mul__.op)))


class RawOps:
    """One engine's arithmetic over one field spec, on raw values.

    mul, sqr, add, sub, neg and inv are the Fp primitives: on bigint over
    plain residues, each reduced by the spec's line modulus; on words over
    Montgomery limb tuples, where the cios.py loops charge their word
    operations as they run. Every other registered kernel is a method, and
    on bigint its compiled function, once built, an instance attribute that
    shadows it; a named constant of the field (CONSTANTS) is an attribute
    too. Only apply tallies: it charges the op's record, then runs the kernel.

    store holds what depends only on the field spec object, while the spec
    lives: each op's walk and bigint factory, and -G2's prepared lines per
    backend (pairing.prepared_neg_g2). inject_fault() or a word size makes
    a new spec.
    """

    def __init__(self, engine, spec):
        self.engine = engine
        self.spec = spec
        self.store = _STORES.setdefault(spec, {})
        self.records = _Records(self)
        words = engine.backend == "words"
        for (field, name), value in CONSTANTS.items():   # as raw values
            if field == spec.name:
                setattr(self, name, engine._raw(spec, value))
        if not words:
            for p, make in _BIG.items():
                setattr(self, p, make(self))
            return
        sink, zero = engine._wsink, (0,) * spec.limbs
        self.mul = lambda a, b: cios_mont_mul(a, b, spec, sink())
        self.add = lambda a, b: word_mod_add(a, b, spec, sink())
        self.sub = lambda a, b: word_mod_sub(a, b, spec, sink())
        self.neg = lambda a: word_mod_sub(zero, a, spec, sink())
        self.sqr = lambda a: cios_mont_mul(a, a, spec, sink())
        self.pow = lambda a, exp: pow_raw(a, exp, self.sqr, self.mul)

    def pow(self, a, exp: int):
        """a^exp on a raw value for a fixed public exp >= 1, whose record is
        pow_raw's chain (see _Walker). Words runs that chain on its
        primitives; bigint computes pow(a, exp, n) with the line modulus, as
        its pow lines do."""
        return pow(a, exp, self.spec.line_modulus)

    def inv(self, a):
        """a^(modulus-2) on a raw nonzero value: the fixed Fermat chain,
        380 squarings and 228 multiplications for Fp, 254 and 163 for Fq,
        charged to inv_m1/inv_mq. Never pow(a, -1, n): Euclid's running time
        depends on the value, and a ladder's to_affine inverts a secret z."""
        return self.pow(a, self.spec.modulus - 2)

    def apply(self, op: str, *raw):
        """Tally op once, then run its kernel on raw values."""
        e = self.engine
        if not e._suspend:
            incs, steps = self.records[op]
            counts = e.counter.__dict__
            for name, n in incs:
                counts[name] += n
            if e.trace is not None:
                e.trace.extend(steps)
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
        self._ops = {s: RawOps(self, s) for s in (self.fp_spec, self.fq_spec)}

    # ----- element construction (uncounted boundary work) -----

    def fp(self, value: int) -> FieldElement:
        return self._make(self.fp_spec, value)

    def fq(self, value: int) -> FieldElement:
        return self._make(self.fq_spec, value)

    def _raw(self, spec, value: int):
        """value mod spec's modulus as a raw value of this engine: the residue
        on bigint, the limbs of its Montgomery form value·R on words. The
        one map into raw values; _int is its inverse."""
        if self.backend == "words":
            return to_limbs(value * spec.r1 % spec.modulus, spec)
        return value % spec.modulus

    def _int(self, spec, raw) -> int:
        """The residue in [0, n) of a raw value of this engine."""
        if self.backend == "words":
            return from_limbs(raw, spec) * spec.rinv % spec.modulus
        return raw

    def _make(self, spec, value: int) -> FieldElement:
        """value mod spec's modulus as an element: its RawOps and raw value."""
        x = _new(FieldElement)      # _wrap inlined: every constant starts here
        x.o = self._ops[spec]
        x.val = self._raw(spec, value)
        return x

    # ----- counter plumbing -----

    def raw_ops(self, *values) -> RawOps:
        """The RawOps that values (elements or points) share on this engine;
        values from different fields or engines raise TypeError."""
        o = values[0].o
        for x in values:
            if x.o is not o or o.engine is not self:
                raise TypeError("operands from different fields or engines")
        return o

    def _wsink(self):
        return self._scratch if self._suspend else self.counter

    @contextmanager
    def uncounted(self):
        """Suspend all counting and tracing; for checks and derived lines."""
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

    # ----- params constants as values of this engine, built at first use -----

    @cached_property
    def tower(self):
        from .tower import TowerCtx
        return TowerCtx(self)

    @cached_property
    def curve(self):
        from .curve import CurveCtx
        return CurveCtx(self)

    @cached_property
    def jubjub(self):
        from .jubjub import JubjubCtx
        return JubjubCtx(self)

    # ----- self-test hooks -----

    def inject_fault(self) -> None:
        """Flip bit 7 of the Fp constants the arithmetic reads (self-test
        hook): n'_0, which the words loops read, and the line modulus, which
        bigint's products and powers reduce by. The conversions read the
        true modulus, so a faulted engine's values come out wrong.

        The shared parameter cache must stay pristine, so the corrupted spec
        is a private copy.
        """
        import copy

        spec = copy.copy(self.fp_spec)
        spec.np0 ^= 1 << 7
        spec.line_modulus ^= 1 << 7
        self.fp_spec = spec
        self._ops[spec] = RawOps(self, spec)
        self.__dict__.pop("tower", None)    # rebuilt on spec's RawOps
        self.__dict__.pop("curve", None)

    def montgomery_sane(self) -> bool:
        """Cheap invariant: to/from raw round-trip, 1*1 == 1 and 3/3 == 1."""
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

