"""Compiled kernels: each op's straight-line function against its own body.

At an op's first counted use over a field spec, fields walks its kernel once
on named placeholders, which builds the op's record and emits one bigint
function per op and field spec; words compiles nothing and runs the kernel
body, whose cios.py loops charge the word law. These tests hold every
registered kernel to three things, on bigint, on words and on engines whose
Montgomery constant was corrupted by inject_fault(): the function an engine
runs computes what the body computes on a RawOps (and bigint what the words
loops compute), an uncounted call charges nothing, and the emitted steps,
counted by kind from the source text alone (a called op's from its own
text), add up to the record's Fp-level totals. The bigint source text is
pinned by its digest.
"""

import hashlib
import random
import re

import pytest

import pairing381.jubjub  # noqa: F401  registers the Jubjub kernels
import pairing381.pairing  # noqa: F401  registers the pairing kernels
from pairing381 import Engine, fields
from pairing381.cios import from_limbs, to_limbs
from pairing381.counters import OpCounter
from pairing381.fields import (KERNELS, X1, FieldElement, RawOps, _PRIMITIVES,
                               _TEMPLATES, _Walker, kernel)
from pairing381.params import P
from pairing381.tower import Fp2El

KIND = {"mul": "m", "add": "a", "sub": "a", "neg": "a", "inv": "i"}


@pytest.fixture(scope="module")
def engines():
    """(backend, faulted) -> engine; a faulted engine has a private Fp spec."""
    out = {}
    for backend in ("bigint", "words"):
        for faulted in (False, True):
            e = out[backend, faulted] = Engine(backend=backend)
            if faulted:
                e.inject_fault()
    return out


def _operand(rng, shape, modulus):
    """A random nonzero raw int of each X1 slot of a placeholder shape."""
    if shape is X1:
        return rng.randrange(1, modulus)
    return tuple(_operand(rng, s, modulus) for s in shape)


def _convert(v, shape, fn):
    """Apply fn to each raw Fp value of a value of the given shape."""
    if shape is X1:
        return fn(v)
    return tuple(_convert(x, s, fn) for x, s in zip(v, shape))


def _spec(e, op):
    return e.fq_spec if op.startswith("jubjub") else e.fp_spec


def _totals(record, f):
    """The record's Fp-level m (mul and sqr), a and i totals, direct + _in2."""
    incs = dict(record[0])
    return {k: sum(incs.get(kind + f + b, 0) for kind in kinds
                   for b in ("", "_in2"))
            for k, kinds in (("m", "ms"), ("a", "a"), ("i", "i"))}


def _emitted(o, op):
    """Steps counted from the op's emitted lines by the template each
    matches, a called op's steps from its own lines, and a fixed power's
    chain from its exponent; a bigint reduction line is no step."""
    def template(t):
        return re.compile(re.sub(r"\\\{\w+\\\}", r"\\w+", re.escape(t)))
    pattern = {prim: template(t) for prim, t in _TEMPLATES.items()}
    reduce = [template(t) for t in fields._REDUCE]
    unpack = re.compile(r".* = a\d+")
    call = re.compile(r"\(.*\) = (\w+)\(.*")
    counts = {"m": 0, "a": 0, "i": 0}
    for line in _Walker(o.spec, op).code[1]:
        hits = [p for p, rx in pattern.items() if rx.fullmatch(line)]
        if hits == ["pow"]:   # a fixed power: pow_raw's squarings, multiplies
            exp = int(re.fullmatch(r".*, (\d+)\)", line)[1])
            counts["m"] += exp.bit_length() + exp.bit_count() - 2
        elif hits:
            assert len(hits) == 1, line
            counts[KIND[hits[0]]] += 1
        elif call.fullmatch(line):
            for kind, n in _emitted(o, call.fullmatch(line)[1]).items():
                counts[kind] += n
        else:
            assert unpack.fullmatch(line) or any(
                rx.fullmatch(line) for rx in reduce), line
    return counts


@pytest.mark.parametrize("op", sorted(KERNELS))
def test_compiled_kernel_matches_body_and_record(engines, op):
    fn, _, shapes, out = KERNELS[op]
    rng = random.Random(op)
    modulus = _spec(engines["bigint", False], op).modulus
    args = [_operand(rng, s, modulus) for s in shapes]
    got = {}
    for (backend, faulted), e in engines.items():
        spec = _spec(e, op)
        raw = args if backend == "bigint" else [
            _convert(a, s, lambda v: to_limbs(v, spec))
            for a, s in zip(args, shapes)]
        o = e.raw_ops(e.fq(1) if spec is e.fq_spec else e.fp(1))
        record = o.records[op]     # builds the record, compiles op on bigint
        if backend == "bigint" and op not in _PRIMITIVES:
            assert op in vars(o), "compiled function not installed"
        with e.uncounted():
            body = fn(RawOps(e, spec), *raw)
        assert getattr(o, op)(*raw) == body

        before, sink = e.counter.snapshot(), []
        with e.uncounted(), e.tracing(sink):
            assert o.apply(op, *raw) == body
        assert e.counter.delta(before) == OpCounter() and sink == []

        incs, steps = _Walker(spec, op).record   # a walk is deterministic
        if backend == "words":     # the loops charge the word law as they run
            incs = tuple(i for i in incs
                         if i[0] not in ("word_mul", "word_add"))
        assert (incs, steps) == record
        f = "1" if spec is e.fp_spec else "q"
        assert _emitted(o, op) == _totals(record, f)
        got[backend, faulted] = body if backend == "bigint" else _convert(
            body, out, lambda v: from_limbs(v, spec))

    # the words loops are the reference for the bigint lines; a corrupted n'
    # changes every product (differently on the two backends)
    assert got["bigint", False] == got["words", False]
    if _totals(record, "1")["m"] and not op.startswith("jubjub"):
        assert got["bigint", True] != got["bigint", False]
        assert got["words", True] != got["words", False]


def _edge_operand(rng, shape, modulus):
    """A raw value of a placeholder shape whose every X1 slot is 0, 1,
    modulus - 1 or a random value, drawn independently."""
    if shape is X1:
        return rng.choice((0, 1, modulus - 1, rng.randrange(modulus)))
    return tuple(_edge_operand(rng, s, modulus) for s in shape)


@pytest.mark.parametrize("op", sorted(KERNELS))
def test_compiled_kernel_matches_body_at_edge_operands(engines, op):
    """Operands at the edges of the range, where a value left one modulus
    too large shows: 0 (whose negation is the modulus itself), 1 and
    modulus - 1, mixed slot by slot with random values. On every engine the
    compiled function equals the body, and bigint equals the words loops."""
    fn, _, shapes, out = KERNELS[op]
    rng = random.Random("edge " + op)
    modulus = _spec(engines["bigint", False], op).modulus
    trials = [[_edge_operand(rng, s, modulus) for s in shapes]
              for _ in range(6)]
    trials += [[_convert(_edge_operand(rng, s, modulus), s, lambda v: edge)
                for s in shapes] for edge in (0, modulus - 1)]
    for args in trials:
        got = {}
        for (backend, faulted), e in engines.items():
            spec = _spec(e, op)
            raw = args if backend == "bigint" else [
                _convert(a, s, lambda v: to_limbs(v, spec))
                for a, s in zip(args, shapes)]
            o = e.raw_ops(e.fq(1) if spec is e.fq_spec else e.fp(1))
            o.records[op]      # builds the record, compiles op on bigint
            with e.uncounted():
                body = fn(RawOps(e, spec), *raw)
                assert getattr(o, op)(*raw) == body, (backend, faulted, args)
            got[backend, faulted] = body if backend == "bigint" else _convert(
                body, out, lambda v: from_limbs(v, spec))
        assert got["bigint", False] == got["words", False], args


@pytest.mark.parametrize("backend", ["bigint", "words"])
def test_reregistered_kernel_runs_its_new_body(backend):
    """Registering a kernel under a used name drops every walk and compiled
    function: a fresh engine charges and runs the new body, not the old."""
    def run():
        e = Engine(backend=backend)
        o, before = e.raw_ops(e.fp(5)), e.counter.snapshot()
        out = o.apply("t1", e.fp(5).val)
        return FieldElement._wrap(o, out).to_int(), e.counter.delta(before).a1

    try:
        kernel("t1", X1, out=X1)(lambda o, a: o.neg(a))
        assert run() == (P - 5, 1)
        kernel("t1", X1, out=X1)(lambda o, a: o.add(a, a))
        assert run() == (10, 1)
    finally:
        del KERNELS["t1"]
        delattr(RawOps, "t1")


def test_kernels_compile_at_first_counted_use_once_per_process(monkeypatch):
    """Engine().curve compiles nothing (its work runs uncounted), the first
    counted Fp2 product compiles only mul2, and a second engine reuses the
    compiled code."""
    compiled = []

    def spy(source, name, mode):
        compiled.append(name)
        return compile(source, name, mode)

    monkeypatch.setattr(fields, "_STORES", {})
    monkeypatch.setattr(fields, "compile", spy, raising=False)

    def installed(e):
        return {name for o in e._ops.values() for name in vars(o)
                if name in KERNELS and name not in _PRIMITIVES}

    e = Engine()
    e.curve
    assert compiled == [] and installed(e) == set()
    x, y = Fp2El.of(e, 2, 3), Fp2El.of(e, 5, 7)
    with e.uncounted():
        want = x * y
    assert compiled == [] and installed(e) == set()
    assert x * y == want
    assert compiled == ["<mul2 on bigint>"] and installed(e) == {"mul2"}

    e2 = Engine()
    x2, y2 = Fp2El.of(e2, 2, 3), Fp2El.of(e2, 5, 7)
    assert (x2 * y2).to_ints() == want.to_ints()
    assert compiled == ["<mul2 on bigint>"] and installed(e2) == {"mul2"}


def test_words_runs_its_kernel_bodies(monkeypatch):
    """A counted pairing and a counted Jubjub ladder on words compile
    nothing and install no kernel function: each kernel body runs as the
    call tree whose cios.py loops charge the words."""
    from pairing381 import jubjub_ecsm, pairing

    compiled = []

    def spy(source, name, mode):
        compiled.append(name)
        return compile(source, name, mode)

    monkeypatch.setattr(fields, "_STORES", {})
    monkeypatch.setattr(fields, "compile", spy, raising=False)
    e = Engine(backend="words")
    before = e.counter.snapshot()
    pairing(e.curve.g1_gen, e.curve.g2_gen)
    jubjub_ecsm(12345, e.jubjub.generator)
    delta = e.counter.delta(before)
    assert delta.m2 and delta.mq and delta.word_mul
    assert compiled == []
    assert not [name for o in e._ops.values() for name in vars(o)
                if name in KERNELS and name not in _PRIMITIVES]


def test_words_reads_the_bigint_walks(monkeypatch):
    """One walk per op and field spec: a words engine over specs a bigint
    engine has walked walks nothing, and its record of each op is the bigint
    record less exactly the word law, which its loops charge."""
    monkeypatch.setattr(fields, "_STORES", {})
    big = Engine()
    records = {op: big._ops[_spec(big, op)].records[op] for op in KERNELS}
    walked = []

    class Walker(_Walker):
        def __init__(self, spec, op):
            walked.append(op)
            super().__init__(spec, op)

    monkeypatch.setattr(fields, "_Walker", Walker)
    words = Engine(backend="words")
    law = {"word_mul", "word_add"}
    for op, (incs, steps) in records.items():
        w_incs, w_steps = words._ops[_spec(words, op)].records[op]
        assert w_steps == steps
        assert w_incs == tuple(i for i in incs if i[0] not in law)
        assert "word_add" in dict(incs)
    assert walked == []


BIGINT_SOURCE_SHA256 = (
    "c5da4711a7f3912001347a1817ebe49aa19be999166c3b8ef3cdb7570daed788")
# the digest over every kernel but prep_step, as before it was registered
BIGINT_SOURCE_SHA256_BEFORE_PREP_STEP = (
    "59fc25c82368992110f7c0c5aab566ffcc9444adf0441088e5d2b8b7d4cac024")


def _bigint_source_digest(monkeypatch, ops) -> str:
    """The SHA-256 of the sorted (code name, source) pairs that compile()
    receives while fresh Fp and Fq RawOps build the records of ops."""
    compiled = []

    def spy(source, name, mode):
        compiled.append((name, source))
        return compile(source, name, mode)

    monkeypatch.setattr(fields, "_STORES", {})
    monkeypatch.setattr(fields, "compile", spy, raising=False)
    e = Engine()
    for op in ops:
        e._ops[_spec(e, op)].records[op]
    return hashlib.sha256(repr(sorted(compiled)).encode()).hexdigest()


def test_bigint_kernels_compile_pinned_source(monkeypatch):
    """Every kernel's bigint function compiles from the pinned source text.
    Sorted, since the order in which a caller and the ops it calls compile
    is not pinned. Without prep_step the text is the one pinned before it
    was added: no other kernel's function changed."""
    assert _bigint_source_digest(monkeypatch, KERNELS) == BIGINT_SOURCE_SHA256
    assert _bigint_source_digest(monkeypatch, KERNELS.keys() - {
        "prep_step"}) == BIGINT_SOURCE_SHA256_BEFORE_PREP_STEP


def test_named_constants_are_bound_by_name_and_field():
    """A kernel reads a named constant of its field as o.name: the walk binds
    it in make(o) as it binds a called op, the RawOps supplies the raw value,
    and another name, or a constant of the other field, is AttributeError."""
    e = Engine()
    fp, fq = e._ops[e.fp_spec], e._ops[e.fq_spec]
    assert _Walker(fq.spec, "jubjub_add").calls == {"jubjub_d"}
    assert fq.jubjub_d == e.jubjub.d.val
    for o, name in ((fq, "nonesuch"), (fp, "jubjub_d")):
        with pytest.raises(AttributeError):
            getattr(o, name)
        with pytest.raises(AttributeError):
            getattr(_Walker(o.spec, "jubjub_double"), name)


def test_template_lines_at_the_reduction_edges(engines):
    """Sums and differences that land on 0 or on the modulus, where a wrong
    comparison in a bigint line would leave a value unreduced: the bigint
    primitives, built from the lines the kernels inline, against the words
    loops."""
    big, words = engines["bigint", False], engines["words", False]
    spec = big.fp_spec
    n, a = spec.modulus, 0x1234567890ABCDEF << 300
    ob, ow = big.raw_ops(big.fp(1)), words.raw_ops(words.fp(1))
    for op, *xs in (("add", a, n - a), ("add", 0, 0), ("add", n - 1, 1),
                    ("add", n - 1, n - 1), ("sub", a, a), ("sub", 0, n - 1),
                    ("neg", 0), ("neg", n - 1), ("mul", 0, a), ("sqr", 1)):
        with words.uncounted():
            want = from_limbs(getattr(ow, op)(*(to_limbs(x, spec) for x in xs)),
                              spec)
        assert getattr(ob, op)(*xs) == want < n, (op, xs)
