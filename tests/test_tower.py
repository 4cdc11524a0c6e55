"""Extension tower: ring laws against random samples, inverse correctness,
Frobenius structure, and the Fp2 operation-counting conventions."""

import hashlib
import random

import pytest

from pairing381 import Engine, FieldElement, OpCounter
from pairing381.pairing import pairing
from pairing381.fields import pow_public
from pairing381.params import P, ZETA
from pairing381.tower import Fp2El, Fp6El, Fp12El, fp2_sqrt, fp_sqrt


def rand_fp2(e, rng):
    return Fp2El.of(e, rng.randrange(P), rng.randrange(P))


def rand_fp6(e, rng):
    return Fp6El(rand_fp2(e, rng), rand_fp2(e, rng), rand_fp2(e, rng))


def rand_fp12(e, rng):
    return Fp12El(rand_fp6(e, rng), rand_fp6(e, rng))


def test_fp2_matches_complex_integer_model(engine, rng):
    for _ in range(100):
        a0, a1 = rng.randrange(P), rng.randrange(P)
        b0, b1 = rng.randrange(P), rng.randrange(P)
        x, y = Fp2El.of(engine, a0, a1), Fp2El.of(engine, b0, b1)
        # (a0 + a1*i)(b0 + b1*i) with i^2 = -1
        assert (x * y).to_ints() == (
            (a0 * b0 - a1 * b1) % P, (a0 * b1 + a1 * b0) % P)
        assert x.square().to_ints() == ((a0 * a0 - a1 * a1) % P,
                                        2 * a0 * a1 % P)
        assert (x + y).to_ints() == ((a0 + b0) % P, (a1 + b1) % P)
        assert x.conjugate().to_ints() == (a0, (-a1) % P)


@pytest.mark.parametrize("level", ["fp2", "fp6", "fp12"])
def test_ring_laws(level, engine, rng):
    make = {"fp2": rand_fp2, "fp6": rand_fp6, "fp12": rand_fp12}[level]
    one = {"fp2": Fp2El, "fp6": Fp6El, "fp12": Fp12El}[level].one(engine)
    for _ in range(10):
        a, b, c = make(engine, rng), make(engine, rng), make(engine, rng)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert a.square() == a * a
        assert a - a == a + (-a)


@pytest.mark.parametrize("level", ["fp2", "fp6", "fp12"])
def test_inverse(level, engine, rng):
    make = {"fp2": rand_fp2, "fp6": rand_fp6, "fp12": rand_fp12}[level]
    one = {"fp2": Fp2El, "fp6": Fp6El, "fp12": Fp12El}[level].one(engine)
    for _ in range(5):
        a = make(engine, rng)
        assert a * a.inverse() == one


def test_frobenius_structure(engine, rng):
    tw = engine.tower
    f = rand_fp12(engine, rng)
    g = rand_fp12(engine, rng)
    # multiplicativity and power composition
    assert tw.frobenius(f * g, 1) == tw.frobenius(f, 1) * tw.frobenius(g, 1)
    assert tw.frobenius(tw.frobenius(f, 1), 1) == tw.frobenius(f, 2)
    assert tw.frobenius(tw.frobenius(f, 1), 2) == tw.frobenius(f, 3)
    assert tw.frobenius(tw.frobenius(f, 3), 3) == tw.frobenius(f, 6)
    # applying the map twelve times is the identity
    acc = f
    for _ in range(12):
        acc = tw.frobenius(acc, 1)
    assert acc == f
    # an Fp scalar is fixed
    c = Fp12El.one(engine)
    assert tw.frobenius(c, 1) == c
    with pytest.raises(ValueError, match="unsupported Frobenius power 4"):
        tw.frobenius(f, 4)


@pytest.mark.parametrize("backend", ["bigint", "words"])
def test_zeta_is_the_stepwise_power_of_xi(backend, twin_engines):
    """params.ZETA, the base of every Frobenius constant, is xi^((p-1)/6)
    as pow_public computes it step by step, and pi's degree-1 constant."""
    e = twin_engines[backend == "words"]
    with e.uncounted():
        zeta = pow_public(Fp2El.of(e, 1, 1), (P - 1) // 6)
    assert zeta.to_ints() == ZETA
    assert e.tower.frob[1][1] == zeta.val


def test_fp2_counter_conventions(engine, rng):
    x, y = rand_fp2(engine, rng), rand_fp2(engine, rng)
    before = engine.counter.snapshot()
    x * y
    d = engine.counter.delta(before)
    assert d.m2 == 1
    assert d.m1 == 0 and d.m1_in2 == 3        # Karatsuba internals, own bucket
    assert d.m1_equivalent() == 3             # counted once, not twice

    before = engine.counter.snapshot()
    x.square()
    d = engine.counter.delta(before)
    assert d.s2 == 1
    assert d.m1_equivalent() == 2

    before = engine.counter.snapshot()
    x.inverse()
    d = engine.counter.delta(before)
    assert d.i2 == 1
    assert d.m1_equivalent() == 612           # norm + fp chain + two muls


def test_fp2_nonresidue_and_xi(engine, rng):
    x = rand_fp2(engine, rng)
    alpha = Fp2El.of(engine, 0, 1)
    xi = Fp2El.of(engine, 1, 1)
    assert x.mul_by_xi() == x * xi
    assert alpha.square().to_ints() == (P - 1, 0)


def test_fp_and_fp2_square_roots(engine, rng):
    for _ in range(10):
        v = engine.fp(rng.randrange(P)).square()
        r = fp_sqrt(v)
        assert r is not None and r.square() == v
    for _ in range(5):
        s = rand_fp2(engine, rng).square()
        r = fp2_sqrt(s)
        assert r is not None and r.square() == s
    for s in (Fp2El.zero(engine), Fp2El.of(engine, P - 1, 0)):  # 0; alpha = -1
        r = fp2_sqrt(s)
        assert r is not None and r.square() == s


def _norm_branch(a0, a1):
    """Which root fp2_sqrt's norm method takes for a0 + a1 alpha, in
    integers: whether t = (a0 + s)/2 (or (a0 - s)/2 if that is 0) is a
    square, for s = (a0^2 + a1^2)^((p+1)/4), and whether t fell back."""
    s = pow(a0 * a0 + a1 * a1, (P + 1) // 4, P)
    half = (P + 1) // 2
    t = (a0 + s) * half % P
    fallback = t == 0
    if fallback:
        t = (a0 - s) * half % P
    return pow(t, (P - 1) // 2, P) == 1, fallback


def test_fp2_sqrt_norm_method_branches(twin_engines, rng):
    """Each path of the norm method, on both backends: 0; a1 = 0 with a0 a
    square (real root) and with a0 a non-square (purely imaginary root,
    through the t = 0 fallback); both branches u^2 t = 1 and u^2 t = -1;
    non-squares give None. A root is +-x for a = x^2, and both backends
    return the same one."""
    big, words = twin_engines
    r = rng.randrange(1, P)
    cases = [(0, 0), (r, 0), (0, r)]   # a = 0, r^2 and -r^2 (-1 a non-square)
    cases += [(rng.randrange(P), rng.randrange(P)) for _ in range(16)]
    seen = set()
    for x0, x1 in cases:
        x = Fp2El.of(big, x0, x1)
        a = x.square()
        root = fp2_sqrt(a)
        assert root in (x, -x), (x0, x1)
        assert fp2_sqrt(Fp2El.of(words, *a.to_ints())).to_ints() == root.to_ints()
        seen.add(_norm_branch(*a.to_ints()) + (root.c1.is_zero(),
                                                 root.c0.is_zero()))
        if not a.is_zero():   # xi = 1 + alpha is a non-square
            assert fp2_sqrt(a * Fp2El.of(big, 1, 1)) is None
            assert fp2_sqrt(Fp2El.of(words, *(a * Fp2El.of(big, 1, 1))
                                     .to_ints())) is None
    assert (True, False, True, False) in seen      # a1 = 0, a0 a square
    assert (False, True, False, True) in seen      # purely imaginary root
    assert {(True, False, False, False), (False, False, False, False)} <= seen


def test_cyclotomic_square_agrees_on_cyclotomic_subgroup(engine, rng):
    # z = f^((p^6-1)(p^2+1)) has order dividing p^4 - p^2 + 1; the
    # compressed squaring is only claimed there
    f = rand_fp12(engine, rng)
    z = f.conjugate() * f.inverse()
    z = engine.tower.frobenius(z, 2) * z
    assert z.cyclotomic_square() == z.square()
    assert z * z.conjugate() == Fp12El.one(engine)


def _chain(modulus, f):
    """Trace of the fixed Fermat chain for modulus - 2: square per bit, then
    multiply on a one bit."""
    return tuple(k + f for bit in bin(modulus - 2)[3:]
                 for k in ("s", "sm")[bit == "1"])


# One Fp2 op at w = 64 (six limbs): a mont mul costs 78 word muls and 170 word
# adds, a mod add 13 word adds, a mod sub or neg 12.
FP2_CONTRACT = {
    "add": ({"a2": 1, "a1_in2": 2, "word_add": 26}, ("a2", "a1", "a1")),
    "sub": ({"a2": 1, "a1_in2": 2, "word_add": 24}, ("a2", "a1", "a1")),
    "neg": ({"a2": 1, "a1_in2": 2, "word_add": 24}, ("a2", "a1", "a1")),
    "conjugate": ({"a2": 1, "a1_in2": 1, "word_add": 12}, ("a2", "a1")),
    "mul_by_xi": ({"a2": 1, "a1_in2": 2, "word_add": 25}, ("a2", "a1", "a1")),
    "mul": ({"m2": 1, "m1_in2": 3, "a1_in2": 5, "word_mul": 234,
             "word_add": 572},
            ("m2", "m1", "m1", "a1", "a1", "a1", "m1", "a1", "a1")),
    "square": ({"s2": 1, "m1_in2": 2, "a1_in2": 3, "word_mul": 156,
                "word_add": 378}, ("s2", "a1", "a1", "m1", "m1", "a1")),
    "mul_fp": ({"m1": 2, "word_mul": 156, "word_add": 340}, ("m1", "m1")),
    "inverse": ({"i2": 1, "m1_in2": 4, "a1_in2": 2, "i1_in2": 1,
                 "inv_m1": 608, "word_mul": 47736, "word_add": 104065},
                ("i2", "m1", "m1", "a1", "i1") + _chain(P, "1")
                + ("m1", "m1", "a1")),
}


def _fp2_model(op, a0, a1, b0, b1):
    """The op on (a0 + a1 alpha) and (b0 + b1 alpha) as Python integers;
    mul_fp scales by b0."""
    if op == "inverse":
        n = pow(a0 * a0 + a1 * a1, -1, P)
        return a0 * n % P, -a1 * n % P
    return {
        "add": (a0 + b0, a1 + b1),
        "sub": (a0 - b0, a1 - b1),
        "neg": (-a0, -a1),
        "conjugate": (a0, -a1),
        "mul_by_xi": (a0 - a1, a0 + a1),
        "mul": (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0),
        "square": (a0 * a0 - a1 * a1, 2 * a0 * a1),
        "mul_fp": (a0 * b0, a1 * b0),
    }[op]


def _fp2_call(op, x, y):
    return {
        "add": lambda: x + y,
        "sub": lambda: x - y,
        "neg": lambda: -x,
        "conjugate": x.conjugate,
        "mul_by_xi": x.mul_by_xi,
        "mul": lambda: x * y,
        "square": x.square,
        "mul_fp": lambda: x.mul_fp(y.c0),
        "inverse": x.inverse,
    }[op]


@pytest.mark.parametrize("backend", [0, 1], ids=["bigint", "words"])
@pytest.mark.parametrize("op", list(FP2_CONTRACT))
def test_fp2_op_contract(op, backend, twin_engines, rng):
    """Each Fp2 op: the exact counter delta in every field, the exact trace
    and the value, on both backends."""
    e = twin_engines[backend]
    delta, trace = FP2_CONTRACT[op]
    a0, a1, b0, b1 = (rng.randrange(1, P) for _ in range(4))
    x, y = Fp2El.of(e, a0, a1), Fp2El.of(e, b0, b1)
    sink = []
    before = e.counter.snapshot()
    with e.tracing(sink):
        out = _fp2_call(op, x, y)()
    assert e.counter.delta(before) == OpCounter(**delta)
    assert tuple(sink) == trace
    assert out.to_ints() == tuple(v % P for v in _fp2_model(op, a0, a1, b0, b1))


@pytest.mark.parametrize("backend", [0, 1], ids=["bigint", "words"])
def test_uncounted_fp2_ops_leave_counter_and_trace_alone(backend, twin_engines,
                                                         rng):
    e = twin_engines[backend]
    x, y = rand_fp2(e, rng), rand_fp2(e, rng)
    sink = []
    before = e.counter.snapshot()
    composite = [_composite_call(op, e, rng) for op in COMPOSITE_OPS]
    gens = (e.curve.g1_gen, e.curve.g2_gen, e.jubjub.generator)
    with e.tracing(sink), e.uncounted():
        for op in FP2_CONTRACT:
            _fp2_call(op, x, y)()
        e.fp(3).inverse()
        e.fq(3).inverse()
        for run in composite:
            run()
        for g in gens:                    # the point ops
            g.double().add(g)
        for g in gens[:2]:
            g.double().add_mixed(g)
    assert e.counter == before
    assert sink == []


@pytest.mark.parametrize("backend", [0, 1], ids=["bigint", "words"])
def test_fp2_zero_inverse_raises_and_charges_nothing(backend, twin_engines):
    e = twin_engines[backend]
    before = e.counter.snapshot()
    zero12 = Fp12El.from_coeffs([Fp2El.zero(e)] * 6)
    for zero in (Fp2El.zero(e), Fp6El.zero(e), zero12):
        with pytest.raises(ZeroDivisionError):
            zero.inverse()
    assert e.counter == before


def test_fp2_operands_from_other_engines_or_fields_rejected(engine, rng):
    other = Engine()                  # same parameters, different engine
    x, y = rand_fp2(engine, rng), rand_fp2(other, rng)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y,
               lambda: x.mul_fp(y.c0)):
        with pytest.raises(TypeError):
            op()
    # an Fp value and an Fp2 value share their leaves' field and engine, so
    # only the operand types tell them apart: rejected before any tally, as
    # is an Fp2 value built from Fp and Fq parts or from Fp2 parts
    fp, fp2 = engine.fp(3), rand_fp2(engine, rng)
    before = engine.counter.snapshot()
    for op in (lambda: fp * fp2, lambda: fp2 * fp, lambda: fp + fp2,
               lambda: fp2.mul_fp(fp2),
               lambda: Fp2El(engine.fp(1), engine.fq(1)),
               lambda: Fp2El(fp2, fp2)):
        with pytest.raises(TypeError):
            op()
    assert engine.counter == before
    # Fp6/Fp12 operands from two engines, or one value spanning two, raise
    # before anything is counted
    a6, b6 = rand_fp6(engine, rng), rand_fp6(other, rng)
    f, g = rand_fp12(engine, rng), rand_fp12(other, rng)
    before = engine.counter.snapshot()
    for op in (lambda: a6 + b6, lambda: a6 - b6, lambda: a6 * b6,
               lambda: f + g, lambda: f - g, lambda: f * g,
               lambda: Fp12El(f.c0, g.c1)):
        with pytest.raises(TypeError):
            op()
    assert engine.counter == before


def _twin_op(name, e, rng):
    x, y = rand_fp2(e, rng), rand_fp2(e, rng)
    f, g = rand_fp12(e, rng), rand_fp12(e, rng)
    if name == "cyclotomic_sqr":
        z = f.conjugate() * f.inverse()
        f = e.tower.frobenius(z, 2) * z
    if name.startswith("fp2_"):
        op = name[4:]
        return _fp2_call({"sqr": "square", "inv": "inverse"}.get(op, op), x, y)
    return {
        "fp_inv": x.c0.inverse,
        "fq_inv": e.fq(x.c0.to_int()).inverse,
        "fp12_mul": lambda: f * g,
        "cyclotomic_sqr": f.cyclotomic_square,
        "pairing": lambda: pairing(e.curve.g1_gen, e.curve.g2_gen),
    }[name]


@pytest.mark.parametrize("name", ["fp2_add", "fp2_sub", "fp2_neg",
                                  "fp2_conjugate", "fp2_mul_by_xi",
                                  "fp2_mul_fp", "fp2_mul", "fp2_sqr",
                                  "fp2_inv", "fp_inv", "fq_inv", "fp12_mul",
                                  "cyclotomic_sqr", "pairing"])
def test_backends_agree_on_counts_and_traces(name, twin_engines):
    runs = []
    for e in twin_engines:
        op = _twin_op(name, e, random.Random(0x5EED))   # same inputs on both
        sink = []
        before = e.counter.snapshot()
        with e.tracing(sink):
            op()
        runs.append((e.counter.delta(before), sink))
    (db, tb), (dw, tw) = runs
    assert db == dw
    assert tb == tw and tb


COMPOSITE_OPS = ("fp6_mul", "fp6_square", "fp6_inverse", "fp12_mul",
                 "fp12_square", "cyclotomic_square", "fp12_inverse",
                 "fp12_conjugate", "frobenius1", "frobenius2", "frobenius3",
                 "sparse_mul", "dbl_step", "add_step")


def _composite_call(op, e, rng):
    """A thunk running one composite op on inputs drawn from rng; inputs are
    prepared uncounted."""
    a, b = rand_fp6(e, rng), rand_fp6(e, rng)
    f, g = rand_fp12(e, rng), rand_fp12(e, rng)
    X, Y, Z, xq, yq = (rand_fp2(e, rng) for _ in range(5))
    xp, yp = e.fp(rng.randrange(P)), e.fp(rng.randrange(P))
    with e.uncounted():
        tw = e.tower
        z = f.conjugate() * f.inverse()
        z = tw.frobenius(z, 2) * z                 # cyclotomic subgroup
    return {
        "fp6_mul": lambda: a * b,
        "fp6_square": a.square,
        "fp6_inverse": a.inverse,
        "fp12_mul": lambda: f * g,
        "fp12_square": f.square,
        "cyclotomic_square": z.cyclotomic_square,
        "fp12_inverse": f.inverse,
        "fp12_conjugate": f.conjugate,
        "frobenius1": lambda: tw.frobenius(f, 1),
        "frobenius2": lambda: tw.frobenius(f, 2),
        "frobenius3": lambda: tw.frobenius(f, 3),
        "sparse_mul": lambda: _pairing_kernel(op, f, (X, Y, Z)),
        "dbl_step": lambda: _pairing_kernel(op, X, Y, Z, xp, yp),
        "add_step": lambda: _pairing_kernel(op, X, Y, Z, xq, yq, xp, yp),
    }[op]


def _values_and_raw(a):
    """The tower values in a tower value or a tuple of them, and its raw
    value."""
    if isinstance(a, tuple):
        values, raws = zip(*map(_values_and_raw, a))
        return sum(values, []), raws
    return [a], a.val


def _pairing_kernel(op, *args):
    """One charged run of a raw pairing kernel (sparse_mul, dbl_step or
    add_step) on tower values; the result comes back as tower values."""
    values, raws = _values_and_raw(args)
    o = values[0].engine.raw_ops(*values)
    out = o.apply(op, *raws)
    if op == "sparse_mul":
        return Fp12El._wrap(o, out)
    *xyz, line = out
    return (*(Fp2El._wrap(o, v) for v in xyz),
            tuple(Fp2El._wrap(o, v) for v in line))


def _value_digest(v) -> str:
    """SHA-256 of the Fp coefficients of a tower value, or of a tuple of
    them, in layout order, each as 48 big-endian bytes."""
    def ints(v):
        if isinstance(v, tuple):
            return [i for x in v for i in ints(x)]
        if isinstance(v, Fp2El):
            return list(v.to_ints())
        if isinstance(v, FieldElement):
            return [v.to_int()]
        return [i for c in (v.c0, v.c1, getattr(v, "c2", None))
                if c is not None for i in ints(c)]
    return hashlib.sha256(b"".join(i.to_bytes(48, "big")
                                   for i in ints(v))).hexdigest()


# Each composite op at w = 64 on inputs from random.Random(0xC0FFEE): the
# counter delta in every field, the trace length and SHA-256, and the value's
# SHA-256; equal on both backends.
COMPOSITE_CONTRACT = {
    "fp6_mul": (
        {"m2": 6, "a2": 17, "word_mul": 1404, "word_add": 3860, "m1_in2": 18,
         "a1_in2": 64},
        105,
        "8e7e50e461d8d54bd5af22ac9f30b3776b0ad2131b89dc90fd2f5eb7681646fc",
        "17b58aba2c88571d94b25b1c2c5eccde20249aadc7e7fdb586bd25b3eb473371"),
    "fp6_square": (
        {"m2": 2, "s2": 3, "a2": 12, "word_mul": 936, "word_add": 2582,
         "m1_in2": 12, "a1_in2": 43},
        72,
        "6d89816247b2e031731060bd92665d07dfce1ae6c07c6b7a159f970f4430373c",
        "833a61adb52d65f63d5bd4052e353120740c227b7cb232128a131d607857b993"),
    "fp6_inverse": (
        {"m2": 9, "s2": 3, "a2": 8, "i2": 1, "word_mul": 50310,
         "word_add": 110546, "inv_m1": 608, "m1_in2": 37, "a1_in2": 72,
         "i1_in2": 1},
        739,
        "8f573255bc0b7661886091d6f9a0b0cdf1f40c15ffef7bf4f7c898d3b7e290bd",
        "764b3530a2b080743c1f56b0a5fdacf76d3667d81b6db808877595e59bf82b86"),
    "fp12_mul": (
        {"m2": 18, "a2": 67, "word_mul": 4212, "word_add": 11983,
         "m1_in2": 54, "a1_in2": 224},
        363,
        "a33c203126f1983234c602ef208033525dbe5255a4d0082eb244f0bdc38b1f7f",
        "4b5fea5e29f9a3bdd5bb1d71f9e0f8fe44bb9b955553ffd1acecdf4b82b62aef"),
    "fp12_square": (
        {"m2": 12, "a2": 51, "word_mul": 2808, "word_add": 8148, "m1_in2": 36,
         "a1_in2": 162},
        261,
        "b4ebf48b0e91c0c551d1baa3eaba4ec0cd03b21acb023a8db1ed11f577f665c1",
        "6161b97f87f126bd27ca5063b5a9cc956d20d6debaed3900f4d065450857e8dd"),
    "cyclotomic_square": (
        {"s2": 9, "a2": 34, "word_mul": 1404, "word_add": 4264, "m1_in2": 18,
         "a1_in2": 95},
        156,
        "9c8fd9ac3cda8d3a3eb8580ff3914d4b8a8b0a6a0d26d56e5a09c08783d15aa8",
        "634c690798ee366788c85bcd89e2603bae071125f4917e22f0e7f2252e9c2562"),
    "fp12_inverse": (
        {"m2": 25, "s2": 9, "a2": 73, "i2": 1, "word_mul": 54990,
         "word_add": 123599, "inv_m1": 608, "m1_in2": 97, "a1_in2": 300,
         "i1_in2": 1},
        1114,
        "0f1974f2a0fc05a9d992383f4e63f9141c709f59894ea8ba69996d4cf6715fce",
        "3ec05bbb86670e352220accc59e60a3d72766a52cc26c66b9b938c1add62691e"),
    "fp12_conjugate": (
        {"a2": 3, "word_add": 72, "a1_in2": 6},
        9,
        "e7f2e5faf1b4b15c089f999a7de0f5b265dff513941e19a00dd2330011fa67da",
        "3e1c5751a51553b2fd086daa1a97d3a44b629b5b4afb6f09335a7a1059fa8bb1"),
    "frobenius1": (
        {"m2": 5, "a2": 6, "word_mul": 1170, "word_add": 2932, "m1_in2": 15,
         "a1_in2": 31},
        57,
        "784ea1e9e944c822582f329de4f26be473483b4269cd8a27fd984bae3ef33530",
        "a15e395ee8eb51d89de822651271929aed8a39d42b2b9bf6f708366208ea15e2"),
    "frobenius2": (
        {"m1": 10, "word_mul": 780, "word_add": 1700},
        10,
        "935acee8339b184467484e21e84a127b423807650441bbe343d1c94c425ce62b",
        "3ac7f51998df6ededda75c599d5c8646f74a3b773d406d4a9c5257b496a4f12e"),
    "frobenius3": (
        {"m2": 5, "a2": 6, "word_mul": 1170, "word_add": 2932, "m1_in2": 15,
         "a1_in2": 31},
        57,
        "784ea1e9e944c822582f329de4f26be473483b4269cd8a27fd984bae3ef33530",
        "f5edaeab34e9128c22aacbed9f6ed07a9b89bb46f6ec68f44e73e29bc2394d59"),
    "sparse_mul": (
        {"m2": 14, "a2": 38, "word_mul": 3276, "word_add": 8963, "m1_in2": 42,
         "a1_in2": 146},
        240,
        "c34f0b44139142d00e5ce3055f83da2ad31ede004ff9310eac5f79458a1c5094",
        "a516a2e80783c950c0943bb38b12e54c41c0d26dd65b4db1eaabf25e64c36360"),
    "dbl_step": (
        {"m1": 4, "m2": 2, "s2": 7, "a2": 27, "word_mul": 1872,
         "word_add": 5154, "m1_in2": 20, "a1_in2": 85},
        145,
        "84d917a99bb191086451091c968f39fbe364a98c2a967d48b19dcac3e0e0c041",
        "04cab9f45b0af165ce1b96ded5925d83ef2694ed5056f5791f4fcc311438f584"),
    "add_step": (
        {"m1": 4, "m2": 11, "s2": 2, "a2": 10, "word_mul": 3198,
         "word_add": 7971, "m1_in2": 37, "a1_in2": 81},
        145,
        "3c57ff5d327c1ea46eb9819a1ffe984be80d2fb1c475dc3b9213e8902dd3f2b8",
        "174d19819351d23f70bc0b1837dfe7b255b85923d238b28d7b992a1300c7e608"),
}


@pytest.mark.parametrize("backend", [0, 1], ids=["bigint", "words"])
@pytest.mark.parametrize("op", COMPOSITE_OPS)
def test_composite_op_contract(op, backend, twin_engines):
    e = twin_engines[backend]
    delta, length, trace_sha, value_sha = COMPOSITE_CONTRACT[op]
    run = _composite_call(op, e, random.Random(0xC0FFEE))
    sink = []
    before = e.counter.snapshot()
    with e.tracing(sink):
        out = run()
    assert e.counter.delta(before) == OpCounter(**delta)
    assert len(sink) == length
    assert hashlib.sha256(" ".join(sink).encode()).hexdigest() == trace_sha
    assert _value_digest(out) == value_sha
