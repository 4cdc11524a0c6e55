"""Base field arithmetic: values against the integer model, exact per-op
costs and traces, Montgomery sanity, and the fault-injection hook."""

import gc

import pytest

from pairing381 import Engine, OpCounter, fields
from pairing381.params import P, Q


def test_round_trip_and_ring_ops_match_integer_model(engine, rng):
    for spec, mod in (("fp", P), ("fq", Q)):
        make = getattr(engine, spec)
        for _ in range(200):
            a = rng.randrange(mod)
            b = rng.randrange(mod)
            fa, fb = make(a), make(b)
            assert fa.to_int() == a
            assert (fa + fb).to_int() == (a + b) % mod
            assert (fa - fb).to_int() == (a - b) % mod
            assert (-fa).to_int() == (-a) % mod
            assert (fa * fb).to_int() == a * b % mod
            assert fa.square().to_int() == a * a % mod


def test_zero_and_one_behave(engine):
    zero, one = engine.fp(0), engine.fp(1)
    x = engine.fp(12345)
    assert (x + zero) == x
    assert (x * one) == x
    assert (x * zero).is_zero()
    assert (x - x).is_zero()


def test_construction_reduces_and_rejects_nothing_in_range(engine):
    assert engine.fp(P - 1).to_int() == P - 1
    assert engine.fq(Q - 1).to_int() == Q - 1


def test_fp_inversion_is_exactly_608_multiplications(engine, rng):
    """The Fermat chain for p-2 costs bitlen-1 squarings plus popcount-1
    multiplies: 380 + 228 = 608. Confirmed arithmetically here, then against
    the live counter."""
    assert (P - 2).bit_length() == 381
    assert bin(P - 2).count("1") == 229
    assert (381 - 1) + (229 - 1) == 608

    x = engine.fp(rng.randrange(1, P))
    before = engine.counter.snapshot()
    xi = x.inverse()
    d = engine.counter.delta(before)
    assert xi.to_int() == pow(x.to_int(), -1, P)
    assert d.i1 == 1
    assert d.inv_m1 == 608
    assert d.m1 == 0 and d.s1 == 0   # chain internals are not double-counted


def test_fq_inversion_is_exactly_417_multiplications(engine, rng):
    assert (Q - 2).bit_length() == 255
    assert bin(Q - 2).count("1") == 164
    assert (255 - 1) + (164 - 1) == 417
    x = engine.fq(rng.randrange(1, Q))
    before = engine.counter.snapshot()
    xi = x.inverse()
    d = engine.counter.delta(before)
    assert xi.to_int() == pow(x.to_int(), -1, Q)
    assert d.iq == 1
    assert d.inv_mq == 417


def test_inverse_of_zero_raises(engine):
    with pytest.raises(ZeroDivisionError):
        engine.fp(0).inverse()


def test_m1_equivalent_weighs_inversions(engine, rng):
    before = engine.counter.snapshot()
    engine.fp(rng.randrange(1, P)).inverse()
    d = engine.counter.delta(before)
    assert d.m1_equivalent() == 608


def test_word_backend_matches_bigint_backend(rng):
    for w in (16, 32, 64):
        eb = Engine()
        ew = Engine(word_size=w, backend="words")
        for _ in range(20):
            a = rng.randrange(P)
            b = rng.randrange(P)
            assert (eb.fp(a) * eb.fp(b)).to_int() == (ew.fp(a) * ew.fp(b)).to_int()
            assert eb.fp(a).square().to_int() == ew.fp(a).square().to_int()
        x = rng.randrange(1, Q)
        assert eb.fq(x).inverse().to_int() == ew.fq(x).inverse().to_int()


def test_montgomery_sane_and_fault_injection():
    e = Engine()
    assert e.montgomery_sane()
    e.inject_fault()
    assert not e.montgomery_sane()
    # the fault is engine-local: a fresh engine is clean
    assert Engine().montgomery_sane()


def test_a_faulted_engines_store_dies_with_it():
    """Each inject_fault() makes a new field spec, which gets its own store
    of walks and constants; once the engine is gone, so is that store."""
    gc.collect()
    stores = len(fields._STORES)
    faulted = [Engine() for _ in range(3)]
    for e in faulted:
        e.inject_fault()
        assert not e.montgomery_sane()
    assert len(fields._STORES) == stores + 3
    del e, faulted
    gc.collect()
    assert len(fields._STORES) == stores


def test_mixed_field_operands_rejected(engine):
    with pytest.raises(TypeError):
        engine.fp(1) + engine.fq(1)


def test_field_element_bytes_round_trip(engine, rng):
    x = engine.fp(rng.randrange(P))
    raw = x.to_bytes()
    assert len(raw) == 48
    assert int.from_bytes(raw, "big") == x.to_int()


def _chain(modulus, f):
    return tuple(k + f for bit in bin(modulus - 2)[3:]
                 for k in ("s", "sm")[bit == "1"])


# At w = 64 Fp has six limbs (mont mul 78 word muls and 170 word adds, mod add
# 13 word adds, sub or neg 12) and Fq four (36 and 82, 9, 8).
FIELD_CONTRACT = {
    ("fp", "add"): ({"a1": 1, "word_add": 13}, ("a1",)),
    ("fp", "sub"): ({"a1": 1, "word_add": 12}, ("a1",)),
    ("fp", "neg"): ({"a1": 1, "word_add": 12}, ("a1",)),
    ("fp", "mul"): ({"m1": 1, "word_mul": 78, "word_add": 170}, ("m1",)),
    ("fp", "square"): ({"s1": 1, "word_mul": 78, "word_add": 170}, ("s1",)),
    ("fp", "inverse"): ({"i1": 1, "inv_m1": 608, "word_mul": 47424,
                         "word_add": 103360}, ("i1",) + _chain(P, "1")),
    ("fq", "add"): ({"aq": 1, "word_add": 9}, ("aq",)),
    ("fq", "sub"): ({"aq": 1, "word_add": 8}, ("aq",)),
    ("fq", "neg"): ({"aq": 1, "word_add": 8}, ("aq",)),
    ("fq", "mul"): ({"mq": 1, "word_mul": 36, "word_add": 82}, ("mq",)),
    ("fq", "square"): ({"sq": 1, "word_mul": 36, "word_add": 82}, ("sq",)),
    ("fq", "inverse"): ({"iq": 1, "inv_mq": 417, "word_mul": 15012,
                         "word_add": 34194}, ("iq",) + _chain(Q, "q")),
}


@pytest.mark.parametrize("backend", [0, 1], ids=["bigint", "words"])
@pytest.mark.parametrize("field,op", list(FIELD_CONTRACT))
def test_field_op_contract(field, op, backend, twin_engines, rng):
    """The exact counter delta in every field, the exact trace and the value
    of each Fp and Fq op, on both backends."""
    e = twin_engines[backend]
    mod = {"fp": P, "fq": Q}[field]
    a, b = rng.randrange(1, mod), rng.randrange(1, mod)
    x, y = getattr(e, field)(a), getattr(e, field)(b)
    call, want = {
        "add": (lambda: x + y, a + b),
        "sub": (lambda: x - y, a - b),
        "neg": (lambda: -x, -a),
        "mul": (lambda: x * y, a * b),
        "square": (x.square, a * a),
        "inverse": (x.inverse, pow(a, -1, mod)),
    }[op]
    delta, trace = FIELD_CONTRACT[field, op]
    sink = []
    before = e.counter.snapshot()
    with e.tracing(sink):
        out = call()
    assert e.counter.delta(before) == OpCounter(**delta)
    assert tuple(sink) == trace
    assert out.to_int() == want % mod


def test_records_are_built_lazily_from_branch_free_kernels():
    """Setting up the tower and curves builds no record (that work runs
    uncounted), the first counted op builds only its own, and a kernel that
    branches on a value cannot be recorded."""
    from pairing381.fields import KERNELS, X1, RawOps, kernel

    e = Engine()
    e.curve
    assert not any(o.records for o in e._ops.values())
    e.fp(2) * e.fp(3)
    assert list(e._ops[e.fp_spec].records) == ["mul"]

    @kernel("branchy", X1)
    def _branchy(o, a):
        return o.neg(a) if a else a
    try:
        with pytest.raises(TypeError):
            e.raw_ops(e.fp(1)).apply("branchy", e.fp(1).val)
    finally:
        del KERNELS["branchy"]
        delattr(RawOps, "branchy")
