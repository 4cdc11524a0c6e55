"""Verification's Miller value and verdicts, and -G2's prepared lines.

For a fixed key, message and signature, the Miller value of verify's live
pairs [(H(m), pk), (sig, -G2)] is pinned by its digest on a bigint and a
words engine, whatever path evaluates the -G2 side. The value is caught at
multi_miller_loop, which the spy below replaces in every package module
that holds it, as the benchmark's span tracer does.

Verification evaluates -G2 by its 68 prepared lines (prepared_neg_g2), one
prep_step of 4 Fp muls each; pairing, miller_loop and multi_pairing on
points, -G2 included, run the full steps and count and trace as before.
"""

import hashlib
import sys

import pytest

from pairing381 import Engine, fields
from pairing381.cios import from_limbs, to_limbs
from pairing381.curve import ecsm
from pairing381.hashing import CsprngState
from pairing381.pairing import (miller_loop, multi_miller_loop, multi_pairing,
                                pairing, prepared_neg_g2)
from pairing381.protocol import PublicKey, Signature, keygen, sign, verify

MSG = b"prepared lines"
# SHA-256 of repr() of the 12 Montgomery ints of verify's Miller value, the
# ints words holds: v R mod p of each bigint residue v
MILLER_SHA256 = (
    "d6f65da65c5c5d8b12146ebc6253b06550243050adf7bb20ae433ffd1862afd5")


@pytest.fixture(scope="module")
def wire():
    """Key, other key and signature over MSG as bytes, from a fixed seed."""
    e, rng = Engine(), CsprngState(b"\x5b" * 32)
    sk, pk = keygen(e, rng)
    _, other = keygen(e, rng)
    return pk.to_bytes(), other.to_bytes(), sign(e, sk, MSG).to_bytes()


def _spy(monkeypatch) -> list:
    """Each multi_miller_loop call's result, appended as it returns."""
    real, got = sys.modules["pairing381.pairing"].multi_miller_loop, []

    def spy(pairs):
        got.append(real(pairs))
        return got[-1]

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "pairing381" and getattr(
                mod, "multi_miller_loop", None) is real:
            monkeypatch.setattr(mod, "multi_miller_loop", spy)
    return got


def _digest(f) -> str:
    """The digest of an Fp12 value's 12 Montgomery ints, limbs joined."""
    ints, spec = [x for half in f.val for c in half for x in c], f.o.spec
    if f.engine.backend == "words":
        ints = [from_limbs(x, spec) for x in ints]
    else:
        ints = [x * spec.r1 % spec.modulus for x in ints]
    return hashlib.sha256(repr(ints).encode()).hexdigest()


@pytest.mark.parametrize("backend", ["bigint", "words"])
def test_verify_miller_value_and_verdicts_are_pinned(monkeypatch, wire,
                                                      backend):
    pkb, otherb, sigb = wire
    e = Engine(backend=backend)
    pk, other = PublicKey.from_bytes(e, pkb), PublicKey.from_bytes(e, otherb)
    sig = Signature.from_bytes(e, sigb)
    got = _spy(monkeypatch)
    assert verify(pk, MSG, sig) is True
    assert len(got) == 1 and _digest(got[0]) == MILLER_SHA256
    if backend == "bigint":      # the words verdicts take seconds each
        assert verify(pk, MSG + b"!", sig) is False
        assert verify(other, MSG, sig) is False


def test_verify_count():
    """1,445 M1-eq under the 24,689 of full -G2 steps: 63 doublings save
    2 m2 + 7 s2 = 20 each and 5 additions 11 m2 + 2 s2 = 37 each."""
    e = Engine()
    sk, pk = keygen(e, CsprngState(b"\x2a" * 32))
    sig = sign(e, sk, b"msg")
    verify(pk, b"msg", sig)
    before = e.counter.snapshot()
    assert verify(pk, b"msg", sig)
    assert e.counter.delta(before).m1_equivalent() == 23244


def _lines_key(e):
    return e._ops[e.fp_spec].store, ("neg_g2_lines", e.backend)


def test_first_verify_derives_the_lines_uncounted(monkeypatch):
    """Engine().curve, keygen and sign derive no lines; the first verify
    does, and counts and traces exactly as the second, which reads them."""
    monkeypatch.setattr(fields, "_STORES", {})
    e = Engine()
    e.curve
    store, key = _lines_key(e)
    assert key not in store
    sk, pk = keygen(e, CsprngState(b"\x2a" * 32))
    sig = sign(e, sk, b"msg")
    assert key not in store
    runs = []
    for _ in range(2):
        before, sink = e.counter.snapshot(), []
        with e.tracing(sink):
            assert verify(pk, b"msg", sig)
        runs.append((e.counter.delta(before), sink))
        assert len(store[key]) == 68
    assert runs[0] == runs[1]


def test_prepared_pair_matches_the_point(engine):
    """-G2 prepared or as a point: one Miller value; the prepared side runs
    no Fp2 squaring and 181 fewer Fp2 muls, and keeps the 68 x 4 Fp muls."""
    p = ecsm(7, engine.curve.g1_gen)
    prep = prepared_neg_g2(engine)
    costs, values = [], []
    for q in (prep.point, prep):
        before = engine.counter.snapshot()
        values.append(multi_miller_loop([(p, q)]))
        costs.append(engine.counter.delta(before))
    assert values[0] == values[1]
    full, fixed = costs
    assert (full.m2, full.s2, full.m1) == (1889, 451, 272)
    assert (fixed.m2, fixed.s2, fixed.m1) == (1708, 0, 272)
    assert full.m1_equivalent() - fixed.m1_equivalent() == 1445
    assert multi_pairing([(p, prep)]) == pairing(p, prep.point)


def test_words_lines_equal_bigint_lines_limb_for_limb(twin_engines):
    big, words = twin_engines
    spec = words.fp_spec
    lines = [prepared_neg_g2(e).lines for e in twin_engines]
    assert len(lines[0]) == 68
    assert [[[to_limbs(x * spec.r1 % spec.modulus, spec) for x in c]
             for c in line]
            for line in lines[0]] == [[list(c) for c in line]
                                      for line in lines[1]]


def test_a_faulted_engine_derives_its_own_lines():
    """inject_fault() makes a new Fp spec, whose store holds lines derived
    with the faulted arithmetic, from the faulted engine's own -G2; the
    pristine spec's stay as they were."""
    e = Engine()
    pristine = prepared_neg_g2(e).lines
    f = Engine()
    f.inject_fault()
    store, key = _lines_key(f)
    assert store is not _lines_key(e)[0] and key not in store
    faulted = prepared_neg_g2(f).lines
    assert store[key] is faulted and len(faulted) == 68
    assert faulted != pristine
    assert prepared_neg_g2(e).lines is pristine


# (m1-eq, SHA-256 of repr() of the op-kind trace), as before prepared lines
RAW_NEG_G2 = {
    "pairing": (15105, "8dc7760ada01ca3c755ecf1e994be1d9"
                       "8edefc3e89e58db8d98ad4fcf55d2019"),
    "miller_loop": (6841, "275315146189c46dd77ec3ab8268fbc2"
                          "e3b670134453168425fe8949af95ef22"),
    "multi_pairing": (19678, "ac229905a7d7d9626bf40c9f13adb805"
                             "db40e8a5510bb5a119913a063bd0e5d0"),
}


def test_pairings_on_the_point_minus_g2_count_and_trace_as_before(engine):
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    neg, p = -g2, ecsm(5, g1)
    calls = {"pairing": lambda: pairing(g1, neg),
             "miller_loop": lambda: miller_loop(g1, neg),
             "multi_pairing": lambda: multi_pairing([(g1, g2), (p, neg)])}
    for name, call in calls.items():
        before, sink = engine.counter.snapshot(), []
        with engine.tracing(sink):
            call()
        digest = hashlib.sha256(repr(sink).encode()).hexdigest()
        got = engine.counter.delta(before).m1_equivalent(), digest
        assert got == RAW_NEG_G2[name], name
