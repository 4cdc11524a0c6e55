"""Signatures over the pairing groups, aggregation, and the side-channel
countermeasure wrappers with their cost envelopes."""

import hashlib

import pytest

from pairing381.bench import ipe_encrypt_benchmark
from pairing381 import Engine
from pairing381.curve import G1Point, G2Point, ecsm, g2_ecsm_split
from pairing381.hashing import CsprngState
from pairing381.pairing import pairing
from pairing381.params import Q, U_SQ
from pairing381.protocol import (
    CountermeasureConfig,
    PublicKey,
    SecretKey,
    Signature,
    aggregate,
    aggregate_verify,
    hardened_ecsm,
    hardened_pairing,
    keygen,
    sign,
    verify,
)


@pytest.fixture
def crng():
    return CsprngState(b"\x2a" * 32)


def test_keygen_is_seed_deterministic(engine):
    sk1, pk1 = keygen(engine, CsprngState(b"\x01" * 32))
    sk2, pk2 = keygen(engine, CsprngState(b"\x01" * 32))
    assert sk1.scalar == sk2.scalar
    assert pk1.point == pk2.point
    assert 1 <= sk1.scalar < Q


def test_sign_verify_round_trip(engine, crng):
    sk, pk = keygen(engine, crng)
    sig = sign(engine, sk, b"hello")
    assert verify(pk, b"hello", sig)
    assert not verify(pk, b"hello!", sig)
    other_sk, other_pk = keygen(engine, crng)
    assert not verify(other_pk, b"hello", sig)
    assert not verify(pk, b"hello", sign(engine, other_sk, b"hello"))


def test_sign_runs_the_g1_split(engine, crng):
    """sign of b"msg": hash_to_g1's 5,011 M1-eq and the split's 3,183."""
    sk, pk = keygen(engine, crng)
    before = engine.counter.snapshot()
    sig = sign(engine, sk, b"msg")
    assert engine.counter.delta(before).m1_equivalent() == 8194
    assert verify(pk, b"msg", sig)


def test_dst_separates_signatures(engine, crng):
    sk, pk = keygen(engine, crng)
    sig = sign(engine, sk, b"msg", dst=b"ctx-a")
    assert verify(pk, b"msg", sig, dst=b"ctx-a")
    assert not verify(pk, b"msg", sig, dst=b"ctx-b")


def test_degenerate_keys_and_signatures_rejected(engine, crng):
    sk, pk = keygen(engine, crng)
    sig = sign(engine, sk, b"x")
    ident_sig = Signature(G1Point.identity(engine))
    assert not verify(pk, b"x", ident_sig)
    ident_pk = PublicKey(type(engine.curve.g2_gen).identity(engine))
    assert not verify(ident_pk, b"x", sig)
    with pytest.raises(ValueError):
        SecretKey(0)
    with pytest.raises(ValueError):
        SecretKey(Q)


def test_keys_and_signatures_take_only_their_group(engine):
    """The class only, before any tally: verify checks the curve and the
    subgroup, as many times as the benchmark's traces pin."""
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    before = engine.counter.snapshot()
    for cls, bad in ((PublicKey, (g1, engine.fp(5), 5)),
                     (Signature, (g2, engine.jubjub.generator, None))):
        for point in bad:
            with pytest.raises(TypeError, match="is expected"):
                cls(point)
    assert engine.counter == before


def test_keys_and_signature_of_two_engines_rejected_before_any_tally(engine,
                                                                     crng):
    other = Engine()
    sk, pk = keygen(engine, crng)
    sk2, pk2 = keygen(other, crng)
    sig2 = sign(other, sk2, b"m")
    before, before2 = engine.counter.snapshot(), other.counter.snapshot()
    for op in (lambda: verify(pk, b"m", sig2),
               lambda: aggregate_verify([pk2, pk], [b"m", b"n"], sig2)):
        with pytest.raises(TypeError, match="different fields or engines"):
            op()
    assert engine.counter == before and other.counter == before2


# Secret scalars whose split k = k1 + k2*u^2 has k1 = 0 or a small k2,
# then two seeded keys; each signs its own message.
EDGE_SCALARS = (1, 2, Q - 1, U_SQ - 1, U_SQ, U_SQ + 1, 5 * U_SQ)
SIGNATURE_CONTRACT_SHA256 = (
    "00cdfa1bdf7d19e88e85a42144642c7110dc9c5016ac5ab2e6af94b0a75d02a8")


@pytest.mark.parametrize("backend", [0, 1], ids=["bigint", "words"])
def test_signature_and_key_encodings_are_pinned(backend, twin_engines):
    """SHA-256 over the compressed public key and signature of each key,
    in order; equal on both backends."""
    e = twin_engines[backend]
    keys = [SecretKey(k) for k in EDGE_SCALARS]
    keys += [keygen(e, CsprngState(bytes([i]) * 32))[0] for i in (1, 2)]
    h = hashlib.sha256()
    for i, sk in enumerate(keys):
        pk = PublicKey(g2_ecsm_split(sk.scalar, e.curve.g2_gen))
        h.update(pk.to_bytes())
        h.update(sign(e, sk, b"contract message %d" % i).to_bytes())
    assert h.hexdigest() == SIGNATURE_CONTRACT_SHA256


def test_key_and_signature_bytes(engine, crng):
    sk, pk = keygen(engine, crng)
    sig = sign(engine, sk, b"serialize me")
    assert SecretKey.from_bytes(sk.to_bytes()).scalar == sk.scalar
    assert PublicKey.from_bytes(engine, pk.to_bytes()).point == pk.point
    assert Signature.from_bytes(engine, sig.to_bytes()).point == sig.point
    assert len(sk.to_bytes()) == 32
    assert len(pk.to_bytes()) == 96
    assert len(sig.to_bytes()) == 48
    with pytest.raises(ValueError):
        SecretKey.from_bytes(b"\x00" * 31)


def test_aggregate_flow(engine, crng):
    keys = [keygen(engine, crng) for _ in range(3)]
    msgs = [b"m-%d" % i for i in range(3)]
    sigs = [sign(engine, sk, m) for (sk, _), m in zip(keys, msgs)]
    pks = [pk for _, pk in keys]
    agg = aggregate(sigs)
    assert aggregate_verify(pks, msgs, agg)
    assert not aggregate_verify(pks, [msgs[1], msgs[0], msgs[2]], agg)
    assert not aggregate_verify(list(reversed(pks)), msgs, agg)
    tampered = aggregate([sigs[0], sigs[0], sigs[2]])
    assert not aggregate_verify(pks, msgs, tampered)


def test_aggregate_validation(engine, crng):
    sk, pk = keygen(engine, crng)
    sig = sign(engine, sk, b"a")
    with pytest.raises(ValueError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate_verify([pk], [b"a", b"b"], sig)
    with pytest.raises(ValueError):
        aggregate_verify([pk, pk], [b"same", b"same"], sig)
    with pytest.raises(ValueError):
        aggregate_verify([], [], sig)


def test_hardened_ecsm_all_flag_combinations(engine, crng, rng):
    g = engine.curve.g1_gen
    for rp in (False, True):
        for ss in (False, True):
            cfg = CountermeasureConfig(rng=crng, randomized_projective=rp,
                                       scalar_splitting=ss)
            for _ in range(3):
                k = rng.randrange(1, Q)
                assert hardened_ecsm(k, g, cfg) == ecsm(k, g)
            ident = G1Point.identity(engine)
            assert hardened_ecsm(5, ident, cfg) is ident


def test_hardened_ecsm_overhead(engine, crng, rng):
    g = engine.curve.g1_gen
    k = rng.randrange(1, Q)
    cfg = CountermeasureConfig(rng=crng, randomized_projective=True,
                               scalar_splitting=True)
    before = engine.counter.snapshot()
    hardened_ecsm(k, g, cfg)
    hardened = engine.counter.delta(before).m1_equivalent()
    before = engine.counter.snapshot()
    ecsm(k, g)
    plain = engine.counter.delta(before).m1_equivalent()
    assert hardened / plain <= 1.15


def test_hardened_ecsm_validation(engine, crng):
    for flags in (False, True):
        cfg = CountermeasureConfig(rng=crng, randomized_projective=flags,
                                   scalar_splitting=flags)
        before = engine.counter.snapshot()
        with pytest.raises(ValueError):
            hardened_ecsm(Q, engine.curve.g1_gen, cfg)
        with pytest.raises(ValueError):
            hardened_ecsm(3, G1Point.affine(engine, 1, 1), cfg)
        with pytest.raises(TypeError):
            hardened_ecsm(3, engine.jubjub.generator, cfg)
        assert engine.counter == before


def test_hardened_pairing_value_and_overhead(engine, crng, rng):
    g1, g2 = engine.curve.g1_gen, engine.curve.g2_gen
    cfg = CountermeasureConfig(rng=crng, randomized_pairing=True)
    want = pairing(g1, g2)
    before = engine.counter.snapshot()
    got = hardened_pairing(g1, g2, cfg)
    hardened = engine.counter.delta(before).m1_equivalent()
    assert got == want
    before = engine.counter.snapshot()
    pairing(g1, g2)
    plain = engine.counter.delta(before).m1_equivalent()
    assert 2.1 <= hardened / plain <= 2.6
    # flag off: plain path
    off = CountermeasureConfig(rng=crng)
    assert hardened_pairing(g1, g2, off) == want


def test_hardened_pairing_rejects_bad_inputs_before_its_draw(engine, crng):
    """Wrong classes, an off-curve point or two engines raise before the
    draw, its Fq inversion and its two ladders."""
    g1, g2, h2 = engine.curve.g1_gen, engine.curve.g2_gen, Engine().curve.g2_gen
    cfg = CountermeasureConfig(rng=crng, randomized_pairing=True)
    off = G2Point(g2.x, g2.x, g2.z)
    before, before2 = engine.counter.snapshot(), h2.engine.counter.snapshot()
    draws = crng.counter
    for p, q, exc in ((g1, g1, TypeError), (g2, g2, TypeError),
                      (g2, g1, TypeError), (g1, h2, TypeError),
                      (g1, off, ValueError)):
        with pytest.raises(exc):
            hardened_pairing(p, q, cfg)
    assert engine.counter == before and h2.engine.counter == before2
    assert crng.counter == draws


def test_ipe_benchmark_report(engine, crng):
    r = ipe_encrypt_benchmark(engine, 4, "splitscalar", crng)
    assert r["vector_len"] == 4
    assert r["values_agree"] is True
    assert r["ratio_plain_over_split"] >= 1.8
    assert r["per_element_splitscalar"] < r["per_element_plain"]
    assert r["m1_equivalent"] == 4 * r["per_element_m1_equivalent"]
    plain = ipe_encrypt_benchmark(engine, 2, "plain", crng)
    assert plain["per_element_m1_equivalent"] == plain["per_element_plain"]
    with pytest.raises(ValueError):
        ipe_encrypt_benchmark(engine, 0, "plain", crng)
    with pytest.raises(ValueError):
        ipe_encrypt_benchmark(engine, 1, "quantum", crng)
