"""The exponentiation chains and scalar-multiplication loops, pinned whole.

Each case runs one loop (pow_public on Fp, Fp2 and Fp12, plain_mul, the
constant-time ladders, the double ladder behind the G1 and G2 splits and
scalar splitting, hash-to-G1) on inputs prepared uncounted, and pins the
literal OpCounter delta, the trace length and SHA-256 and the value's
SHA-256. The pins are equal on both backends, so the loops' op sequence does
not depend on how they hold their state.
"""

import hashlib
import random

import pytest

from pairing381 import OpCounter
from pairing381.curve import ecsm, g2_ecsm_split, plain_mul
from pairing381.fields import pow_public
from pairing381.hashing import CsprngState, hash_to_g1
from pairing381.jubjub import jubjub_ecsm
from pairing381.params import ABS_U, JUBJUB_ELL, P, Q
from pairing381.protocol import CountermeasureConfig, hardened_ecsm
from pairing381.tower import Fp2El, Fp12El


def _fp12(e, rng):
    return Fp12El.from_coeffs([Fp2El.of(e, rng.randrange(P), rng.randrange(P))
                               for _ in range(6)])


def _hardened(k, g, rng, **flags):
    return hardened_ecsm(k, g, CountermeasureConfig(
        CsprngState(rng.randbytes(32)), **flags))


def _loop_call(case, e, rng):
    """A thunk running one loop case; inputs are drawn from rng and
    prepared uncounted."""
    g1, g2, jub = e.curve.g1_gen, e.curve.g2_gen, e.jubjub.generator
    with e.uncounted():
        pt = {"g1": plain_mul(g1, rng.randrange(1, 1 << 16)),
              "g2": plain_mul(g2, rng.randrange(1, 1 << 16)),
              "jubjub": plain_mul(jub, rng.randrange(1, 1 << 16))}
        x2 = Fp2El.of(e, rng.randrange(P), rng.randrange(P))
        f = _fp12(e, rng)
    k = rng.randrange(1, Q)
    n = rng.randrange(1, 1 << 64)
    cases = {
        "pow_fp": lambda: pow_public(e.fp(rng.randrange(P)), (P + 1) // 4),
        "pow_fp2": lambda: pow_public(x2, (P - 3) // 4),
        "pow_fp12": lambda: pow_public(f, ABS_U),
        "ecsm_g1": lambda: ecsm(k, g1),
        "ecsm_g1_split": lambda: ecsm(k, g1, split=True),
        "ecsm_g2": lambda: ecsm(k, g2),
        "jubjub_ecsm": lambda: jubjub_ecsm(k % JUBJUB_ELL, jub),
        "g2_ecsm_split": lambda: g2_ecsm_split(k, g2),
        "hardened_projective_g1": lambda: _hardened(
            k, g1, rng, randomized_projective=True),
        "hardened_projective_g2": lambda: _hardened(
            k, g2, rng, randomized_projective=True),
        "hardened_split_g1": lambda: _hardened(
            k, g1, rng, scalar_splitting=True),
        "hash_to_g1": lambda: hash_to_g1(e, rng.randbytes(16), b"loop-dst"),
    }
    for group in ("g1", "g2", "jubjub"):
        cases[f"plain_mul_{group}"] = lambda p=pt[group]: plain_mul(p, n)
        cases[f"plain_mul_{group}_zero"] = lambda p=pt[group]: plain_mul(p, 0)
        cases[f"plain_mul_{group}_neg"] = lambda p=pt[group]: plain_mul(p, -n)
    return cases[case]


def _leaves(v) -> list:
    """The Fp or Fq elements of a value, by its parts in order."""
    parts = [getattr(v, n) for n in ("c0", "c1", "c2", "x", "y", "z")
             if hasattr(v, n)]
    return [fe for p in parts for fe in _leaves(p)] if parts else [v]


def _digest(v) -> str:
    """SHA-256 of the value's Fp or Fq leaves in order, each as 48
    big-endian bytes."""
    return hashlib.sha256(b"".join(fe.to_int().to_bytes(48, "big")
                                   for fe in _leaves(v))).hexdigest()


# Each case at w = 64 on inputs from random.Random(0xC0FFEE): the counter
# delta in every field, the trace length and SHA-256, and the value's
# SHA-256; equal on both backends.
LOOP_CONTRACT = {
    "ecsm_g1": (
        {"m1": 4337, "s1": 510, "a1": 14025, "i1": 1, "word_mul": 425490,
         "word_add": 1108655, "inv_m1": 608},
        19481,
        "d03d2d32d185d57b9af014bd36112048dcb6dc1b36111ea3296527dbe4967614",
        "fb55fd973f8dab83f9d9b556847d6fe02428ab6c7743e775fbca97f566eb29af"),
    "ecsm_g1_split": (
        {"m1": 2319, "s1": 256, "a1": 7850, "i1": 1, "word_mul": 248274,
         "word_add": 642386, "inv_m1": 608},
        11034,
        "40439c22d155b0e2f5c5cc5a3ec897eb5d1b1814a17c9646ff4e93e2497420a0",
        "fb55fd973f8dab83f9d9b556847d6fe02428ab6c7743e775fbca97f566eb29af"),
    "ecsm_g2": (
        {"m2": 4337, "s2": 510, "a2": 9435, "i2": 1, "word_mul": 1142154,
         "word_add": 3020114, "inv_m1": 608, "m1_in2": 14035, "a1_in2": 42087,
         "i1_in2": 1},
        71014,
        "c79037243174cc0197622be8165e71db498f34fbd7aa725aa5c1d15769a3e27f",
        "2499de73a754e9f2d88553d4fc177e9e4446553216552d84c0be835e651f4c00"),
    "g2_ecsm_split": (
        {"m2": 2322, "s2": 256, "a2": 5539, "i2": 1, "word_mul": 631020,
         "word_add": 1671015, "inv_m1": 608, "m1_in2": 7482, "a1_in2": 23452,
         "i1_in2": 1},
        39661,
        "97bbf7d83fd42993205844596d16e7a7f2f806987fcbec01995944cc949e539d",
        "2499de73a754e9f2d88553d4fc177e9e4446553216552d84c0be835e651f4c00"),
    "hardened_projective_g1": (
        {"m1": 4595, "s1": 510, "a1": 15555, "i1": 1, "word_mul": 445614,
         "word_add": 1171895, "inv_m1": 608},
        21269,
        "bbec7ea9f99fb2eec205b14fafe336c911246e6b563b785e7ad83009ea45895e",
        "fb55fd973f8dab83f9d9b556847d6fe02428ab6c7743e775fbca97f566eb29af"),
    "hardened_projective_g2": (
        {"m2": 4595, "s2": 510, "a2": 10965, "i2": 1, "word_mul": 1202526,
         "word_add": 3206450, "inv_m1": 608, "m1_in2": 14809, "a1_in2": 46437,
         "i1_in2": 1},
        77926,
        "5bf6171835061d4f67e652854184bc27d8af1b9b7cb9d2a47095fc6b05d1e291",
        "2499de73a754e9f2d88553d4fc177e9e4446553216552d84c0be835e651f4c00"),
    "hardened_split_g1": (
        {"m1": 4604, "s1": 510, "a1": 15596, "i1": 1, "word_mul": 446316,
         "word_add": 1173953, "inv_m1": 608},
        21319,
        "bdecc7a7de8f9c45a44d41005c7bd44b3a7376949a36fe5f7ae280dd6541a5d1",
        "fb55fd973f8dab83f9d9b556847d6fe02428ab6c7743e775fbca97f566eb29af"),
    "hash_to_g1": (
        {"m1": 1079, "s1": 896, "a1": 1715, "i1": 5, "word_mul": 391170,
         "word_add": 874740, "inv_m1": 3040},
        6735,
        "2775972e32440a60059546d9e341a94e2bc114ef1ddb9341c254ac3ab18c7e2a",
        "9b61ef921349bc1c79117161927cdd5fef3fe925f9c698ed380b3eb72e4fddba"),
    "jubjub_ecsm": (
        {"mq": 3530, "sq": 1260, "aq": 3780, "iq": 1, "word_mul": 187452,
         "word_add": 458978, "inv_mq": 417},
        8988,
        "0faf89ede44caefc62fc982cbdd313f4071489aced416218a881fbe580faab0a",
        "b2084838d1fbd3d63a820547dcc0c15638bbfccf846d19e9edcb2fbe837621fa"),
    "plain_mul_g1": (
        {"m1": 786, "s1": 126, "a1": 2654, "word_mul": 71136,
         "word_add": 189309},
        3566,
        "94b6539fb27f840cf9d7d1316274596af6e431adea90f6effb3e098b61953d0e",
        "f74150c394893d1df932db064309c66fb67626e83429ee987548a34c826ddc10"),
    "plain_mul_g1_neg": (
        {"m1": 786, "s1": 126, "a1": 2655, "word_mul": 71136,
         "word_add": 189321},
        3567,
        "9198fa7a0e76f2c5acd10f9063d7b52d0286ee926fba2cf3cc2299d8c1ebf403",
        "7cd4fab8621537c2f43b809fe7dd7a6fd8dde0a256774cd83c782faaead736f1"),
    "plain_mul_g1_zero": (
        {},
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "274576fcfd26905bbd3edde36f6a126be18e6c98f1133f48867149caa1845388"),
    "plain_mul_g2": (
        {"m2": 786, "s2": 126, "a2": 1868, "word_mul": 203580,
         "word_add": 545191, "m1_in2": 2610, "a1_in2": 8044},
        13434,
        "59abeddd109d6e5730575f2b43ed7e4bb7ee6614717d8b393d38c3bef414cb81",
        "2d3d0f6a1b818d238fcc4710b2833c7b43f1ec2b67c2970142d4429639002dfa"),
    "plain_mul_g2_neg": (
        {"m2": 786, "s2": 126, "a2": 1869, "word_mul": 203580,
         "word_add": 545215, "m1_in2": 2610, "a1_in2": 8046},
        13437,
        "2566cfdc172bb4fb83593a967983042fa30e91bd45cb00932bbe2e6d8fd4f83d",
        "1583799b4fc7b8f918117eb7f5adc65ed26bcbecd846bc71c9879219f61407e3"),
    "plain_mul_g2_zero": (
        {},
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4683651828fe1c0be9273e9250f3d8a272e66671b5a11eb3bc2049a2b04254d4"),
    "plain_mul_jubjub": (
        {"mq": 563, "sq": 286, "aq": 742, "word_mul": 30564,
         "word_add": 75879},
        1591,
        "b70d669e60ac181a81f2580b193d4e816f4fdb0df74d6f5ed316eb3bd0c8c122",
        "49efb720431e6e62fd1b3222fd602b6b1038b22d6d95c47ce729d744df35009c"),
    "plain_mul_jubjub_neg": (
        {"mq": 563, "sq": 286, "aq": 743, "word_mul": 30564,
         "word_add": 75887},
        1592,
        "f361269ba134e5dc1c2c985eb47dccb6de4c4dd58b83902b226776bd7beccc41",
        "0b19678b3e1f816a1bbdbe8f4881fb3b164dca3103da762ff0ac27b84b52aacd"),
    "plain_mul_jubjub_zero": (
        {},
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b9711691fa2b00c1b4c7d11047fbf4c19bf2d2e82bc5dc77e0d195e8d2a93859"),
    "pow_fp": (
        {"m1": 228, "s1": 378, "word_mul": 47268, "word_add": 103020},
        606,
        "ce9c95215b4a6bfebed10fa26e985fc18c8370da2bf7d5801a748ddc2d9eba7e",
        "7e85b56a7bb9e59c532dfc5058be0dc1915b3782239d5e2e11f430593c37f08d"),
    "pow_fp12": (
        {"m2": 846, "a2": 3548, "word_mul": 197964, "word_add": 573239,
         "m1_in2": 2538, "a1_in2": 11326},
        18258,
        "db66c8be34dd1542a3f228a24438adcff9c2cabb10673762e34b470278a3c6af",
        "e2ad74665c89d58f2b48e4ac399860efa274055ced9c4b56be173e9e6635d05c"),
    "pow_fp2": (
        {"m2": 227, "s2": 378, "word_mul": 112086, "word_add": 272728,
         "m1_in2": 1437, "a1_in2": 2269},
        4311,
        "41e8b1b072758ff7dc856c82d29e84a0465a1eb5845579ffc4d5d35e0b2568ec",
        "60f35c1f31673c4aa24f43a43fa30ad5bedb8b6be9751301d5d805581422ac22"),
}


@pytest.mark.parametrize("backend", [0, 1], ids=["bigint", "words"])
@pytest.mark.parametrize("case", sorted(LOOP_CONTRACT))
def test_loop_contract(case, backend, twin_engines):
    e = twin_engines[backend]
    delta, length, trace_sha, value_sha = LOOP_CONTRACT[case]
    run = _loop_call(case, e, random.Random(0xC0FFEE))
    sink = []
    before = e.counter.snapshot()
    with e.tracing(sink):
        out = run()
    assert e.counter.delta(before) == OpCounter(**delta)
    assert len(sink) == length
    assert hashlib.sha256(" ".join(sink).encode()).hexdigest() == trace_sha
    assert _digest(out) == value_sha
