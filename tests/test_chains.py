"""The fixed public-exponent chains, pinned whole.

Two Fp chains serve the square roots: x^((p+1)/4), the square-root
candidate, and x^((p-3)/4), the chain of SSWU's square root of a ratio.
The inversions are the Fermat chains x^(n-2) on Fp and on Fq. Each case pins
the stepwise run (pow_public, one tally per step, or an inverse) on both
backends: the literal OpCounter delta, the trace length and SHA-256, and the
value against the integer model. The square roots' chains run as one tally
each (tower.pow_sqrt, tower.pow_p34), which must reproduce those pins. On
bigint every fixed chain's value comes from CPython's pow, so it is held to
the words chains at the edges and, on a corrupted line modulus, must still
come out corrupted.
"""

import hashlib
import random

import pytest

from pairing381 import Engine, OpCounter
from pairing381.fields import pow_public
from pairing381.params import P, Q
from pairing381.tower import pow_p34, pow_sqrt

# case -> (field, exponent, counter delta at w = 64, trace length, trace SHA-256)
CHAIN_CONTRACT = {
    "sqrt": ("fp", (P + 1) // 4,
             {"m1": 228, "s1": 378, "word_mul": 47268, "word_add": 103020},
             606,
             "ce9c95215b4a6bfebed10fa26e985fc18c8370da2bf7d5801a748ddc2d9eba7e"),
    "p34": ("fp", (P - 3) // 4,
            {"m1": 227, "s1": 378, "word_mul": 47190, "word_add": 102850},
            605,
            "4e41d78aab442a12eb50f190c3aa42cd20c60ad9c2763ae1326199af5e90751c"),
    "inv_fp": ("fp", P - 2,
               {"i1": 1, "inv_m1": 608, "word_mul": 47424, "word_add": 103360},
               609,
               "443cb42906cd2e4ddf36b78edd832d196d845f9a4a55ee05aaa52a6e38b06747"),
    "inv_fq": ("fq", Q - 2,
               {"iq": 1, "inv_mq": 417, "word_mul": 15012, "word_add": 34194},
               418,
               "2f11beee3768cffea6d3801caecd5da6fbda3390082c13c3a73a900766b7044c"),
}


def _stepwise(case):
    """The chain as the tree walks it: pow_public's steps, or an inverse."""
    exp = CHAIN_CONTRACT[case][1]
    return (lambda x: x.inverse()) if case.startswith("inv") else (
        lambda x: pow_public(x, exp))


def _fixed(case):
    """The chain as a counted op: one tally for a square root's chain."""
    return {"sqrt": pow_sqrt, "p34": pow_p34}.get(case) or _stepwise(case)


def _check(e, case, run):
    """Run one chain on the case's seeded input and hold it to the pins."""
    field, exp, delta, length, trace_sha = CHAIN_CONTRACT[case]
    mod = P if field == "fp" else Q
    a = random.Random(case).randrange(2, mod)
    x = getattr(e, field)(a)
    sink = []
    before = e.counter.snapshot()
    with e.tracing(sink):
        out = run(x)
    assert e.counter.delta(before) == OpCounter(**delta)
    assert len(sink) == length
    assert hashlib.sha256(" ".join(sink).encode()).hexdigest() == trace_sha
    assert out.to_int() == pow(a, exp, mod)


@pytest.mark.parametrize("backend", [0, 1], ids=["bigint", "words"])
@pytest.mark.parametrize("case", sorted(CHAIN_CONTRACT))
def test_stepwise_chain_contract(case, backend, twin_engines):
    _check(twin_engines[backend], case, _stepwise(case))


@pytest.mark.parametrize("backend", [0, 1], ids=["bigint", "words"])
@pytest.mark.parametrize("case", sorted(CHAIN_CONTRACT))
def test_fixed_chain_reproduces_the_stepwise_contract(case, backend,
                                                      twin_engines,
                                                      monkeypatch):
    """A square root's chain is one tally, an inverse too, and each charges
    exactly the stepwise record and returns its value."""
    e = twin_engines[backend]
    o = e.raw_ops(getattr(e, CHAIN_CONTRACT[case][0])(1))
    tallies = []
    apply = o.apply
    monkeypatch.setattr(o, "apply", lambda op, *raw: (
        tallies.append(op), apply(op, *raw))[1])
    _check(e, case, _fixed(case))
    assert len(tallies) == 1


@pytest.fixture(scope="module")
def engines():
    """(backend, faulted) -> engine; a faulted engine has a corrupted n'."""
    out = {}
    for backend in ("bigint", "words"):
        for faulted in (False, True):
            e = out[backend, faulted] = Engine(backend=backend)
            if faulted:
                e.inject_fault()
    return out


def _edges(field):
    """1, n - 1, 2, R mod n (raw R^2 on words), R^-1 (raw 1 on words) and
    seeded values."""
    e = Engine()
    spec = e.fp_spec if field == "fp" else e.fq_spec
    n = spec.modulus
    rng = random.Random(field)
    return [1, n - 1, 2, spec.r1, spec.rinv] + [rng.randrange(2, n)
                                                for _ in range(8)]


@pytest.mark.parametrize("case", sorted(CHAIN_CONTRACT))
def test_fixed_chain_values_at_the_edges(case, engines):
    """Bigint's pow path against the words chains and the integer model,
    counted and uncounted, and a faulted engine's results differ from the
    pristine ones on both backends, but for 1 on bigint: its raw value is 1,
    whose powers are 1 under any modulus."""
    field, exp = CHAIN_CONTRACT[case][:2]
    n = P if field == "fp" else Q
    run = _fixed(case)
    for v in _edges(field):
        got = {}
        for key, e in engines.items():
            if field == "fp" or not key[1]:   # a fault corrupts Fp only
                x = getattr(e, field)(v)
                with e.uncounted():
                    got[key] = run(x).to_int()
                assert run(x).to_int() == got[key]
        assert got["bigint", False] == got["words", False] == pow(v, exp, n)
        if field == "fp":
            assert v == 1 or got["bigint", True] != got["bigint", False]
            assert got["words", True] != got["words", False]
