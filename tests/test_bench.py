"""The words cost report and the constants every engine is given.

run_bench's JSON (wall_time aside) is pinned for a fixed seed on every
concrete op, the sized ones at n=2 in each mode, so neither how an op's
inputs are drawn nor how it is measured can move a counter, a value or a
report field. A second engine must get the same constants as the first, as
values of its own, and the words constants must be the limb form of the
bigint ones.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import pairing381 as lib
from pairing381 import (CsprngState, Engine, PublicKey, Signature, aggregate,
                        bench, keygen, sign)
from pairing381.bench import run_bench
from pairing381.cios import to_limbs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import TARGETS, Tracer  # noqa: E402

SEED = bytes(range(32))

# op: (m1_equivalent, SHA-256 of the report minus wall_time, keys sorted)
REPORTS = {
    "pairing": (15105, "98169082de931f753e306466441f8ab1"
                       "291a4b4d3426659e9f03c669391f4d6f"),
    "ecsm-g1": (5455, "c226d7fafe5cec9c20a407090a2f6398"
                      "94deef7fdd7eb225804774cad02021c5"),
    "ecsm-jubjub": (0, "6065b1f9bd6bc2c558369b4b0d7fc189"
                       "2da6f3364afc4ccff1ce00f9c1d57698"),
    "hash-g1": (5015, "a9ad4ce029dd685581da7b6e8a56bc49"
                      "a3fb77ca8bbba21f56941351648cb559"),
    "ecsm-g2": (14643, "a09aebd0e4f5c7d65b77808c0c532fe8"
                       "9b7a040176030004e718a2ede19e2b70"),
    "hardened-pairing": (35203, "e09fbdb024159bd6aa9abe2ffe6f862e"
                                "7983df97c2b0d654f364f7e575337493"),
    "multipairing:2:sharedmlfe": (19678, "f089854ab09acd1178ebdaaa5cc13ef8"
                                         "0f3b0880fdb15261173834e12df8056b"),
    "ecsm-g2-split": (8090, "efe4bb42e3281e48afd5c026f85156a6"
                            "15c6c7fff6270865eb596bd9b4518c9c"),
    "hardened-ecsm": (5725, "8fd71a1e9c49b23fa0cec0ab960f04cd"
                            "b355b603b15c07ee612a96afa6b9087e"),
    "finalexp": (8264, "0ab69b527b3419b6a35813aec7742461"
                       "00a1e4a537421a946b9ce9ad16c4a9f4"),
    "miller": (6841, "859d70c93fde9b9726c7c33975049033"
                     "c31364d7fd243eaf3d24f07a40d48b42"),
    "multipairing:2:naive": (30264, "ffdd9e8e189bc25192991e9b5ec6e654"
                                    "f578a2d8b31cf3b2ab8a75b3cd852b70"),
    "multipairing:2:sharedfe": (22000, "e87893d0ef4d034af8c7084234a4a8e1"
                                       "fda1070603456c46e1d7da07732dc77f"),
    "ipe:2:plain": (29286, "cbb4b8390462adafae8e7ddb2672e6f8"
                           "62762b24533f923831d13b67c6fe2444"),
    "ipe:2:splitscalar": (16180, "a0d62cf75836d44295b0259a02b1485c"
                                 "6273e5f62277a864114e55d86d205864"),
}


@pytest.mark.parametrize("op", sorted(REPORTS))
def test_report_is_pinned(op):
    report = run_bench(op, 64, SEED)
    assert report.pop("wall_time") > 0
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    assert (report["m1_equivalent"], digest.hexdigest()) == REPORTS[op]


def test_sweep_rejects_a_size_without_a_cost_law_before_its_pairing(
        monkeypatch):
    monkeypatch.setattr(bench, "_pairing_m1_equivalent",
                        lambda: pytest.fail("the pairing ran"))
    with pytest.raises(ValueError, match="unsupported word size 17"):
        bench.sweep([16, 17])


def _values(e):
    return {"omega": e.curve.omega, "g1_gen": e.curve.g1_gen,
            "g2_gen": e.curve.g2_gen, "jubjub": e.jubjub.generator}


def _raw(e):
    raw = {name: v.val for name, v in _values(e).items()}
    raw["frob"] = tuple(e.tower.frob[power] for power in (1, 2, 3))
    return raw


def _limbs(v, spec):
    """Words' limbs of a bigint raw value: each residue v as v R mod n."""
    if type(v) is int:
        return to_limbs(v * spec.r1 % spec.modulus, spec)
    return tuple(_limbs(x, spec) for x in v)


def test_every_engine_gets_the_constants_as_values_of_its_own(twin_engines):
    for first in twin_engines:
        second = Engine(word_size=64, backend=first.backend)
        assert _raw(second) == _raw(first)
        for name, v in _values(second).items():
            assert v.engine is second and v.o in second._ops.values(), name
    big, words = map(_raw, twin_engines)
    spec = twin_engines[0].fp_spec
    for name, v in big.items():
        assert words[name] == _limbs(
            v, twin_engines[0].fq_spec if name == "jubjub" else spec), name


def test_traced_report_then_verify_is_consistent():
    """A traced report, then a traced verify from bytes, keygen, sign and
    aggregate verify of 4 keys from bytes on another bigint engine in the
    same process, as the benchmark's traced runs do: every traced function
    runs, the spans add up, no self time is negative, and no span of the
    report runs on the verify engine or charges it."""
    e = Engine()
    crng = CsprngState(b"\x22" * 32)
    keys = [keygen(e, crng) for _ in range(4)]
    msgs = [b"traced after a report %d" % i for i in range(4)]
    sigs = [sign(e, sk, m) for (sk, _), m in zip(keys, msgs)]
    pkbs = [pk.to_bytes() for _, pk in keys]
    sigb, aggb = sigs[0].to_bytes(), aggregate(sigs).to_bytes()
    tracer = Tracer()
    with tracer.installed():
        outs = []
        for kind, request in (
                ("report", lambda: run_bench("ecsm-g1", 64, SEED)),
                ("verify", lambda: lib.verify(PublicKey.from_bytes(e, pkbs[0]),
                                              msgs[0], Signature.from_bytes(e, sigb))),
                ("keygen", lambda: lib.keygen(e, crng)),
                ("sign", lambda: lib.sign(e, keys[0][0], b"traced")),
                ("aggverify", lambda: lib.aggregate_verify(
                    [PublicKey.from_bytes(e, b) for b in pkbs], msgs,
                    Signature.from_bytes(e, aggb)))):
            root = tracer.open("request:" + kind, e)
            m0 = e.counter.m1_equivalent()
            root.start = tracer.clock()
            outs.append(request())
            root.end = tracer.clock()
            root.m1eq = e.counter.m1_equivalent() - m0
            tracer.close()
    assert outs[1] is True and outs[4] is True
    assert {name for _, name, _, _ in TARGETS} <= {s.name for s in tracer.spans}
    assert tracer.problems() == []
    assert min(tracer.self_times()) >= 0
    report = tracer.spans[0]
    assert report.name == "request:report" and report.m1eq == 0
    ecsms = [s for s in tracer.spans if s.name == "ecsm" and s.parent == 0]
    assert len(ecsms) == 2      # the input's ladder and the reported one
    assert all(s.engine is not e for s in ecsms)
