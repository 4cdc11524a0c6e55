"""Trace consistency: spans from wrapped public functions add up.

Run from the repository root: python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import pairing381 as lib  # noqa: E402
from spans import Span, Tracer  # noqa: E402

NAMED = ("multi_miller_loop", "final_exp", "g1_subgroup_check",
         "g2_subgroup_check", "hash_to_g1", "g1_from_bytes", "g2_from_bytes")


@pytest.fixture(scope="module")
def verify_trace():
    """One traced verify request, decode included, as the benchmark runs it."""
    e = lib.Engine()
    rng = lib.CsprngState(b"\x11" * 32)
    sk, pk = lib.keygen(e, rng)
    msg = b"traced message"
    pkb, sigb = pk.to_bytes(), lib.sign(e, sk, msg).to_bytes()
    tracer = Tracer()
    with tracer.installed():
        root = tracer.open("request:verify", e)
        m0 = e.counter.m1_equivalent()
        root.start = tracer.clock()
        ok = lib.verify(lib.PublicKey.from_bytes(e, pkb), msg,
                        lib.Signature.from_bytes(e, sigb))
        root.end = tracer.clock()
        root.m1eq = e.counter.m1_equivalent() - m0
        tracer.close()
    assert ok is True
    return tracer


def test_every_target_is_restored_after_tracing(verify_trace):
    pairing_mod = sys.modules["pairing381.pairing"]
    protocol_mod = sys.modules["pairing381.protocol"]
    assert not hasattr(pairing_mod.multi_miller_loop, "__wrapped__")
    assert not hasattr(protocol_mod.g2_subgroup_check, "__wrapped__")
    assert not hasattr(lib.verify, "__wrapped__")


def test_name_imports_and_call_time_lookups_are_traced(verify_trace):
    names = [s.name for s in verify_trace.spans]
    # decode, the protocol's own validation and _prep_pair each check
    assert names.count("g2_subgroup_check") == 4   # pk x3, -G2 x1
    assert names.count("g1_subgroup_check") == 4   # sig x3, hash x1
    for name in ("verify", "hash_to_g1", "multi_miller_loop", "final_exp",
                 "g1_from_bytes", "g2_from_bytes"):
        assert name in names


def test_trace_is_consistent(verify_trace):
    assert verify_trace.problems() == []
    assert min(verify_trace.self_times()) >= 0
    spans = verify_trace.spans
    for i, kids in verify_trace.children().items():
        assert sum(spans[k].m1eq for k in kids) <= spans[i].m1eq


def test_named_children_cover_most_of_the_request(verify_trace):
    spans = verify_trace.spans
    request = spans[0].duration
    covered = 0.0
    for s in spans:
        # count a named span only when no named ancestor already covers it
        p, nested = s.parent, False
        while p is not None:
            nested |= spans[p].name in NAMED
            p = spans[p].parent
        if s.name in NAMED and not nested:
            covered += s.duration
    assert covered / request > 0.8
    final = next(s for s in spans if s.name == "final_exp")
    assert final.m1eq == 8264


def test_problems_flags_counter_and_time_violations():
    tracer = Tracer()
    engine = object()
    parent = Span("parent", None, 0, engine)
    parent.start, parent.end, parent.m1eq = 0.0, 1.0, 10
    child = Span("child", 0, 0, engine)
    child.start, child.end, child.m1eq = 0.0, 2.0, 11
    tracer.spans = [parent, child]
    found = tracer.problems()
    assert any("children m1eq 11 > own 10" in p for p in found)
    assert any("self time" in p for p in found)
