"""Twisted Edwards curve over Fq: unified addition, the constant-time ladder
and its operation budget, scalar validation."""

import pytest

from pairing381.jubjub import JubjubPoint, jubjub_ecsm
from pairing381.params import JUBJUB_ELL, Q


def ref_mul(pt, k):
    acc = JubjubPoint.identity(pt.engine)
    for bit in bin(k)[2:] if k else "":
        acc = acc.double()
        if bit == "1":
            acc = acc.add(pt)
    return acc


def test_generator_has_order_ell(engine):
    g = engine.jubjub.generator
    assert g.on_curve()
    assert not g.is_identity()
    assert ref_mul(g, JUBJUB_ELL).is_identity()
    assert not ref_mul(g, JUBJUB_ELL // 2).is_identity()


def test_unified_addition_handles_special_cases(engine):
    g = engine.jubjub.generator
    ident = JubjubPoint.identity(engine)
    assert g.add(g) == g.double()
    assert g.add(-g) == ident
    assert g.add(ident) == g
    assert ident.add(ident) == ident
    assert (-g).on_curve()


def test_ladder_matches_reference(engine, rng):
    g = engine.jubjub.generator
    for _ in range(10):
        k = rng.randrange(JUBJUB_ELL)
        assert jubjub_ecsm(k, g) == ref_mul(g, k)


def test_ladder_edge_scalars(engine):
    g = engine.jubjub.generator
    assert jubjub_ecsm(0, g).is_identity()
    assert jubjub_ecsm(1, g) == g
    with pytest.raises(ValueError):
        jubjub_ecsm(JUBJUB_ELL, g)
    with pytest.raises(ValueError):
        jubjub_ecsm(5, JubjubPoint.affine(engine, 1, 1))


def test_ladder_exact_costs(engine, rng):
    g = engine.jubjub.generator
    for k in (1, rng.randrange(1, JUBJUB_ELL)):
        before = engine.counter.snapshot()
        jubjub_ecsm(k, g)
        d = engine.counter.delta(before)
        assert d.mq + d.sq == 4790
        assert d.aq == 3780
        assert d.iq == 1
        # within the published 5% window around 4,755
        assert abs(d.mq + d.sq - 4755) / 4755 <= 0.05


def test_ladder_trace_is_scalar_independent(engine, rng):
    g = engine.jubjub.generator
    traces = []
    # k = 0 ends on the identity, which still pays the affine inversion
    for k in (0, 1, rng.randrange(1, JUBJUB_ELL)):
        sink = []
        with engine.tracing(sink):
            jubjub_ecsm(k, g)
        traces.append(tuple(sink))
    assert traces[0] == traces[1] == traces[2]
    assert set(traces[0]) <= {"mq", "sq", "aq", "iq"}


def test_curve_membership_is_checked(engine):
    assert not JubjubPoint.affine(engine, 1, 1).on_curve()
    assert JubjubPoint.identity(engine).on_curve()
    assert engine.jubjub.d.to_int() == (-10240 * pow(10241, -1, Q)) % Q
