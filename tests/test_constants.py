"""Facts about fixed constants, proved here and by `pairing381 selftest`
rather than at every process start: p, q and Jubjub's ell are prime, and
the generators pass their subgroup checks, the G1 one with omega and not
with the other cube root omega^2. A fresh import and Engine().curve run
none of these checks and load no dataclasses."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pairing381 import Engine, params
from pairing381.curve import g1_subgroup_check, g2_subgroup_check
from pairing381.fields import FieldElement
from pairing381.tower import Fp2El

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("name, bits", [("P", 381), ("Q", 255),
                                        ("JUBJUB_ELL", 252)])
def test_moduli_are_prime_with_their_bit_lengths(name, bits):
    n = getattr(params, name)
    assert params._is_probable_prime(n, rounds=24)
    assert n.bit_length() == bits
    assert not params._is_probable_prime(n * params.JUBJUB_ELL)


@pytest.mark.parametrize("backend", ["bigint", "words"])
def test_generators_pass_their_subgroup_checks_with_omega(backend):
    e = Engine(backend=backend)
    ctx = e.curve
    assert g1_subgroup_check(ctx.g1_gen)
    assert g2_subgroup_check(ctx.g2_gen)
    ctx.omega = e.fp(params.OMEGA ** 2 % params.P)   # the other cube root
    assert not g1_subgroup_check(ctx.g1_gen)


COLD_START = """
import json
import sys
seen = set()
sys.setprofile(lambda frame, event, arg: event == "call"
               and seen.add(frame.f_code.co_name))
import pairing381
e = pairing381.Engine()
e.curve
pairing381.Engine(word_size=32).curve
w = pairing381.Engine(backend="words")
w.curve
sys.setprofile(None)
print(json.dumps({
    "modules": sorted({"dataclasses", "inspect"} & sys.modules.keys()),
    "checks": sorted(seen & {"_is_probable_prime", "g1_subgroup_check",
                             "g2_subgroup_check", "frobenius"}),
    "tower": "tower" in vars(e),
    "scratch_word_mul": w._scratch.word_mul}))
"""


def test_cold_start_proves_no_fixed_constant():
    """A fresh process imports the package and builds .curve over two
    specs no engine has used and on a words engine: no dataclasses or
    inspect, no Miller-Rabin, no subgroup check, no Frobenius map, no word
    operation charged to the words engine's scratch counter, and the tower
    is still built with the curve."""
    out = subprocess.run([sys.executable, "-c", COLD_START],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == {"modules": [], "checks": [],
                                      "tower": True, "scratch_word_mul": 0}


def _constant_ints(e) -> dict:
    """The canonical ints of an engine's tower and curve constants."""
    fp2 = lambda raw: Fp2El._wrap(e._ops[e.fp_spec], raw).to_ints()
    fp = lambda raw: FieldElement._wrap(e._ops[e.fp_spec], raw).to_int()
    tower, curve = e.tower, e.curve
    return {
        "frob1": [fp2(c) for c in tower.frob[1]],
        "frob2": [fp(c) for c in tower.frob[2]],
        "frob3": [fp2(c) for c in tower.frob[3]],
        "skew_cx": tower.skew_cx.to_ints(), "skew_cy": tower.skew_cy.to_ints(),
        "g1_gen": [c.to_int() for c in (curve.g1_gen.x, curve.g1_gen.y,
                                        curve.g1_gen.z)],
        "g2_gen": [c.to_ints() for c in (curve.g2_gen.x, curve.g2_gen.y,
                                         curve.g2_gen.z)],
        "omega": curve.omega.to_int()}


CONSTANTS_SHA256 = (
    "2a83c0d2ed0cb37fe4b8ebc89d2aaa10415f65f709faec5766a4e3c24640acbb")


@pytest.mark.parametrize("backend, w", [("bigint", 64), ("words", 64),
                                        ("words", 32)])
def test_tower_and_curve_constants_are_pinned(backend, w):
    """Every Frobenius, skew and curve constant an engine holds, as
    canonical ints, is the pinned value on both backends and word sizes."""
    ints = _constant_ints(Engine(word_size=w, backend=backend))
    digest = hashlib.sha256(json.dumps(ints, sort_keys=True).encode())
    assert digest.hexdigest() == CONSTANTS_SHA256
