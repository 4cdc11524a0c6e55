"""Facts about fixed constants, proved here and by `pairing381 selftest`
rather than at every process start: p, q and Jubjub's ell are prime, and
the generators pass their subgroup checks, the G1 one with omega and not
with the other cube root omega^2. A fresh import and Engine().curve run
none of these checks and load no dataclasses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pairing381 import Engine, params
from pairing381.curve import g1_subgroup_check, g2_subgroup_check

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
sys.setprofile(None)
print(json.dumps({
    "modules": sorted({"dataclasses", "inspect"} & sys.modules.keys()),
    "checks": sorted(seen & {"_is_probable_prime", "g1_subgroup_check",
                             "g2_subgroup_check"}),
    "tower": "tower" in vars(e)}))
"""


def test_cold_start_proves_no_fixed_constant():
    """A fresh process imports the package and derives .curve over two
    specs no engine has used: no dataclasses or inspect, no Miller-Rabin,
    no subgroup check, and the tower is still derived with the curve."""
    out = subprocess.run([sys.executable, "-c", COLD_START],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == {"modules": [], "checks": [],
                                      "tower": True}
