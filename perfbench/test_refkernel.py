"""Tests for the reference kernel and the meter built on it.

Run from the repository root: python3 -m pytest -q perfbench
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

import refkernel

HERE = Path(__file__).resolve().parent


def test_kernel_result_matches_closed_form():
    acc, box, counter = refkernel.run()
    assert acc == refkernel.EXPECTED == pow(refkernel.X + 1, refkernel.ROUNDS, refkernel.P)
    assert box[1] == acc & 0xFFFF
    assert counter.mul == counter.add == refkernel.ROUNDS


def test_kernel_result_depends_on_every_round():
    assert refkernel.run(refkernel.ROUNDS - 1)[0] != refkernel.EXPECTED


def test_timed_rejects_a_wrong_result(monkeypatch):
    real = refkernel.run
    monkeypatch.setattr(refkernel, "run", lambda: (real()[0] + 1,) + real()[1:])
    with pytest.raises(RuntimeError):
        refkernel.timed()


def test_kernel_never_imports_the_engine():
    code = ("import sys, refkernel; refkernel.timed(); "
            "print(any(m.startswith('pairing381') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_meter_samples_inside_a_region_and_excludes_kernel_time():
    meter = refkernel.Meter()
    t0 = meter.start()
    wall0 = time.perf_counter()
    while time.perf_counter() - wall0 < 0.2:
        pass
    seconds, ref = meter.stop(t0)
    inside = meter.kernels[1:]
    assert len(inside) >= 3, "SIGALRM never ran the kernel inside the region"
    assert seconds < time.perf_counter() - wall0
    assert seconds + sum(inside) == pytest.approx(0.2, abs=0.05)
    assert ref == pytest.approx(seconds / (sum(meter.kernels) / len(meter.kernels)))


def test_meter_never_nests_kernel_runs(monkeypatch):
    """A kernel run slower than the interval must not start another inside it."""
    real, depth, deepest = refkernel.timed, [0], [0]

    def slow():
        depth[0] += 1
        deepest[0] = max(deepest[0], depth[0])
        wall0 = time.perf_counter()
        while time.perf_counter() - wall0 < 3 * refkernel.INTERVAL:
            pass
        depth[0] -= 1
        return real()

    monkeypatch.setattr(refkernel, "timed", slow)
    meter = refkernel.Meter()
    t0 = meter.start()
    wall0 = time.perf_counter()
    while time.perf_counter() - wall0 < 0.3:
        pass
    meter.stop(t0)
    assert len(meter.kernels) >= 3
    assert deepest[0] == 1
