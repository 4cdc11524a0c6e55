"""tools/ab_layers.py runs end to end: HEAD against the working tree, one
round, two cases, in its layer mode and in its --compile mode. Each test
checks the layout of what the tool writes and that every figure is finite;
it asserts no speed."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CASES = ("dbl_step", "pairing")
OPS = ("mul2", "fp12_mul")


def _run(tmp_path, *argv) -> dict:
    """What the tool writes into an --out file that already holds a key."""
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode:
        pytest.skip("needs a git checkout with a commit")
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"kept": 1}))
    subprocess.run([sys.executable, str(ROOT / "tools" / "ab_layers.py"),
                    "HEAD", "--out", str(out), "--rounds", "1", *argv],
                   cwd=ROOT, check=True, timeout=120)
    got = json.loads(out.read_text())
    assert got["kept"] == 1
    return got


def test_ab_layers_smoke(tmp_path):
    layers = _run(tmp_path, "--cases", *CASES)["layers"]
    assert {"method", "host", "bytecode", "parent_loaded_first",
            "change_loaded_first"} == set(layers)
    for order in ("parent_loaded_first", "change_loaded_first"):
        assert tuple(layers[order]) == CASES
        for row in layers[order].values():
            assert set(row) == {"parent", "change", "ratio"}
            assert all(math.isfinite(row[k]) and row[k] > 0 for k in row)


def test_ab_layers_compile_smoke(tmp_path):
    table = _run(tmp_path, "--compile", "--cases", *OPS)["compile"]
    assert {"method", "host", "bytecode", "rows"} == set(table)
    rows = table["rows"]
    assert tuple(rows) == (*OPS, "all_ops", "verify_from_bytes")
    for name in (*OPS, "all_ops"):
        assert set(rows[name]) == {"bigint", "words"}
        for backend, row in rows[name].items():
            assert set(row) == {"parent", "change", "ratio"}
            for side in ("parent", "change"):
                assert set(row[side]) == {"walk_ms", "first_use_ms",
                                          "compile_ms", "compiles", "lines"}
                assert row[side]["walk_ms"] > 0 < row[side]["first_use_ms"]
                assert (row[side]["compiles"] > 0) == (backend == "bigint")
            assert math.isfinite(row["ratio"]) and row["ratio"] > 0
    verify = rows["verify_from_bytes"]
    for side in ("parent", "change"):
        assert verify[side]["ms"] > 0 and verify[side]["compiles"] > 0
        assert verify[side]["walks"] >= verify[side]["compiles"]
    assert math.isfinite(verify["ratio"]) and verify["ratio"] > 0
