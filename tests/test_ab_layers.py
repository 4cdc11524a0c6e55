"""tools/ab_layers.py runs end to end: HEAD against the working tree, one
round, two cases. It checks the layout of what the tool writes and that
every ratio is finite; it asserts no speed."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CASES = ("dbl_step", "pairing")


def test_ab_layers_smoke(tmp_path):
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode:
        pytest.skip("needs a git checkout with a commit")
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"kept": 1}))
    subprocess.run([sys.executable, str(ROOT / "tools" / "ab_layers.py"),
                    "HEAD", "--out", str(out), "--rounds", "1",
                    "--cases", *CASES], cwd=ROOT, check=True, timeout=120)
    got = json.loads(out.read_text())
    assert got["kept"] == 1
    layers = got["layers"]
    assert {"method", "host", "bytecode", "parent_loaded_first",
            "change_loaded_first"} == set(layers)
    for order in ("parent_loaded_first", "change_loaded_first"):
        assert tuple(layers[order]) == CASES
        for row in layers[order].values():
            assert set(row) == {"parent", "change", "ratio"}
            assert all(math.isfinite(row[k]) and row[k] > 0 for k in row)
