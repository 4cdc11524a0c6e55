"""The README quick tour runs as written and prints what its comments say."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs_and_prints_its_comments():
    tour = README.read_text().split("## Library quick tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    expected = [line.split("#", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert expected and out.getvalue().splitlines() == expected
