"""README's "Library quick start" block runs as printed and gives the values it prints."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, str(README), "exec"), namespace)
    report, check = namespace["report"], namespace["check"]
    assert report.primal_value == pytest.approx(5.05, abs=1e-9)
    assert report.gap <= 1e-9 * (1.0 + report.primal_value)
    assert check.margin >= 0.0
