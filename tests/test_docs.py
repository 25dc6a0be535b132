"""The README's Python API example runs against the package as it is."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_python_api_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "README 'Python API' section has no python code block"
    return match.group(1)


def test_readme_python_api_example_runs(capsys):
    exec(compile(readme_python_api_block(), f"{README}:Python API", "exec"), {})
    shape_line, scores_line = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"\(20, \d+\)", shape_line)
    accuracy, kappa = map(float, scores_line.split())
    assert 0.0 <= accuracy <= 1.0 and -1.0 <= kappa <= 1.0
