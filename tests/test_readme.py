"""The README's Library example runs as written, so it names only code that exists."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_library"})
    out = capsys.readouterr().out
    assert "STRONG_SET_SHAPLEY" in out and out.rstrip().endswith("True")
