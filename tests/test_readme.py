"""README's library example runs as written and gives the values its
comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    split, report = scope["split"], scope["report"]
    assert "# strict (1000, 22)-split" in block and (split.n, split.k) == (1000, 22)
    assert "# report.f_lower == 9, report.f_upper == 22 == report.achieved_k" in block
    assert report.f_lower == 9 and report.f_upper == 22 == report.achieved_k
