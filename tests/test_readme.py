"""The README's "Library use" example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\s+```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
