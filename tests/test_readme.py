"""The README's Python examples run against the public API, so they
cannot drift from it."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 3
    for index, block in enumerate(blocks):
        code = compile(block, f"README.md python block {index}", "exec")
        exec(code, {"__name__": f"readme_block_{index}"})  # a fresh namespace per block
