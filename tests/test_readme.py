"""The Library example of README.md runs as written, so a renamed or
reshaped entry point cannot leave it stale."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    exec(compile(block, str(README), "exec"), {})
