"""The README's library examples run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    outputs = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        outputs.append(out.getvalue())
    # the quick start prints the verdict, its margin and the growth violations
    assert outputs[0] == "VERIFIED_SAMPLED 2.0\n0\n"
