"""README's Python API block runs as written, so API drift fails the suite."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    field = namespace["field"]
    x, y = field.points.T
    exact = np.log((x - 3) ** 2 + (y - 4) ** 2)  # the block's boundary data is this harmonic function's
    assert np.linalg.norm(field.pred.real - exact) <= 1e-3 * np.linalg.norm(exact)
