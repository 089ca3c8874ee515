"""The README's Python example runs against the current API."""
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 6 and all(math.isfinite(float(v)) for v in printed)
