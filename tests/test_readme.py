"""README's Python API example runs against the package's exports."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_example_prints_a_partition_csv():
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().strip().split("\n")
    assert lines[0].startswith("client,class_0,")
    assert lines[-1].startswith("GLOBAL,")
