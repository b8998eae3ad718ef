import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_api_block() -> str:
    """The first ```python block under the README's "## Python API" heading."""
    text = README.read_text()
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README 'Python API' section has no python block"
    return match.group(1)


def test_python_api_example_runs_as_written():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(python_api_block(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # totals, truncation, one line per sideband entry, trap metrics
    assert len(lines) > 4
    total_T, total_R, _ = (float(v) for v in lines[0].split())
    assert abs(total_T + total_R - 1.0) < 1e-9
