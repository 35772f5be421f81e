"""The README's library quickstart runs and prints the values it shows."""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quickstart_block():
    text = README.read_text()
    start = text.index("## Library quickstart")
    return re.search(r"```python\n(.*?)```", text[start:], re.S).group(1)


def test_readme_quickstart_prints_its_commented_values():
    code = quickstart_block()
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, str(README), "exec"), namespace)
    assert out.getvalue()
    shown = re.findall(r"^print\((.+?)\)\s+# (\S+)$", code, re.M)
    assert len(shown) == 2
    for expr, value in shown:
        assert eval(expr, namespace) == pytest.approx(float(value), rel=1e-12, abs=0.0)
