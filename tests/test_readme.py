"""The README's examples run: the library quickstart prints the values it
shows, and every command-line example exits 0 on the README config."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from stepdrive import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading, lang=""):
    text = README.read_text()
    start = text.index(heading)
    return re.search(r"```%s\n(.*?)```" % lang, text[start:], re.S).group(1)


def quickstart_block():
    return readme_block("## Library quickstart", "python")


CLI_LINES = [
    line for line in readme_block("## Command line", "sh").splitlines()
    if line.startswith("stepdrive ")
]


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


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_example_exits_0(line, tmp_path, monkeypatch, capsys):
    (tmp_path / "seq.cfg").write_text(readme_block("### Config grammar"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line, comments=True)[1:]) == 0
    assert capsys.readouterr().out
