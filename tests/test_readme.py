"""README examples run as written and give the results their comments state."""

import ast
import re
import shlex
from pathlib import Path

from spherecov.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced `language` block after the line `## heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"^```{language}\n(.*?)^```$", section, re.M | re.S).group(1)


def _stated_results(code: str) -> list:
    """(expression, value) for each line `expression  # literal` of `code`."""
    stated = []
    for line in code.splitlines():
        expression, _, comment = line.partition("#")
        try:
            ast.parse(expression.strip(), mode="eval")
            value = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            continue
        stated.append((expression.strip(), value))
    return stated


def test_quickstart_runs_and_gives_its_commented_results():
    code = _block("Library quickstart", "python")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    stated = _stated_results(code)
    assert stated == [
        ("cert.verdict", "PD"),
        ("cert.callback_path, cert.evaluations", ("vectorized", 1689)),
    ]
    for expression, value in stated:
        assert eval(expression, namespace) == value, expression


def test_command_line_examples_exit_as_commented(capsys, monkeypatch):
    monkeypatch.delenv("SPHERECOV_SEED", raising=False)
    stated = [
        (shlex.split(line.partition("#")[0]), int(code))
        for line, code in re.findall(r"^(spherecov .*# exit (\d+).*)$", _block("Command line", "sh"), re.M)
    ]
    assert stated == [(["spherecov", "certify", "--lambda", "0.5", "--nmax", "10", "--expr", "negx"], 4)]
    for argv, code in stated:
        assert main(argv[1:]) == code
        capsys.readouterr()
