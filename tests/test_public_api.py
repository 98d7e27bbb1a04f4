"""The public surface: every exported name exists, and the README's library
example runs as written."""

import pathlib
import re

import wsngain

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert len(set(wsngain.__all__)) == len(wsngain.__all__)
    missing = [name for name in wsngain.__all__ if not hasattr(wsngain, name)]
    assert not missing


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out
