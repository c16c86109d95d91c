"""The README's Library example runs as written, and every name `cid`
exports resolves."""

import re
from pathlib import Path

import cid

REPO = Path(__file__).resolve().parent.parent


def library_example() -> str:
    """The one Python block of the README's Library section."""
    text = (REPO / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1, blocks
    return blocks[0]


def test_library_example_runs(monkeypatch, capsys):
    monkeypatch.chdir(REPO)  # the example reads data/ relative to the root
    exec(compile(library_example(), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_public_names_resolve():
    for name in cid.__all__:
        assert getattr(cid, name, None) is not None, name
