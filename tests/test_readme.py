"""The README's Library example runs as written, every name `cid` exports
resolves, and the CLI section lists every config path a library check
reports."""

import re
from pathlib import Path

import cid
from cid.cli import FIELD_PATHS

REPO = Path(__file__).resolve().parent.parent


def section(title: str) -> str:
    """The text of the README section titled title."""
    text = (REPO / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    """The one Python block of the README's Library section."""
    blocks = re.findall(r"```python\n(.*?)```", section("Library"),
                        re.DOTALL)
    assert len(blocks) == 1, blocks
    return blocks[0]


def test_library_example_runs(monkeypatch, capsys):
    monkeypatch.chdir(REPO)  # the example reads data/ relative to the root
    exec(compile(library_example(), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_public_names_resolve():
    for name in cid.__all__:
        assert getattr(cid, name, None) is not None, name


def test_cli_section_lists_every_field_path():
    cli = section("CLI")
    for path in FIELD_PATHS.values():
        assert f"`{path}`" in cli, path
