"""The README's Library example runs as written, every name `cid` exports
resolves, the CLI section lists every config path a library check reports,
and the Config fields section states every config field as the parser
reads it."""

import json
import re
from pathlib import Path

import cid
from cid.cli import FIELD_PATHS, FIELDS, REQUIRED

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


# How the Config fields section names the type each converter reads.
TYPES = {"_mode": "string", "_string": "string", "_finite": "number",
         "_integer": "integer", "_finite_list": "list of numbers",
         "_pair": "pair of numbers",
         "_mechanism": "string or list of numbers"}


def default_text(default) -> str:
    """A field's default as the Config fields section states it."""
    if default is REQUIRED:
        return "required"
    if default is None:
        return "default none"
    if isinstance(default, dict):  # one default per mode
        return "default " + ", ".join(f"`{json.dumps(value)}` ({mode})"
                                      for mode, value in default.items())
    return f"default `{json.dumps(default)}`"


def test_config_fields_section_states_every_field():
    text = re.sub(r"\n  +", " ", section("Config fields"))  # join wrapped items
    items = dict(re.findall(r"^- `([^`]+)`: (.*)$", text, re.MULTILINE))
    assert list(items) == list(FIELDS)
    for path, field in FIELDS.items():
        stated = f"{TYPES[field.convert.__name__]}, {default_text(field.default)}"
        assert re.match(re.escape(stated) + r"([.:;]|$)", items[path]), \
            (path, stated)
