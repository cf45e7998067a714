import argparse
import json
import re
from pathlib import Path

import pytest

import mulfix as mx
from mulfix.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_prints_what_it_shows(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.S).group(1)
    shown = [line.split("# ", 1)[1].strip() for line in block.splitlines()
             if line.startswith("print(")]
    assert len(shown) == 3
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == shown


def test_readme_config_schema_parses_with_the_strict_reader():
    block = re.search(r"### Config schema\n\n```jsonc\n(.*?)```",
                      README.read_text(encoding="utf-8"), re.S).group(1)
    data = json.loads(re.sub(r"//.*", "", block))
    config = mx.ExperimentConfig.from_json_dict(data)
    assert set(config.to_json_dict()) == set(data)


def test_every_name_the_readme_calls_on_mx_is_public():
    blocks = re.findall(r"^[ \t]*```python\n(.*?)^[ \t]*```",
                        README.read_text(encoding="utf-8"), re.S | re.M)
    called = {name for block in blocks for name in re.findall(r"\bmx\.(\w+)", block)}
    assert called, "no mx.<name> in the README's Python blocks"
    assert called <= set(mx.__all__), sorted(called - set(mx.__all__))


def test_every_public_name_resolves_and_star_import_gives_them_all():
    assert [name for name in mx.__all__ if not hasattr(mx, name)] == []
    namespace: dict = {}
    exec("from mulfix import *", namespace)
    assert set(mx.__all__) <= namespace.keys()


def section(heading: str) -> str:
    """The README's text under ``heading``, to the next heading of level 2."""
    text = README.read_text(encoding="utf-8")
    return re.search(rf"^{re.escape(heading)}\n(.*?)^## ", text, re.S | re.M).group(1)


def test_the_outputs_section_names_every_report_key(report_3_15):
    named = set(re.findall(r"`([^`\n]+)`", section("### Outputs")))
    data = report_3_15.to_json_dict()
    cls = data["classification"]
    keys = {*data, *cls, *cls["unevaluated"],
            *(key for entry in cls["conditions"].values() for key in entry),
            *(key for entry in cls["unevaluated"].values() for key in entry)}
    assert keys <= named, sorted(keys - named)


def flag_table() -> tuple[list[str], list[list[str]]]:
    """The subcommands of the README's CLI flag table, and its rows of cells."""
    block = re.search(r"^\| flag .*?\n\n", section("## CLI"), re.S | re.M).group(0)
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in block.strip().splitlines()]
    return [command.strip("`") for command in rows[0][1:-1]], rows[2:]


def minimal_argv(command: str, flag: str) -> list[str]:
    """The shortest argv the parser takes for ``command``, without ``flag``."""
    if command == "fixture":
        return ["fixture", "example_3_15"]
    return [command] if flag == "--config" else [command, "--config", "c.json"]


def test_the_cli_flag_table_matches_the_parser(capsys):
    commands, rows = flag_table()
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert commands == list(subparsers)
    for command in commands:  # the table lists every flag of every subcommand
        flags = {opt for action in subparsers[command]._actions
                 for opt in action.option_strings} - {"-h", "--help"}
        assert flags <= {row[0].strip("`").split()[0] for row in rows}, command

    for cells in rows:
        flag, *metavar = cells[0].strip("`").split()
        # a value for a metavar: the first of its choices, or 1 for a number or path
        given = [flag] + [m.strip("{}").split(",")[0] if m.startswith("{") else "1"
                          for m in metavar]
        for command, cell in zip(commands, cells[1:]):
            argv = minimal_argv(command, flag)
            if cell == "":
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv + given)
                assert exc.value.code == 2, (flag, command)
                continue
            assert cell in ("yes", "required"), (flag, command, cell)
            args = parser.parse_args(argv + given)
            assert getattr(args, flag[2:].replace("-", "_")) is not None, (flag, command)
            if cell == "required":
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                assert exc.value.code == 2, (flag, command)
            else:
                parser.parse_args(argv)
