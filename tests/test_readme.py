import json
import re
from pathlib import Path

import mulfix as mx

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
