"""The README's paper-to-code map and commands stay true to the code."""

import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import pytest

from pathheat import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
COMMANDS = [line for block in re.findall(r"```sh\n(.*?)```", README, re.S)
            for line in block.splitlines() if line.startswith("pathheat ")]
SUBCOMMANDS = {shlex.split(c)[1] for c in COMMANDS}


def test_every_subcommand_has_a_command(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    listed = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1)
    assert set(listed.split(",")) <= SUBCOMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_command_exits_0(tmp_path, command):
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(shlex.split(command)[1:] + ["--out", str(tmp_path)])
    assert status == 0


def test_table_names_resolve():
    # the table's rows after its header; the rule line starts "|---"
    rows = [line for line in README.splitlines() if line.startswith("| ")][1:]
    assert len(rows) == 8
    for row in rows:
        _, code, command, test = [c.strip() for c in row.strip("|").split("|")]
        for name in re.findall(r"`(\w+)\.(\w+)`", code):
            module = importlib.import_module(f"pathheat.{name[0]}")
            assert hasattr(module, name[1]), name
        assert re.match(r"`([a-z-]+)`", command).group(1) in SUBCOMMANDS
        path, *names = re.fullmatch(r"`(.+)`", test).group(1).split("::")
        source = (Path(__file__).resolve().parents[1] / path).read_text()
        for name in names:
            assert re.search(rf"^\s*(def|class) {name}\b", source, re.M), name
