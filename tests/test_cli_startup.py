"""`tools/cli_startup.py`: one timed fresh process and the modules it loaded."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_startup.py"
_spec = importlib.util.spec_from_file_location("cli_startup", _PATH)
cli_startup = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_startup)


def test_hclass_runs_once_and_loads_slowvary_alone(capsys):
    assert cli_startup.main(["--runs", "1", "hclass"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["subcommand", "median_ms", "modules"]
    name, ms, *modules = row.split()
    assert name == "hclass" and float(ms) > 0
    assert modules == ["lil_lab", "lil_lab.slowvary"]
