"""`tools/cli_startup.py`: one timed fresh process, its faults and the modules it loaded."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_startup.py"
_spec = importlib.util.spec_from_file_location("cli_startup", _PATH)
cli_startup = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_startup)


@pytest.mark.parametrize("subcommand, want", [
    ("hclass", ["lil_lab", "lil_lab.slowvary"]),
    # the closed-form bound leaves the sampler, which `mc_verify` imports in its body, unloaded
    ("fn-bound", ["lil_lab", "lil_lab.bounds", "lil_lab.slowvary"]),
])
def test_a_subcommand_runs_once_and_loads_only_its_modules(capsys, subcommand, want):
    assert cli_startup.main(["--runs", "1", subcommand]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["subcommand", "median_ms", "peak_mb", "faults", "modules"]
    name, ms, mb, faults, *modules = row.split()
    assert name == subcommand and float(ms) > 0 and float(mb) > 0 and int(faults) > 0
    assert modules == want

