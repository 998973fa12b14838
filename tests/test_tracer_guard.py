"""The benchmark's tracer still finds every name it wraps, and puts them back.

`perfbench/tracer.py` swaps lil_lab functions and methods for wrappers by
name.  A refactor that drops or renames one of them must fail here, not
only in a traced benchmark run.
"""

import sys
from pathlib import Path

from lil_lab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _snapshot() -> dict:
    """Every binding of every loaded lil_lab module and of its classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "lil_lab" and not name.startswith("lil_lab."):
            continue
        for key, val in vars(mod).items():
            out[(name, key)] = val
            if isinstance(val, type) and val.__module__ == name:
                for attr, member in vars(val).items():
                    out[(name, key, attr)] = member
    return out


def test_install_wraps_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not before[("lil_lab.cli", "main")]
        assert tracer._undo
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
