"""`tools/report_diff.py`: which paths differ, and when it fails."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", _PATH)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)

OLD = {"a": {"x": 1.0, "v": "DIVERGES", "probes": [{"slope": 2.0}]}, "n": 3, "gone": True}


def _run(tmp_path, new, *flags):
    paths = []
    for name, doc in (("old.json", OLD), ("new.json", new)):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(json.dumps(doc))
    return report_diff.main([*paths, *flags])


def test_identical_documents_print_nothing(tmp_path, capsys):
    assert _run(tmp_path, OLD) == 0
    assert capsys.readouterr().out == ""


def test_a_float_move_passes_within_rtol_and_fails_past_it(tmp_path, capsys):
    # the relative change is taken against the larger of the two sizes
    new = {**OLD, "a": {**OLD["a"], "probes": [{"slope": 2.5}]}}
    assert _run(tmp_path, new, "--rtol", "0.2") == 0
    assert capsys.readouterr().out == "a/probes/0/slope: 2.0 -> 2.5 (rel 0.2)\n"
    assert _run(tmp_path, new, "--rtol", "0.19") == 1


def test_any_other_difference_fails(tmp_path, capsys):
    new = {"a": {"x": 1.0, "v": "CONVERGES", "probes": [{"slope": 2.0}, {}]}, "n": 4}
    assert _run(tmp_path, new, "--rtol", "1") == 1
    assert capsys.readouterr().out.splitlines() == [
        'a/probes/1: (missing) -> {}',
        'a/v: "DIVERGES" -> "CONVERGES"',
        "gone: true -> (missing)",
        "n: 3 -> 4",
    ]
