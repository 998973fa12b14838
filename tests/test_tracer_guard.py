"""The benchmark's tracer still finds every name it wraps, puts them back,
and sees every bracket probe.

`perfbench/tracer.py` swaps lil_lab functions and methods for wrappers by
name.  A refactor that drops or renames one of them, or that classifies a
probe without going through the wrapped name, must fail here, not only in
a traced benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from lil_lab import cli, constants, simulate, spaces
from lil_lab.slowvary import parse_cseq, parse_slow_vary

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
        # map_trials looks the pool map up in simulate, where the span must wrap it
        assert simulate.map_chunks is not before[("lil_lab.simulate", "map_chunks")]
        assert tracer._undo
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


@pytest.mark.parametrize("search", ["c0", "alpha0"])
def test_every_bracket_probe_is_a_traced_classifier_call(monkeypatch, search):
    """Each probe of a search is exactly one traced `constants.series_classify`
    span under the search's span, the endpoint verdicts are the probes'
    verdicts at lo and hi (no endpoint is classified again), and the
    INCONCLUSIVE probes are counted."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    H = constants.ConstTSM(1.0)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_pass()
        if search == "c0":
            br = constants.c0_compute(parse_slow_vary("2*(LL)^1"), H)
        else:
            br = constants.alpha0_compute(parse_cseq("psi:2*(LL)^1"), H)
    finally:
        tracer.uninstall()
    [top] = [i for i, s in enumerate(tracer.spans) if s.name == f"constants.{search}_compute"]
    spans = [s for s in tracer.spans if s.name == "constants.series_classify"]
    assert all(s.parent == top for s in spans)
    assert len(spans) == len(br.probes)
    at = {c: v for c, v, _ in br.probes}
    assert (br.lo_verdict, br.hi_verdict) == (at[br.lo], at[br.hi])
    verdicts = [v for _, v, _ in br.probes]
    inconclusive = verdicts.count(constants.INCONCLUSIVE)
    assert inconclusive > 0
    m = tracer.pass_metrics(0)
    assert m["constants.series_classify.calls"] == len(verdicts)
    assert m["constants.inconclusive_frac"] == inconclusive / len(verdicts)


_ROWS = np.arange(1.0, 9.0).reshape(4, 2)


@pytest.mark.parametrize("make,counter", [
    (lambda: constants.ConstTSM(1.0), "constants.H"),
    (lambda: constants.EmpiricalWrapTSM(_ROWS, spaces.SpaceSpec(2, 2.0)), "constants.H"),
    (lambda: spaces.EmpiricalTSM(_ROWS, spaces.SpaceSpec(2, 2.0)), "spaces.empirical_tsm"),
], ids=["const", "empirical-wrap", "empirical"])
def test_each_h_source_call_counts_under_its_own_name(monkeypatch, make, counter):
    """The H sources share one point-evaluation function, but each class
    binds it itself, so the tracer counts a call once, under the class's
    own counter."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    H = make()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_pass()
        H(5.0)
    finally:
        tracer.uninstall()
    calls = {k: v for k, v in tracer.cur.items() if k in ("constants.H.calls", "spaces.empirical_tsm.calls") and v}
    assert calls == {counter + ".calls": 1}
