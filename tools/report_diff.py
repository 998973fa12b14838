"""Print every JSON path at which two artifacts differ.

    python3 tools/report_diff.py OLD.json NEW.json [--rtol 1e-11]

A float that moved is printed with its relative change |new - old| /
max(|old|, |new|); any other difference (a string, a bool, a key or an
array entry present on one side only, a type change) is printed as a
value change.  Exit status 1 when a non-float differs or a float moved
by more than `--rtol`, else 0.  `resolved_spec/out`, the directory an
artifact was written to, is not compared: one argv run into two
directories gives two artifacts that agree.  Standard library only.
"""

import argparse
import json
import math
import sys

_MISSING = object()
#: Where the artifact was written, which two runs of one argv need not share.
_SKIPPED = {("resolved_spec", "out")}


def diffs(old, new, path=()):
    """(path, old, new) for every leaf at which `old` and `new` differ."""
    if path in _SKIPPED:
        return
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from diffs(old.get(key, _MISSING), new.get(key, _MISSING), (*path, key))
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from diffs(old[i] if i < len(old) else _MISSING, new[i] if i < len(new) else _MISSING, (*path, i))
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def rel_change(old: float, new: float) -> float:
    """|new - old| / max(|old|, |new|), inf when one side is not finite."""
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / max(abs(old), abs(new))


def _show(value) -> str:
    return "(missing)" if value is _MISSING else json.dumps(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--rtol", type=float, default=0.0, help="largest relative float change that passes")
    args = ap.parse_args(argv)
    docs = []
    for name in (args.old, args.new):
        with open(name) as fh:
            docs.append(json.load(fh))
    failed = False
    for path, old, new in diffs(*docs):
        where = "/".join(map(str, path))
        if isinstance(old, float) and isinstance(new, float):
            rel = rel_change(old, new)
            failed |= rel > args.rtol
            print(f"{where}: {old!r} -> {new!r} (rel {rel:.3g})")
        else:
            failed = True
            print(f"{where}: {_show(old)} -> {_show(new)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
