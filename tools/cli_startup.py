"""Time one-shot `lil-lab` subcommands in fresh processes, take their
peak RSS, and list the `lil_lab` modules each one loads.

Each subcommand runs in N fresh `python -m lil_lab.cli` processes with
`src` first on PYTHONPATH, writing into a scratch directory; a run is
timed from spawn to exit, and its peak RSS is the `ru_maxrss` of the
rusage that `os.wait4` returns for it.  That figure is the larger of the
process's own peak and the peak of its largest waited-for child, never
their sum.  So for `fn-verify-w2`, whose second stripe runs in a forked
child, `peak_mb` is whichever of the two peaked higher, while the
benchmark's `peak_rss_mb` adds the child's peak to its parent's; the two
figures differ for that row.  `faults` is the median `ru_minflt` of
the same rusage, the minor page faults of the process and its
waited-for children together.  One untimed run before them lists the
modules in `sys.modules` at exit (the CLI module itself runs as
`__main__` and is not listed); where the environment lets Python write
bytecode, that run also fills the cache.

    python3 tools/cli_startup.py                 # every subcommand, 9 runs each
    python3 tools/cli_startup.py --runs 1 hclass # one subcommand, one run

One row per subcommand: the median wall milliseconds, the median peak
RSS in MB, the median minor page faults, then the modules.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The arguments after `lil-lab` that each row runs.
SUBCOMMANDS = {
    "hclass": ["hclass", "--h", "2*(LL)^1"],
    "constants": ["constants", "--h", "2*(LL)^1", "--H", "const:1"],
    "fn-bound": ["fn-bound", "--t", "5"],
    "fn-verify": ["fn-verify", "--trials", "200", "--n", "50", "--workers", "1"],
    # four chunks over the caller and one forked child: the cost of starting workers
    "fn-verify-w2": ["fn-verify", "--trials", "2048", "--n", "50", "--workers", "2"],
    # the benchmark's mc-many-short call, in the caller alone
    "fn-verify-many": ["fn-verify", "--dist", "rademacher:dim=5", "--space", "5,inf", "--n", "200",
                       "--trials", "20480", "--workers", "1"],
    # the same call for a scaled law, whose sampler scales each draw
    "fn-verify-scaled": ["fn-verify", "--dist", "rademacher:scales=1;2;3;4;5", "--space", "5,inf", "--n", "200",
                         "--trials", "20480", "--workers", "1"],
    "lil-sim": ["lil-sim", "--N", "1000", "--trials", "50", "--workers", "1"],
    # paths longer than one block: streamed block by block in the caller
    "lil-sim-long": ["lil-sim", "--N", "200000", "--trials", "4", "--workers", "1"],
}

# Runs the CLI as `-m` does and, at exit, prints the lil_lab modules loaded.
_LIST_MODULES = (
    "import atexit, runpy, sys; "
    "atexit.register(lambda: print(*sorted(m for m in sys.modules if m.split('.')[0] == 'lil_lab'), file=sys.stderr)); "
    "runpy.run_module('lil_lab.cli', run_name='__main__', alter_sys=True)"
)


def measure(args: list[str], runs: int) -> tuple[float, float, float, list[str]]:
    """(median wall ms, median peak RSS in MB and median minor faults over
    `runs` fresh processes, `lil_lab` modules imported) of one subcommand."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as out:
        args = [*args, "--out", out]
        listed = subprocess.run([sys.executable, "-c", _LIST_MODULES, *args], env=env, cwd=out,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True)
        modules = listed.stderr.splitlines()[-1].split()
        walls, peaks, faults = [], [], []
        for _ in range(runs):
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "lil_lab.cli", *args], env=env, cwd=out,
                                    stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            walls.append((time.perf_counter() - start) * 1e3)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode:
                raise subprocess.CalledProcessError(proc.returncode, proc.args)
            peaks.append(usage.ru_maxrss / 1024)  # KiB on Linux
            faults.append(usage.ru_minflt)
    return statistics.median(walls), statistics.median(peaks), statistics.median(faults), modules


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=9, help="fresh processes timed per subcommand")
    ap.add_argument("names", nargs="*", metavar="subcommand", help=f"any of {', '.join(SUBCOMMANDS)} (default: all)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    unknown = [name for name in args.names if name not in SUBCOMMANDS]
    if unknown:
        ap.error(f"unknown subcommand {unknown[0]!r}; choose from {', '.join(SUBCOMMANDS)}")
    print(f"{'subcommand':<16}{'median_ms':>10}{'peak_mb':>9}{'faults':>9}  modules")
    for name in args.names or SUBCOMMANDS:
        ms, mb, faults, modules = measure(SUBCOMMANDS[name], args.runs)
        print(f"{name:<16}{ms:>10.1f}{mb:>9.1f}{faults:>9.0f}  {' '.join(modules)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
