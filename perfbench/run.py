"""lil-lab benchmark: one command prints every metric by name with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The repository root is the parent of this directory; lil_lab is imported
from its `src/`, never from an installed copy.  Each run starts one
fresh driver process (driver.py) that makes every call of the workload
through `lil_lab.cli.main(argv)` or an exported library function, checks
every output, and times the passes.  The library's own pool runs at
`--workers = nproc` (at most 8), recorded with the result.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 the
per-layer ones.  Set-up (`import lil_lab.cli`) and pool start-up are
measured in fresh interpreters.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full result, with
quartiles, sample counts and run metadata, goes to
.perfbench/results/.  The exit code is nonzero when any output check
fails, and no result is printed when the benchmark cannot run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from driver import summary  # driver.py imports lil_lab only when run as the driver
from speed import REF_S, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("mc-long-paths", "mc-many-short", "analytic-sweep")
MAX_WORKERS = 8
#: Whole-run budget, kept below the 180 s a run may take.
DEADLINE_S = 170.0
#: Fresh interpreters timed for each set-up sample.
IMPORT_PROBES = 9
POOL_PROBES = 3

IMPORT_PROBE = "import time; t = time.perf_counter(); import lil_lab.cli; print(time.perf_counter() - t)"
POOL_PROBE = """\
import sys, time
from lil_lab._pool import map_chunks
w = int(sys.argv[1])
t = time.perf_counter()
map_chunks(abs, [(i,) for i in range(w)], w)
print(time.perf_counter() - t)
"""


class BenchError(Exception):
    pass


def run_child(cmd: list[str], env: dict, deadline: float, stdout=subprocess.PIPE) -> str:
    """Run a child in its own process group; kill the whole group at the deadline."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=stdout, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{cmd[1]} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited with {proc.returncode}")
    return out or ""


def probe(code: str, args: list[str], count: int, env: dict, deadline: float) -> tuple[dict, dict]:
    """Medians over `count` fresh interpreters of the seconds `code` prints.

    Returns them in reference seconds (speed.py), scaled by the median
    machine speed measured between the interpreters, and in wall seconds.
    """
    run_child([sys.executable, "-c", code, *args], env, deadline)  # compiles bytecode, untimed
    refs, walls = [reference_s()], []
    for _ in range(count):
        walls.append(float(run_child([sys.executable, "-c", code, *args], env, deadline).split()[-1]))
        refs.append(reference_s())
    speed = statistics.median(REF_S / r for r in refs)
    return summary([w * speed for w in walls]), summary(walls)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_stats() -> dict:
    files = sorted((SRC / "lil_lab").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "lil_lab" / "__init__.py").is_file():
        print(f"no lil_lab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workers = min(len(os.sched_getaffinity(0)), MAX_WORKERS)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    state = ROOT / ".perfbench"
    workdir = state / "work" / f"{args.workload}-{os.getpid()}"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_file = results / f"{stem}.driver.json"

    stats: dict[str, dict] = {}
    wall: dict[str, dict] = {}  # the same figures in wall seconds, printed for reference
    try:
        if args.trace:
            stats["pool.start_s"], wall["pool.start_s"] = probe(POOL_PROBE, [str(workers)], POOL_PROBES, env, deadline)
        else:
            stats["setup_s"], wall["setup_s"] = probe(IMPORT_PROBE, [], IMPORT_PROBES, env, deadline)
        run_child([sys.executable, str(HERE / "driver.py"), "--src", str(SRC),
                   "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--workers", str(workers),
                   "--workdir", str(workdir), "--result", str(result_file)],
                  env, deadline, stdout=subprocess.DEVNULL)
        doc = json.loads(result_file.read_text())
        result_file.unlink()
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        stats.update(doc["layers"])
    else:
        # One machine speed for the run: REF_S over the median reference time.
        wall["speed"] = summary([REF_S / r for r in doc["ref_s"]])
        speed = wall["speed"]["median"]
        pass_s = [sum(c) for c in doc["call_s"]]
        stats["throughput"] = summary([doc["work_per_pass"] / (p * speed) for p in pass_s])
        wall["throughput"] = summary([doc["work_per_pass"] / p for p in pass_s])
        stats["peak_rss_mb"] = summary([doc["peak_rss_mb"]])
    checks = list(doc["failures"])
    attempted, failed = doc["attempted"], len(checks)
    if args.trace and stats["trace.coverage_frac"]["median"] < 0.9:
        checks.append(f"named spans cover only {stats['trace.coverage_frac']['median']:.1%} of traced wall time")
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)), "workers": workers, "cpu": cpu_model(),
            "git_revision": git_revision(), **source_stats(), **doc["meta"],
            "work_unit": doc["work_unit"], "work_per_pass": doc["work_per_pass"]}

    for key, val in meta.items():
        print(f"# {key}: {val}")
    metrics = {}
    for m in wanted:
        s = stats[m["name"]]
        metrics[m["name"]] = {"value": s["median"], "unit": m["unit"]}
        print(f"{m['name']:<36} {s['median']:>14.6g} {m['unit']:<6} "
              f"(median of {s['n']}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    print(f"{'fail_frac':<36} {failed / attempted:>14.6g} {'ratio':<6} ({failed} of {attempted} calls failed)")
    for name, s in wall.items():
        label = "machine speed, REF_S / reference time" if name == "speed" else f"{name} in wall time"
        print(f"# {label}: median {s['median']:.6g} (of {s['n']}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    for line in checks:
        print(f"CHECK FAILED: {line}")
    out = {"correct": not checks, "attempted": attempted, "failed": failed, "metrics": metrics}
    full = {**out, "meta": meta, "stats": stats, "wall": wall, "failures": checks,
            "call_s": doc["call_s"], "ref_s": doc.get("ref_s")}
    (results / f"{stem}.json").write_text(json.dumps(full, indent=2) + "\n")
    print(json.dumps(out))
    return 0 if not checks else 1


if __name__ == "__main__":
    sys.exit(main())
