"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload small_launches --seed 1 \\
        --seconds 20 --trace 0

Run it from the root of a checkout; it imports ``repro`` from ``src/``.
It clears every ``REPRO_*`` knob and points the artifact store at a
private directory under ``.perfbench-tmp/``, so neither the user's
``~/.cache/repro`` nor ambient settings change what it measures.

It prints every metric by name and unit, the error rate with its base,
and a machine fingerprint, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes the separate traced run and reports the per-layer
ones.  Timings are *simulator time*, the ``perf_counter`` wall clock a
user waits for; ``modeled_gpu_s`` (unit ``s_modeled``) is the
VideoCore IV prediction of ``GpgpuDevice.wall_time()`` and is never
mixed with it.  The run exits 1 when an invariant breaks (see
``loads.py``) and 2 when it cannot start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("process_start", "small_launches", "large_pipelines")


def isolate() -> Path:
    """Drop every ``REPRO_*`` knob, put ``src`` on the import path of
    this process and its children, and make a private scratch
    directory inside the checkout."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "store-0")
    return tmp


def fingerprint() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **_git(),
    }


def _git() -> dict:
    """Commit and dirty flag when the checkout is a git work tree
    (the search stops at the checkout root)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=10)
        if head.returncode != 0:
            return {"commit": "none", "dirty": None}
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": "none", "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it reaped
    (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    tmp = isolate()
    try:
        import loads
        from repro.gles2 import parallel

        run = (loads.process_start if args.workload == "process_start"
               else lambda *a: loads.in_process(args.workload, *a))
        try:
            out = run(args.seed, args.seconds, bool(args.trace), tmp)
        finally:
            parallel.shutdown_pool()
        if not args.trace:
            out.put("peak_rss_mb", peak_rss_mb(), "MB")
        machine = fingerprint()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    for name, (value, unit) in sorted(out.metrics.items()):
        print(f"{name:34s} {value:.6g} {unit}")
    print(f"{'error_rate':34s} {out.failed / out.attempted:.6g} ratio "
          f"({out.failed} failed or wrong of {out.attempted} requests "
          "attempted)")
    for note in out.notes:
        print(f"note: {note}")
    print(f"fingerprint: {json.dumps(machine)}")
    for problem in out.violations:
        print(f"INVARIANT BROKEN: {problem}", file=sys.stderr)
    correct = out.failed == 0 and not out.violations
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }))
    return 1 if out.violations else 0


if __name__ == "__main__":
    sys.exit(main())
