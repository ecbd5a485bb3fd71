"""Self-tests of the benchmark.  Run from the repository root::

    python3 -m pytest perfbench -q

They run each workload for one second, so the whole file takes about a
minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import loads  # noqa: E402
import mixes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.fixture(scope="module")
def short_runs():
    return {w: result(bench(w, 0)) for w in mixes.WORKLOADS}


@pytest.mark.parametrize("workload", mixes.WORKLOADS)
def test_short_run_prints_every_metric_and_no_errors(short_runs, workload):
    report, stdout = short_runs[workload]
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in report["metrics"].items()} == expected
    for name, unit in expected.items():
        assert report["metrics"][name]["value"] > 0, name
        assert any(line.startswith(name) and line.split()[2] == unit
                   for line in stdout.splitlines()), name
    error_line = next(line for line in stdout.splitlines()
                      if line.startswith("error_rate"))
    assert error_line.split()[1:3] == ["0", "ratio"]


@pytest.mark.parametrize("workload", mixes.WORKLOADS)
def test_modeled_time_repeats_with_the_same_seed(short_runs, workload):
    again, __ = result(bench(workload, 0))
    first = short_runs[workload][0]["metrics"]["modeled_gpu_s"]["value"]
    assert again["metrics"]["modeled_gpu_s"]["value"] == first


@pytest.mark.parametrize("workload", mixes.WORKLOADS)
def test_traced_run_reports_layers_and_covers_requests(workload):
    report, __ = result(bench(workload, 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in report["metrics"].items()} == expected
    assert report["metrics"]["trace.coverage"]["value"] >= 0.95
    assert report["metrics"]["trace.overhead"]["value"] > 0


def corrupt(output):
    output = np.array(output, copy=True)
    if output.dtype.kind == "f":
        return output * np.float32(1.01) + np.float32(1e-3)
    output.reshape(-1)[0] += 1
    return output


@pytest.mark.parametrize("workload", mixes.WORKLOADS)
def test_every_checker_rejects_a_corrupted_result(workload):
    for request in mixes.make_requests(workload, SEED):
        good = request.reference
        if request.compare is checks.band:
            good = good.astype(np.float32)
        assert request.check(good), request.kind
        assert not request.check(corrupt(good)), request.kind


def test_wrong_outputs_are_counted_and_the_loop_goes_on(tmp_path,
                                                        monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    rig = mixes.Rig("small_launches")
    requests = mixes.make_requests("small_launches", SEED)

    def altered(change):
        return [mixes.Request(r.kind, lambda rig, r=r: change(r.run(rig)),
                              r.reference, r.compare) for r in requests]

    out = loads.Outcome()
    book = checks.DigestBook()
    loads._run_pass(rig, requests, out, book, tracer=None)
    assert (out.attempted, out.failed) == (len(requests), 0)
    loads._run_pass(rig, altered(corrupt), out, book, tracer=None)
    assert out.failed == len(requests)
    # One ulp off still meets the float band, but the repetition no
    # longer matches the digest of the first pass.
    floats = sum(r.compare is checks.band for r in requests)
    loads._run_pass(rig, altered(lambda o: np.nextafter(o, np.inf)
                                 if o.dtype.kind == "f" else o),
                    out, book, tracer=None)
    assert out.failed == len(requests) + floats > len(requests)


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_launches",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
