"""Closed-loop drivers of the three workloads and the metrics they give.

One client sends each request after the previous one completed.
``process_start`` runs one child interpreter at a time (:mod:`job`),
alternating an empty private artifact store (cold) with one primed
before the loop (warm).  The in-process workloads set up in this
process, then spend half the run on start-up jobs in children (cold,
then warm on the same store; the first-result and set-up samples) and
half on whole passes of the seeded request sequence, interleaved.

Outputs are checked after each pass or job, outside the timed window;
a wrong output is counted, never fatal.  A broken invariant (a
relaunch that recompiles, a lost fusion or gather path, a warm job
that compiles fresh, a modeled time that does not repeat) is recorded
as a violation and fails the run.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List

import checks
import layers
import mixes
from repro.perf import trace as perf_trace

HERE = Path(__file__).resolve().parent
#: Cold jobs that prime the warm store; their median is process_start's
#: setup_s.
PRIMING_JOBS = 3
#: Start-up job pairs an in-process run makes at the least.
MIN_STARTUP_PAIRS = 2
JOB_TIMEOUT_S = 120


class Outcome:
    """What a workload run measured and checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations: List[str] = []
        self.metrics: Dict[str, tuple] = {}  # name -> (value, unit)
        self.notes: List[str] = []

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def violate(self, problems) -> None:
        for problem in problems:
            if problem not in self.violations:
                self.violations.append(problem)

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile
    that leaves at least ten samples above it; the maximum when there
    are fewer than eleven samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def put_latencies(out: Outcome, latencies, what: str) -> None:
    value, pct, beyond = tail(latencies)
    out.put("latency_p50_s", statistics.median(latencies), "s")
    out.put("latency_tail_s", value, "s")
    out.notes.append(
        f"latency_tail_s is p{pct:.1f} of {len(latencies)} {what} "
        f"({beyond} samples beyond it)")


class Jobs:
    """Runs :mod:`job` children and checks what they report against the
    other executions of the same seeded requests."""

    def __init__(self, workload, seed, tmp: Path, out: Outcome, book):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.out, self.book = out, book
        self.modeled = None
        self.stores = 0

    def fresh_store(self) -> Path:
        self.stores += 1
        return self.tmp / f"store-{self.stores}"

    def run(self, store: Path, warm: bool, trace=False):
        """One job; returns its report, or None when it failed."""
        command = [sys.executable, str(HERE / "job.py"),
                   "--workload", self.workload, "--seed", str(self.seed)]
        command += ["--trace"] * trace
        env = dict(os.environ, REPRO_CACHE_DIR=str(store))
        t_spawn = time.perf_counter()
        # Own session, so a hung job is killed with its pool workers.
        proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
        wall = time.perf_counter() - t_spawn
        if proc.returncode != 0:
            self.out.count(False)
            self.out.notes.append(
                f"job failed: {stderr.strip().splitlines()[-1:]}")
            return None
        report = json.loads(stdout.strip().splitlines()[-1])
        report["first_result_s"] = report["t_result"] - t_spawn
        report["wall_s"] = wall
        ok = all(report["ok"]) and all(
            self.book.same(i, d) for i, d in enumerate(report["digests"]))
        self.out.count(ok)
        self.out.violate(report["violations"])
        if report["counters"]["compile.jit_fallback_draws"]:
            self.out.violate(["a job fell back from the JIT"])
        if self.modeled is None:
            self.modeled = report["modeled_s"]
        if report["modeled_s"] != self.modeled:
            self.out.violate(["modeled time differs between jobs of the "
                              "same seeded sequence"])
        if warm and (report["ir"]["fresh"] or report["jit"]["fresh"]
                     or not report["disk"]["hits"]):
            self.out.violate([
                f"a warm job compiled fresh or missed the disk store "
                f"(ir={report['ir']}, jit={report['jit']}, "
                f"disk hits={report['disk']['hits']})"])
        return report


def job_layers(out: Outcome, cold: List[dict], warm: List[dict]) -> None:
    """Layer metrics the jobs report: import time, and compile and
    artifact-store counts (fresh work and misses per cold job, disk
    loads and hits per warm job)."""
    jobs = cold + warm

    def mean(reports, get):
        return statistics.fmean(get(r) for r in reports) if reports else 0.0

    out.put("import.s", statistics.median(r["import_s"] for r in jobs), "s")
    for stage in ("ir", "jit"):
        out.put(f"compile.{stage}_fresh",
                mean(cold, lambda r: r[stage]["fresh"]), "count")
        out.put(f"compile.{stage}_disk",
                mean(warm, lambda r: r[stage]["disk"]), "count")
    hits = sum(r["disk"]["hits"] for r in jobs)
    misses = sum(r["disk"]["misses"] for r in jobs)
    out.put("cache.hits", mean(warm, lambda r: r["disk"]["hits"]), "count")
    out.put("cache.misses", mean(cold, lambda r: r["disk"]["misses"]), "count")
    out.put("cache.hit_ratio", hits / (hits + misses) if hits + misses else 0,
            "ratio")
    for name in ("write_failures", "load_failures"):
        out.put(f"cache.{name}", mean(jobs, lambda r: r["disk"][name]),
                "count")
    out.notes.append(
        f"cache.hit_ratio base: {hits + misses} store lookups over "
        f"{len(jobs)} jobs")


def _put_layers(out: Outcome, per_unit: Dict[str, float]) -> None:
    for name, value in sorted(per_unit.items()):
        unit = "ratio" if name == "trace.coverage" else "s"
        out.put(name, value, unit)


def _put_counters(out: Outcome, totals: Counter, units: int) -> None:
    for name in ("launch.draws", "draw.fragments", "upload.bytes",
                 "readback.bytes", "graph.fused_draws", "graph.elided_draws",
                 "graph.dead_launches", "graph.scratch_reuses",
                 "pool.parallel_draws", "pool.worker_retries",
                 "pool.restarts", "pool.fallbacks",
                 "compile.jit_fallback_draws"):
        unit = "bytes" if name.endswith("bytes") else "count"
        out.put(name, totals[name] / units, unit)


def _put_derived(out: Outcome, kernel_calls, kernel_hits, graph_launches):
    metrics = out.metrics
    draws = metrics["launch.draws"][0]
    issue = metrics["launch.issue_s"][0]
    out.put("launch.s_per_draw", issue / draws if draws else 0.0, "s")
    out.put("compile.kernel_cache_hit_ratio",
            kernel_hits / kernel_calls if kernel_calls else 0.0, "ratio")
    elided = metrics["graph.elided_draws"][0]
    out.put("graph.fusion_ratio",
            elided / graph_launches if graph_launches else 0.0, "ratio")
    out.notes.append(
        f"compile.kernel_cache_hit_ratio base: {kernel_calls} kernel "
        f"requests; graph.fusion_ratio base: {graph_launches:g} recorded "
        "launches per unit")


def _kind_latencies(out: Outcome, by_kind: Dict[str, List[float]]) -> None:
    for kind in ("sum", "saxpy", "sgemm", "reduce", "scan", "hotspot",
                 "kmeans"):
        samples = by_kind.get(kind)
        out.put(f"request.{kind}_s",
                statistics.median(samples) if samples else 0.0, "s")


# ----------------------------------------------------------------------
# process_start
# ----------------------------------------------------------------------
def process_start(seed: int, seconds: float, trace: bool, tmp: Path) -> Outcome:
    out = Outcome()
    jobs = Jobs("process_start", seed, tmp, out, checks.DigestBook())
    priming = []
    warm_store = None
    for __ in range(PRIMING_JOBS):
        store = jobs.fresh_store()
        report = jobs.run(store, warm=False)
        if report is not None:
            priming.append(report["first_result_s"])
            warm_store = warm_store or store
    if warm_store is None:
        raise RuntimeError("every priming job failed")

    # One cycle: cold then warm, untraced; the traced run adds a traced
    # cold + warm pair to every cycle.
    cycle = [(False, False), (True, False)]
    if trace:
        cycle += [(False, True), (True, True)]
    done = {mode: [] for mode in ((False, False), (True, False),
                                  (False, True), (True, True))}
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        for warm, traced in cycle:
            store = warm_store if warm else jobs.fresh_store()
            report = jobs.run(store, warm=warm, trace=traced)
            if not warm:
                shutil.rmtree(store, ignore_errors=True)
            if report is not None:
                done[(warm, traced)].append(report)
    elapsed = time.perf_counter() - t_start

    plain = done[(False, False)] + done[(True, False)]
    if not done[(False, False)] or not done[(True, False)]:
        raise RuntimeError("no cold or no warm job completed")
    if not trace:
        latencies = [r["first_result_s"] for r in plain]
        out.put("setup_s", statistics.median(priming), "s")
        out.put("throughput_rps", len(plain) / elapsed, "req/s")
        put_latencies(out, latencies, "jobs (cold and warm)")
        out.put("first_result_s", statistics.median(
            r["first_result_s"] for r in done[(True, False)]), "s")
        out.put("first_result_cold_s", statistics.median(
            r["first_result_s"] for r in done[(False, False)]), "s")
        out.put("fragments_per_s", sum(
            r["counters"]["draw.fragments"] for r in plain) / elapsed,
            "frag/s")
        out.put("modeled_gpu_s", jobs.modeled, "s_modeled")
        return out

    traced = done[(False, True)] + done[(True, True)]
    job_layers(out, done[(False, False)], done[(True, False)])
    totals = Counter()
    for r in traced:
        totals.update(r["layers"])
    per_unit = layers.summarise(dict(totals), len(traced))
    per_unit["compile.setup_s"] = statistics.fmean(
        r["layers"]["compile.s"] for r in done[(False, True)])
    _put_layers(out, per_unit)
    counters = Counter()
    for r in traced:
        counters.update(r["counters"])
    _put_counters(out, counters, len(traced))
    _put_derived(out, sum(r["kernel_calls"] for r in traced),
                 counters["compile.kernel_cache_hits"],
                 sum(r["graph_launches"] for r in traced) / len(traced))
    by_kind = defaultdict(list)
    for r in plain:
        for kind, secs in r["kinds"].items():
            by_kind[kind].append(secs)
    _kind_latencies(out, by_kind)

    def rate(reports):
        return len(reports) / sum(r["wall_s"] for r in reports)

    out.put("trace.overhead", rate(traced) / rate(plain), "ratio")
    return out


# ----------------------------------------------------------------------
# small_launches / large_pipelines
# ----------------------------------------------------------------------
class Passes:
    """The in-process closed loop: whole passes over the request
    sequence, each followed by its checks and counter deltas."""

    def __init__(self, rig, requests, out: Outcome, book, tracer):
        self.rig, self.requests, self.out = rig, requests, out
        self.book, self.tracer = book, tracer
        self.latencies, self.by_kind = [], defaultdict(list)
        self.untraced_s = self.traced_s = 0.0
        self.untraced_n = self.traced_n = 0
        self.fragments = 0
        self.modeled = None
        self.totals, self.counters = Counter(), Counter()
        self.kernel_calls = self.kernel_hits = self.graph_launches = 0

    def run(self, traced: bool) -> None:
        device, tracer, out = self.rig.device, self.tracer, self.out
        device.reset_stats()
        before = layers.counters(device)
        calls_before = Counter(tracer.calls)
        with tracer.installed(device.trace()) if traced else \
                contextlib.nullcontext([]) as events:
            pass_s, latencies = _run_pass(self.rig, self.requests, out,
                                          self.book, tracer if traced else None)
        delta = layers.delta(layers.counters(device), before)
        self.counters.update(delta)
        modeled = device.wall_time().total_seconds
        if self.modeled is None:
            self.modeled = modeled
        if modeled != self.modeled:
            out.violate(["modeled time differs between passes of the "
                         "same seeded sequence"])
        if delta["shader_compiles"] or delta["program_links"]:
            out.violate(["relaunching kernels recompiled or relinked "
                         f"({delta['shader_compiles']} compiles, "
                         f"{delta['program_links']} links in one pass)"])
        if delta["compile.jit_fallback_draws"]:
            out.violate(["a draw fell back from the JIT"])
        if traced:
            self.traced_s += pass_s
            self.traced_n += 1
            self.totals.update(layers.analyse(tracer.take(events)))
            calls = Counter(tracer.calls)
            calls.subtract(calls_before)
            self.kernel_calls += calls["GpgpuDevice.kernel"]
            self.graph_launches += calls["LaunchGraph.launch"]
            self.kernel_hits += delta["compile.kernel_cache_hits"]
        else:
            self.untraced_s += pass_s
            self.untraced_n += 1
            self.fragments += delta["draw.fragments"]
            for kind, latency in latencies:
                self.latencies.append(latency)
                self.by_kind[kind].append(latency)


def in_process(workload: str, seed: int, seconds: float, trace: bool,
               tmp: Path) -> Outcome:
    out = Outcome()
    book = checks.DigestBook()
    jobs = Jobs(workload, seed, tmp, out, book)
    tracer = layers.Tracer()

    os.environ["REPRO_CACHE_DIR"] = str(jobs.fresh_store())
    t0 = time.perf_counter()
    # No device exists yet: the program's recorder is switched on through
    # the session object ``GpgpuDevice.trace()`` returns.
    with tracer.installed(perf_trace.session()) if trace else \
            contextlib.nullcontext([]) as events:
        rig = mixes.Rig(workload)
        requests = mixes.make_requests(workload, seed)
        # Warm-up pass: drivers build their own kernels, the JIT
        # generates code, the pool starts, fused programs compile.
        _run_pass(rig, requests, out, book, tracer=None)
    setups = [time.perf_counter() - t0]
    setup_layers = layers.analyse(tracer.take(events)) if trace else None

    # Start-up job pairs (cold, then warm on the same store) and passes
    # share the run half and half, interleaved, so every metric samples
    # the whole run: the machine's speed drifts over seconds.
    passes = Passes(rig, requests, out, book, tracer)
    cold, warm = [], []
    pairs = 0
    jobs_s = loop_s = 0.0
    t_start = time.perf_counter()
    while True:
        time_up = time.perf_counter() - t_start >= seconds
        t = time.perf_counter()
        if pairs < MIN_STARTUP_PAIRS or not time_up and jobs_s <= loop_s:
            store = jobs.fresh_store()
            for is_warm, reports in ((False, cold), (True, warm)):
                report = jobs.run(store, warm=is_warm)
                if report is not None:
                    reports.append(report)
                    if not is_warm:
                        setups.append(report["setup_s"])
            shutil.rmtree(store, ignore_errors=True)
            pairs += 1
            jobs_s += time.perf_counter() - t
        elif time_up and passes.untraced_n and (
                not trace or passes.traced_n == passes.untraced_n):
            break
        else:
            passes.run(traced=trace and passes.untraced_n > passes.traced_n)
            loop_s += time.perf_counter() - t
    if not cold or not warm:
        raise RuntimeError("no cold or no warm start-up job completed")

    out.notes.append(
        f"{passes.untraced_n} untraced and {passes.traced_n} traced passes "
        f"of {len(requests)} requests; {pairs} start-up job pairs")
    if not trace:
        out.put("setup_s", statistics.median(setups), "s")
        out.put("throughput_rps", len(passes.latencies) / passes.untraced_s,
                "req/s")
        put_latencies(out, passes.latencies, "requests")
        out.put("first_result_s",
                statistics.median(r["first_result_s"] for r in warm), "s")
        out.put("first_result_cold_s",
                statistics.median(r["first_result_s"] for r in cold), "s")
        out.put("fragments_per_s", passes.fragments / passes.untraced_s,
                "frag/s")
        out.put("modeled_gpu_s", passes.modeled, "s_modeled")
        return out

    job_layers(out, cold, warm)
    per_unit = layers.summarise(dict(passes.totals), passes.traced_n)
    per_unit["compile.setup_s"] = setup_layers["compile.s"]
    _put_layers(out, per_unit)
    _put_counters(out, passes.counters, passes.traced_n + passes.untraced_n)
    _put_derived(out, passes.kernel_calls, passes.kernel_hits,
                 passes.graph_launches / passes.traced_n)
    _kind_latencies(out, passes.by_kind)
    out.put("trace.overhead",
            (passes.traced_n / passes.traced_s)
            / (passes.untraced_n / passes.untraced_s), "ratio")
    return out


def _run_pass(rig, requests, out: Outcome, book: checks.DigestBook, tracer):
    """One pass over the request sequence; returns (timed seconds,
    [(kind, latency)]).  Outputs are checked after the pass."""
    outputs, latencies = [], []
    t0 = time.perf_counter()
    for request in requests:
        with tracer.request(request.kind) if tracer else \
                contextlib.nullcontext():
            try:
                output, seconds, broken = mixes.execute(rig, request)
            except Exception:  # counted, and the loop goes on
                out.notes.append(traceback.format_exc(limit=3))
                output, seconds, broken = None, None, []
        outputs.append(output)
        if seconds is not None:
            latencies.append((request.kind, seconds))
        out.violate(broken)
    elapsed = time.perf_counter() - t0
    for i, (request, output) in enumerate(zip(requests, outputs)):
        ok = output is not None and request.check(output)
        out.count(ok and book.same(i, checks.digest(output)))
    return elapsed, latencies
