"""One fresh-interpreter job: import ``repro``, set up a workload and
run its request sequence, then print one JSON line.

The parent stamps ``time.perf_counter()`` just before spawning; this
child stamps it when results are in host memory.  On Linux both read
CLOCK_MONOTONIC, so their difference is the spawn-to-result time.

A job runs one pass of its workload's seeded request sequence and
stamps when the last result is in host memory.  For ``process_start``
that pass is the workload; for the other two it is their start-up: the
set-up (warm-up pass included) the in-process run does before its
first timed request.

Usage (the parent sets ``PYTHONPATH`` and ``REPRO_CACHE_DIR``)::

    python3 perfbench/job.py --workload process_start --seed 1 [--trace]
"""

import argparse
import contextlib
import json
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import repro  # noqa: F401
    from repro.core import cache as store
    from repro.core.api import device, graph, kernel  # noqa: F401
    from repro.gles2 import parallel
    from repro.glsl import ir, jit
    from repro.perf import trace as perf_trace

    import checks
    import layers
    import mixes  # imports repro.kernels, repro.workloads, repro.validation
    import_s = time.perf_counter() - t0

    tracer = layers.Tracer() if args.trace else None
    report = {"import_s": import_s, "violations": [], "kinds": {}}
    t_setup = time.perf_counter()
    outputs = []
    # The device does not exist yet when the job starts, so the
    # program's recorder is switched on through the session object
    # ``GpgpuDevice.trace()`` returns.
    traced = (tracer.installed(perf_trace.session()) if tracer
              else contextlib.nullcontext([]))
    with traced as events:
        # Generating inputs and references is the benchmark's work, not
        # the program's: it stays outside the request span.
        requests = mixes.make_requests(args.workload, args.seed)
        with tracer.request(args.workload) if tracer else \
                contextlib.nullcontext():
            rig = mixes.Rig(args.workload)
            for request in requests:
                output, seconds, broken = mixes.execute(rig, request)
                kinds = report["kinds"]
                kinds[request.kind] = kinds.get(request.kind, 0.0) + seconds
                outputs.append(output)
                report["violations"] += broken
            report["t_result"] = time.perf_counter()
    report["setup_s"] = time.perf_counter() - t_setup
    report["ok"] = [bool(request.check(output))
                    for request, output in zip(requests, outputs)]
    report["digests"] = [checks.digest(output) for output in outputs]
    report["modeled_s"] = rig.device.wall_time().total_seconds
    report["counters"] = layers.counters(rig.device)
    report["ir"] = dict(ir.compile_events)
    report["jit"] = dict(jit.codegen_events)
    report["disk"] = store.stats.snapshot()
    if tracer is not None:
        report["layers"] = layers.analyse(tracer.take(events))
        report["kernel_calls"] = tracer.calls["GpgpuDevice.kernel"]
        report["graph_launches"] = tracer.calls["LaunchGraph.launch"]
    parallel.shutdown_pool()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
