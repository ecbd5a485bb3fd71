"""Per-layer spans for the traced run.

The benchmark times every call into each layer's public functions by
wrapping them from the outside (:data:`WRAPPED`) while a traced unit
runs, and it switches on the program's own recorder
(:mod:`repro.perf.trace`), whose spans split a launch into compile,
upload, draw-phase, pool, readback and graph-replay time.  Both kinds
of span share ``time.perf_counter`` and nest by time, so one tree per
request gives each layer's *self time*: its spans' duration minus the
part covered by their child spans.

A *unit* is what one traced step runs: one pass of the request
sequence in process, or one job for ``process_start``.  Every time and
count is reported per unit.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.api.buffer import GpuArray
from repro.core.api.device import GpgpuDevice
from repro.core.api.graph import LaunchGraph
from repro.core.api.kernel import Kernel
from repro.gles2 import parallel
from repro.glsl import jit
from repro.perf.counters import fault_path_stats

#: (owner, public callable, layer) of every call the benchmark times.
WRAPPED = (
    (GpgpuDevice, "__init__", "launch"),
    (GpgpuDevice, "kernel", "compile"),
    (GpgpuDevice, "array", "upload"),
    (GpgpuDevice, "empty", "upload"),
    (GpuArray, "upload", "upload"),
    (GpuArray, "release", "upload"),
    (Kernel, "__call__", "launch"),
    (LaunchGraph, "launch", "graph"),
    (LaunchGraph, "scratch", "graph"),
    (LaunchGraph, "replay", "graph"),
    (GpuArray, "to_host", "readback"),
)

#: Program span category -> layer.
CATEGORY_LAYER = {
    "compile": "compile",
    "upload": "upload",
    "readback": "readback",
    "draw": "draw",
    "pool": "pool",
    "graph": "graph",
}

LAYERS = ("request", "compile", "upload", "launch", "draw", "pool",
          "graph", "readback")
DRAW_PHASES = ("vertex", "raster", "varyings", "shade", "quantise", "write")

#: Inclusive-time metrics: the summed duration of the outermost spans
#: whose name is in the set (a span nested in another of the set is
#: not counted twice).
INCLUSIVE = {
    "compile.s": {"GpgpuDevice.kernel", "compile.shader", "compile.ir",
                  "compile.jit"},
    "upload.s": {"GpgpuDevice.array", "GpuArray.upload"},
    "upload.alloc_s": {"GpgpuDevice.empty", "GpuArray.release"},
    "launch.s": {"Kernel.__call__"},
    "readback.s": {"GpuArray.to_host"},
    "graph.replay_s": {"LaunchGraph.replay", "graph.replay"},
    "pool.submit_s": {"pool.submit"},
    "pool.wait_s": {"pool.chunk"},
    # Time issuing draws: eager Kernel.__call__ plus the draws a graph
    # replay or a copy readback issues outside any Kernel.__call__.
    "launch.issue_s": {"Kernel.__call__", "draw"},
    **{f"draw.{phase}_s": {f"draw.{phase}"} for phase in DRAW_PHASES},
}

#: (t0, t1, name, layer, request id); the id is None outside requests.
Span = Tuple[float, float, str, str, Optional[int]]


class Tracer:
    """Collects benchmark-side spans and the program's trace events
    for one traced unit at a time."""

    def __init__(self):
        self.spans: List[Span] = []
        self.calls: Counter = Counter()
        self.rid: Optional[int] = None
        self._requests = 0

    def _wrap(self, fn, name, layer):
        spans, calls = self.spans, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            calls[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((t0, clock(), name, layer, self.rid))

        return timed

    @contextmanager
    def installed(self, session):
        """Wrap every call in :data:`WRAPPED` and record the program's
        spans through ``session`` (``device.trace()`` or the
        ``repro.perf.trace.session`` it returns) for the block.  Yields
        the list that receives the program's events on exit."""
        originals = []
        for owner, attr, layer in WRAPPED:
            fn = owner.__dict__[attr]
            originals.append((owner, attr, fn))
            setattr(owner, attr,
                    self._wrap(fn, f"{owner.__name__}.{attr}", layer))
        events: List[dict] = []
        try:
            with session as recorder:
                try:
                    yield events
                finally:
                    events.extend(recorder.events)
                    recorder.events.clear()
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    @contextmanager
    def request(self, kind: str):
        """The span of one request (layer ``request``); spans recorded
        inside it carry its id."""
        self._requests += 1
        self.rid = rid = self._requests
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.rid = None
            self.spans.append((t0, time.perf_counter(), f"request.{kind}",
                               "request", rid))

    def take(self, events: Iterable[dict]) -> List[Span]:
        """All spans of the unit just traced — the benchmark's and the
        program's leader-process ones — and reset for the next unit.
        A program span takes the request id of the span enclosing it."""
        pid = os.getpid()
        spans = list(self.spans)
        self.spans.clear()
        for event in events:
            layer = CATEGORY_LAYER.get(event.get("cat"))
            if event.get("ph") != "X" or event.get("pid") != pid or not layer:
                continue  # instants, worker-process spans, device events
            t0 = event["ts"] * 1e-6
            spans.append((t0, t0 + event["dur"] * 1e-6, event["name"], layer,
                          None))
        spans.sort(key=lambda s: (s[0], -s[1]))
        for i, parent in enumerate(_nest(spans)):
            if spans[i][4] is None and parent >= 0:
                spans[i] = spans[i][:4] + (spans[parent][4],)
        return spans


def _nest(spans: List[Span]) -> List[int]:
    """Parent index of every span (-1 for roots) by time containment;
    ``spans`` must be sorted by (start, -end)."""
    eps = 1e-7
    parents = []
    stack: List[int] = []
    for i, (t0, t1, *__) in enumerate(spans):
        while stack and not (t0 >= spans[stack[-1]][0] - eps
                             and t1 <= spans[stack[-1]][1] + eps):
            stack.pop()
        parents.append(stack[-1] if stack else -1)
        stack.append(i)
    return parents


def analyse(spans: List[Span]) -> Dict[str, float]:
    """Inclusive time per :data:`INCLUSIVE` metric, self time per layer,
    and request time with its uncovered part."""
    spans = sorted(spans, key=lambda s: (s[0], -s[1]))
    parents = _nest(spans)
    covered = [0.0] * len(spans)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += spans[i][1] - spans[i][0]
    out: Dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out["_request_s"] = 0.0
    for i, (t0, t1, __, layer, __) in enumerate(spans):
        out[f"{layer}.self_s"] += (t1 - t0) - covered[i]
        if layer == "request" and parents[i] < 0:
            out["_request_s"] += t1 - t0
    for metric, names in INCLUSIVE.items():
        total = 0.0
        for i, (t0, t1, name, *__) in enumerate(spans):
            if name not in names:
                continue
            parent = parents[i]
            while parent >= 0 and spans[parent][2] not in names:
                parent = parents[parent]
            if parent < 0:
                total += t1 - t0
        out[metric] = total
    return out


def summarise(totals: Dict[str, float], units: int) -> Dict[str, float]:
    """Per-unit layer metrics from summed :func:`analyse` outputs."""
    per = {key: value / units for key, value in totals.items()}
    phases = sum(per[f"draw.{phase}_s"] for phase in DRAW_PHASES)
    per["draw.unattributed_s"] = per["launch.issue_s"] - phases
    request = per.pop("_request_s")
    per["trace.coverage"] = (
        1.0 - per["request.self_s"] / request if request > 0 else 0.0
    )
    return per


def counters(device) -> Dict[str, int]:
    """The program's own counters, named as layer metrics: the
    device's ``ContextStats``, the worker pool's and fault paths'
    process-wide tallies, and the JIT fallback count."""
    s = device.ctx.stats
    return {
        "launch.draws": len(s.draws),
        "draw.fragments": s.total_fragments(),
        "upload.bytes": s.texture_upload_bytes + s.buffer_upload_bytes,
        "readback.bytes": s.readback_bytes,
        "graph.fused_draws": s.fused_draws,
        "graph.elided_draws": s.elided_draws,
        "graph.dead_launches": s.dead_launches,
        "graph.scratch_reuses": s.scratch_reuses,
        "pool.parallel_draws": parallel.parallel_draws,
        "pool.worker_retries": fault_path_stats.worker_retries,
        "pool.restarts": fault_path_stats.pool_restarts,
        "pool.fallbacks": fault_path_stats.fault_fallbacks,
        "compile.jit_fallback_draws": jit.jit_fallbacks,
        "compile.kernel_cache_hits": device.kernel_cache_hits,
        "shader_compiles": s.shader_compiles,
        "program_links": s.program_links,
    }


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}
