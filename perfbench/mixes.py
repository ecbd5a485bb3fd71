"""The benchmark's three workloads: device set-up, kernels and the
seeded request sequence of each.

A *request* uploads fresh inputs, runs one kernel or one driver from
``repro.kernels``/``repro.workloads`` and reads the result back into
host memory.  Its inputs are generated once from the workload seed, so
every repetition of a request must produce the same output.

* ``process_start`` — one request sequence per fresh interpreter: the
  sum_int32, saxpy, sgemm-16 and reduce-step kernels launched once
  each, then ``reduce_sum`` over 4096 int32 (``videocore`` JIT device).
* ``small_launches`` — many small draws (``videocore`` JIT device,
  eager, no workers): sum_int32 and saxpy at sixteen lengths from 160
  to 2048, sgemm-8, ``reduce_sum`` over 4096 int32 and
  ``exclusive_scan`` over 1024 int32.  Every draw is at most 2048
  fragments, the automatic tiling threshold, and the mix has more
  distinct draw shapes than the 16-entry raster memo holds.
* ``large_pipelines`` — few large draws (``ieee32`` JIT device,
  ``graph_mode=True``, one shading worker per core): sgemm-128,
  hotspot 128x128 for 8 iterations, k-means assignment with the
  shift/scale chain that fuses, and ``reduce_sum`` over 2^16 int32.
  ``ieee32`` because hotspot under ``videocore`` falls below the
  paper's 15-bit band by design after 8 iterations.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.api.device import GpgpuDevice
from repro.kernels import (
    exclusive_scan,
    make_reduce_step_kernel,
    make_saxpy_kernel,
    make_scan_step_kernel,
    make_sgemm_kernel,
    make_sum_kernel,
    reduce_sum,
)
from repro.kernels.scan import make_scan_copy_kernel
from repro.workloads import hotspot_gpu, kmeans_assign_cpu, kmeans_assign_gpu

import checks

WORKLOADS = ("process_start", "small_launches", "large_pipelines")

HOTSPOT_ITERATIONS = 8
HOTSPOT_CP = 0.125
HOTSPOT_PW = 0.1


def nproc() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


@dataclass
class Request:
    """One seeded request: ``run`` returns the host-side output, which
    ``compare`` (:func:`checks.exact` or :func:`checks.band`) scores
    against the CPU ``reference``."""

    kind: str
    run: Callable[["Rig"], object]
    reference: np.ndarray
    compare: Callable[[np.ndarray, object], bool]
    #: sum and sgemm: every draw must take the JIT texture-gather path.
    gathers: bool = False
    #: k-means: the shift/scale chain must fuse under graph mode.
    fuses: bool = False

    def check(self, output) -> bool:
        return self.compare(self.reference, output)


class Rig:
    """The device and prebuilt kernels of one workload."""

    def __init__(self, workload: str):
        if workload == "large_pipelines":
            self.device = GpgpuDevice(
                float_model="ieee32", execution_backend="jit",
                graph_mode=True, shade_workers=nproc(),
            )
        else:
            self.device = GpgpuDevice(
                float_model="videocore", execution_backend="jit",
                graph_mode=False, shade_workers=0,
            )
        dev = self.device
        k: Dict[str, object] = {"reduce": make_reduce_step_kernel(dev, "int32")}
        if workload == "large_pipelines":
            k["sgemm"] = make_sgemm_kernel(dev, "float32", 128)
        else:
            k["sum"] = make_sum_kernel(dev, "int32")
            k["saxpy"] = make_saxpy_kernel(dev, "float32")
            k["sgemm"] = make_sgemm_kernel(
                dev, "float32", 16 if workload == "process_start" else 8
            )
        if workload == "small_launches":
            make_scan_step_kernel(dev, "int32")
            make_scan_copy_kernel(dev, "int32")
        self.kernels = k


def execute(rig: Rig, request: Request) -> Tuple[object, float, List[str]]:
    """Run one request: (host output, latency in seconds, broken
    invariants).  The invariants are read from the device counters
    after the latency is taken."""
    stats = rig.device.ctx.stats
    draws_before, fused_before = len(stats.draws), stats.fused_draws
    t0 = time.perf_counter()
    output = request.run(rig)
    seconds = time.perf_counter() - t0
    broken = []
    if request.gathers:
        new = stats.draws[draws_before:]
        if (any(d.gather_fallbacks for d in new)
                or not any(d.texture_gathers for d in new)):
            broken.append(f"{request.kind}: a JIT draw left the "
                          "texture-gather path")
    if request.fuses and stats.fused_draws == fused_before:
        broken.append(f"{request.kind}: the shift/scale chain did not fuse")
    return output, seconds, broken


def _release(*arrays) -> None:
    for array in arrays:
        array.release()


# ----------------------------------------------------------------------
# Request builders.  Each draws its inputs from ``rng`` once.
# ----------------------------------------------------------------------
def sum_request(rng, n: int) -> Request:
    a = rng.integers(-(2**20), 2**20, size=n).astype(np.int32)
    b = rng.integers(-(2**20), 2**20, size=n).astype(np.int32)

    def run(rig):
        dev = rig.device
        da, db = dev.array(a, "int32"), dev.array(b, "int32")
        out = dev.empty(n, "int32")
        rig.kernels["sum"](out, {"a": da, "b": db})
        result = out.to_host()
        _release(da, db, out)
        return result

    reference = a.astype(np.int64) + b
    return Request("sum", run, reference, checks.exact,
                   gathers=True)


def saxpy_request(rng, n: int) -> Request:
    x = rng.uniform(-1, 1, n).astype(np.float32)
    y = rng.uniform(-1, 1, n).astype(np.float32)
    alpha = float(rng.uniform(0.5, 2.0))

    def run(rig):
        dev = rig.device
        dx, dy = dev.array(x, "float32"), dev.array(y, "float32")
        out = dev.empty(n, "float32")
        rig.kernels["saxpy"](out, {"x": dx, "y": dy}, {"u_alpha": alpha})
        result = out.to_host()
        _release(dx, dy, out)
        return result

    reference = alpha * x.astype(np.float64) + y
    return Request("saxpy", run, reference, checks.band)


def sgemm_request(rng, n: int) -> Request:
    a = rng.uniform(-1, 1, n * n).astype(np.float32)
    b = rng.uniform(-1, 1, n * n).astype(np.float32)
    c0 = rng.uniform(-1, 1, n * n).astype(np.float32)
    alpha, beta = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 1.5))
    uniforms = {"u_n": float(n), "u_alpha": alpha, "u_beta": beta}

    def run(rig):
        dev = rig.device
        arrays = {name: dev.array(host, "float32")
                  for name, host in (("a", a), ("b", b), ("c0", c0))}
        out = dev.empty(n * n, "float32")
        rig.kernels["sgemm"](out, arrays, uniforms)
        result = out.to_host()
        _release(out, *arrays.values())
        return result

    a64, b64 = a.reshape(n, n).astype(np.float64), b.reshape(n, n)
    reference = (alpha * (a64 @ b64) + beta * c0.reshape(n, n)).reshape(-1)
    return Request("sgemm", run, reference, checks.band,
                   gathers=True)


def reduce_step_request(rng, n: int) -> Request:
    """One halving pass of the reduction kernel on its own."""
    v = rng.integers(-(2**11), 2**11, size=n).astype(np.int32)
    half = (n + 1) // 2

    def run(rig):
        dev = rig.device
        da = dev.array(v, "int32")
        out = dev.empty(half, "int32")
        rig.kernels["reduce"](out, {"a": da}, {"u_len": float(n)})
        result = out.to_host()
        _release(da, out)
        return result

    padded = np.append(v.astype(np.int64), 0) if n % 2 else v.astype(np.int64)
    reference = padded[0::2] + padded[1::2]
    return Request("reduce", run, reference, checks.exact)


def reduce_request(rng, n: int, bound: int) -> Request:
    """``reduce_sum`` over ``n`` int32 in [-bound, bound): every partial
    sum stays inside the 24-bit integer envelope."""
    v = rng.integers(-bound, bound, size=n).astype(np.int32)

    def run(rig):
        da = rig.device.array(v, "int32")
        total = reduce_sum(rig.device, da, rig.kernels["reduce"])
        da.release()
        return np.array([total], dtype=np.int64)

    reference = np.array([v.astype(np.int64).sum()])
    return Request("reduce", run, reference, checks.exact)


def scan_request(rng, n: int) -> Request:
    v = rng.integers(-(2**12), 2**12, size=n).astype(np.int32)

    def run(rig):
        dev = rig.device
        da = dev.array(v, "int32")
        out = exclusive_scan(dev, da)
        result = out.to_host()
        _release(da, out)
        return result

    reference = np.concatenate([[0], np.cumsum(v.astype(np.int64))[:-1]])
    return Request("scan", run, reference, checks.exact)


def hotspot_reference(temp, power, iterations):
    """float64 twin of ``repro.workloads.hotspot_cpu``."""
    t = temp.astype(np.float64)
    p = power.astype(np.float64)
    for __ in range(iterations):
        north = np.vstack([t[:1], t[:-1]])
        south = np.vstack([t[1:], t[-1:]])
        west = np.hstack([t[:, :1], t[:, :-1]])
        east = np.hstack([t[:, 1:], t[:, -1:]])
        t = t + HOTSPOT_CP * (north + south + east + west - 4.0 * t) \
            + HOTSPOT_PW * p
    return t


def hotspot_request(rng, size: int) -> Request:
    temp = (320.0 + rng.uniform(-10, 10, (size, size))).astype(np.float32)
    power = rng.uniform(0, 0.5, (size, size)).astype(np.float32)

    def run(rig):
        return hotspot_gpu(rig.device, temp, power, HOTSPOT_ITERATIONS,
                           HOTSPOT_CP, HOTSPOT_PW)

    reference = hotspot_reference(temp, power, HOTSPOT_ITERATIONS)
    return Request("hotspot", run, reference, checks.band)


def kmeans_request(rng, n: int, k: int = 4) -> Request:
    """Well-separated clusters (centres 16 apart, points within 3 of
    their centre), so the float32 assignment has no near-ties and must
    equal the float64 CPU membership exactly."""
    corners = np.array([(-8, -8), (-8, 8), (8, -8), (8, 8)], np.float64)[:k]
    centroids = (corners + rng.uniform(-0.5, 0.5, corners.shape)).astype(
        np.float32)
    labels = rng.integers(0, k, size=n)
    points = (corners[labels] + rng.uniform(-3, 3, (n, 2))).astype(np.float32)
    shift = float(points.mean())
    scale = float(1.0 / points.std())

    def run(rig):
        return kmeans_assign_gpu(rig.device, points, centroids, shift, scale)

    reference = kmeans_assign_cpu(points, centroids)
    return Request("kmeans", run, reference, checks.exact,
                   fuses=True)


# ----------------------------------------------------------------------
# Seeded request sequences
# ----------------------------------------------------------------------
SMALL_SIZES = (256, 512, 1024, 2048)


def make_requests(workload: str, seed: int) -> List[Request]:
    """The seeded request sequence (one *pass*) of a workload.  The seed
    fixes the input values and one small length offset; the kinds,
    sizes and order are otherwise the same for every seed, so runs with
    different seeds measure the same work."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "process_start":
        n = 4096 - 64 * int(rng.integers(0, 8))
        return [
            sum_request(rng, n),
            saxpy_request(rng, n),
            sgemm_request(rng, 16),
            reduce_step_request(rng, 4096),
            reduce_request(rng, 4096, 2**11),
        ]
    if workload == "small_launches":
        # sum/saxpy pairs at four lengths per size (more draw shapes
        # than the raster memo holds), one sgemm or multi-pass request
        # after every four.  Only the first length takes a seeded
        # offset, so the modeled time differs slightly between seeds
        # while the measured work stays the same.
        lengths = [size - size // 8 * j for size in SMALL_SIZES
                   for j in range(4)]
        lengths[0] -= 16 * int(rng.integers(0, 4))
        maps = [make(rng, n) for n in lengths
                for make in (sum_request, saxpy_request)]
        others = [sgemm_request(rng, 8), reduce_request(rng, 4096, 2**11),
                  sgemm_request(rng, 8), scan_request(rng, 1024)] * 2
        requests = []
        for i, other in enumerate(others):
            requests += maps[4 * i:4 * i + 4] + [other]
        return requests
    if workload == "large_pipelines":
        # Both reductions follow a large draw, so they see the same
        # state, and the median request falls between them.
        return [
            sgemm_request(rng, 128),
            reduce_request(rng, 2**16, 2**7),
            hotspot_request(rng, 128),
            reduce_request(rng, 2**16, 2**7),
            kmeans_request(rng, 16384 - 128 * int(rng.integers(0, 8))),
        ]
    raise ValueError(f"unknown workload {workload!r}")
