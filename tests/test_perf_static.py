"""Static IR-cost mode on the E1 kernels, and the kernel cache.

The compiled-IR cost model (``repro.glsl.ir.static_cost``, surfaced as
``repro.perf.counters.static_shader_ops``) projects a draw's op tally
without executing anything, and every JIT draw charges that
projection.  On the paper's E1 kernels — ``sum`` and ``sgemm`` in int32
and float32 — the optimised IR is straight-line (or a counted loop
with static trip counts), so the projection is *exact*.  The pinned
counts below are the dynamic per-op tally of the optimised IR run
instruction by instruction (``videocore`` model, 16 fragments, 6
vertices); the static projection and the JIT draw's counters must
both reproduce them, category by category.

The cache tests pin the two layers that make repeated launches cheap:
``GpgpuDevice.kernel()`` memoises on the program-cache key, and
relaunching an already-linked kernel triggers no further shader
compiles or program links.
"""

import numpy as np
import pytest

from repro.core.api.device import GpgpuDevice
from repro.kernels.elementwise import make_sum_kernel
from repro.kernels.sgemm import make_sgemm_kernel
from repro.perf.counters import static_shader_ops

N = 16
SGEMM_N = 4


def _sum_rig(fmt):
    dev = GpgpuDevice(float_model="videocore", execution_backend="jit")
    rng = np.random.default_rng(7)
    if fmt == "int32":
        a_host = rng.integers(-1000, 1000, size=N).astype(np.int64)
        b_host = rng.integers(-1000, 1000, size=N).astype(np.int64)
    else:
        a_host = rng.uniform(-1, 1, size=N).astype(np.float32)
        b_host = rng.uniform(-1, 1, size=N).astype(np.float32)
    a = dev.array(a_host, fmt)
    b = dev.array(b_host, fmt)
    out = dev.empty(N, fmt)
    kernel = make_sum_kernel(dev, fmt)
    kernel(out, {"a": a, "b": b})
    return dev, kernel


def _sgemm_rig(fmt):
    dev = GpgpuDevice(float_model="videocore", execution_backend="jit")
    rng = np.random.default_rng(8)
    n = SGEMM_N
    if fmt == "int32":
        hosts = [rng.integers(-9, 9, size=n * n).astype(np.int64)
                 for __ in range(3)]
    else:
        hosts = [rng.uniform(-1, 1, size=n * n).astype(np.float32)
                 for __ in range(3)]
    a, b, c0 = (dev.array(h, fmt) for h in hosts)
    out = dev.empty(n * n, fmt)
    kernel = make_sgemm_kernel(dev, fmt, n)
    kernel(out, {"a": a, "b": b, "c0": c0},
           {"u_n": float(n), "u_alpha": 1.0, "u_beta": 1.0})
    return dev, kernel


#: (rig, format, pinned fragment counts).  The vertex stage is the
#: pass-through quad shader: 48 ALU ops in every case.
RIGS = [
    pytest.param(_sum_rig, "int32",
                 {"alu": 1328, "sfu": 0, "tex": 32}, id="sum_int32"),
    pytest.param(_sum_rig, "float32",
                 {"alu": 1952, "sfu": 64, "tex": 32}, id="sum_float32"),
    pytest.param(_sgemm_rig, "int32",
                 {"alu": 5248, "sfu": 0, "tex": 144}, id="sgemm_int32"),
    pytest.param(_sgemm_rig, "float32",
                 {"alu": 6656, "sfu": 176, "tex": 144}, id="sgemm_float32"),
]
VERTEX_OPS = {"alu": 48, "sfu": 0, "tex": 0}


@pytest.mark.parametrize("rig,fmt,fragment_ops", RIGS)
def test_static_cost_matches_dynamic_tally(rig, fmt, fragment_ops):
    dev, kernel = rig(fmt)
    draw = dev.ctx.stats.draws[-1]
    prog = dev.ctx._programs[kernel.program]
    assert draw.fragment_invocations == 16

    frag_static, frag_exact = static_shader_ops(
        prog.fragment, dev.ctx.float_model, draw.fragment_invocations
    )
    assert frag_exact, "E1 fragment shader should compile to exact cost"
    assert frag_static.snapshot() == fragment_ops
    assert draw.fragment_ops.snapshot() == fragment_ops

    vert_static, vert_exact = static_shader_ops(
        prog.vertex, dev.ctx.float_model, draw.vertex_invocations
    )
    assert vert_exact
    assert vert_static.snapshot() == VERTEX_OPS
    assert draw.vertex_ops.snapshot() == VERTEX_OPS


def test_kernel_requests_are_memoised():
    dev = GpgpuDevice(float_model="videocore", execution_backend="jit")
    first = make_sum_kernel(dev, "int32")
    assert dev.kernel_cache_hits == 0
    assert make_sum_kernel(dev, "int32") is first
    assert dev.kernel_cache_hits == 1
    # A different format generates different sources: its own program.
    assert make_sum_kernel(dev, "float32") is not first
    assert dev.kernel_cache_hits == 1


def test_relaunch_compiles_nothing():
    dev, kernel = _sum_rig("int32")
    compiles = dev.ctx.stats.shader_compiles
    links = dev.ctx.stats.program_links
    draws = len(dev.ctx.stats.draws)
    rng = np.random.default_rng(9)
    a = dev.array(rng.integers(-99, 99, size=N).astype(np.int64), "int32")
    b = dev.array(rng.integers(-99, 99, size=N).astype(np.int64), "int32")
    out = dev.empty(N, "int32")
    for __ in range(3):
        kernel(out, {"a": a, "b": b})
    assert dev.ctx.stats.shader_compiles == compiles
    assert dev.ctx.stats.program_links == links
    assert len(dev.ctx.stats.draws) == draws + 3
