"""The NumPy-source JIT backend (``repro.glsl.jit``).

Two properties pin the backend down:

1. **Bit-identical results.**  Every corpus shader rendered with
   ``execution_backend="jit"`` must produce the same RGBA8 framebuffer
   as the AST backend — the JIT is an optimisation, never an
   observable behaviour change.  The full differential oracle
   (``backend="all"``) checks the same property pre-quantisation.
2. **Caching and fallback accounting.**  Kernel memoisation works the
   same on a JIT device; programs outside the JIT subset fall back to
   the AST interpreter at whole-draw granularity and each such draw
   bumps the module-level ``jit_fallbacks`` counter.
3. **Static-counter parity.**  The generated function tallies no ops
   dynamically, so JIT draws report the static IR-cost projection.  On
   the straight-line E1 kernels that projection is exact: the JIT
   draw's per-category tally must equal the dynamic tally of the
   optimised IR run instruction by instruction, recorded below.
"""

import numpy as np
import pytest

from repro.core.api.device import GpgpuDevice
from repro.glsl import jit as glsl_jit
from repro.kernels.elementwise import make_sum_kernel
from repro.kernels.sgemm import make_sgemm_kernel
from repro.testing.corpus import build_entries
from repro.testing.oracle import draw_for_capture, run_differential

ENTRIES = {entry.name: entry for entry in build_entries()}


def _render(entry, backend):
    framebuffer, __ = draw_for_capture(
        entry.fragment,
        size=entry.size,
        quantization=entry.quantization,
        uniforms=entry.uniforms,
        textures=entry.textures,
        vertex_source=entry.vertex,
        execution_backend=backend,
    )
    return framebuffer


# ----------------------------------------------------------------------
# 1. Bit-identical rendering across both backends.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_corpus_framebuffers_identical_across_backends(name):
    entry = ENTRIES[name]
    assert np.array_equal(_render(entry, "jit"), _render(entry, "ast")), (
        f"{name}: JIT framebuffer differs from AST"
    )


def test_five_way_oracle_on_divergent_shader():
    # Per-fragment control flow forces the JIT's mask-blend lowering;
    # every oracle path must still agree bit-for-bit.
    source = """
    precision mediump float;
    varying vec2 v_uv;
    void main() {
        float acc = 0.0;
        for (int i = 0; i < 4; i++) {
            if (v_uv.x > 0.5) { acc += v_uv.y * 0.25; }
            else { acc -= 0.125; }
        }
        if (acc < -0.4) { discard; }
        gl_FragColor = vec4(acc, v_uv.x, v_uv.y, 1.0);
    }
    """
    result = run_differential(source, backend="all")
    assert result.ok, result.describe()


# ----------------------------------------------------------------------
# 2. Caching and fallback accounting.
# ----------------------------------------------------------------------
def test_kernel_requests_memoised_on_jit_device():
    dev = GpgpuDevice(float_model="videocore", execution_backend="jit")
    first = make_sum_kernel(dev, "int32")
    assert dev.kernel_cache_hits == 0
    assert make_sum_kernel(dev, "int32") is first
    assert dev.kernel_cache_hits == 1
    assert make_sum_kernel(dev, "float32") is not first
    assert dev.kernel_cache_hits == 1


def test_jit_relaunch_compiles_nothing():
    dev = GpgpuDevice(float_model="videocore", execution_backend="jit")
    rng = np.random.default_rng(3)
    a = dev.array(rng.integers(-999, 999, size=32).astype(np.int64), "int32")
    b = dev.array(rng.integers(-999, 999, size=32).astype(np.int64), "int32")
    out = dev.empty(32, "int32")
    kernel = make_sum_kernel(dev, "int32")
    kernel(out, {"a": a, "b": b})
    compiles = dev.ctx.stats.shader_compiles
    links = dev.ctx.stats.program_links
    for __ in range(3):
        kernel(out, {"a": a, "b": b})
    assert dev.ctx.stats.shader_compiles == compiles
    assert dev.ctx.stats.program_links == links
    assert np.array_equal(out.to_host(), a.to_host() + b.to_host())


def test_unsupported_program_falls_back_and_counts():
    # identity_float16's shader uses constructs outside the JIT subset,
    # so every draw runs on the AST interpreter and bumps the counter.
    entry = ENTRIES["identity_float16"]
    glsl_jit.reset_fallbacks()
    reference = _render(entry, "ast")
    assert glsl_jit.jit_fallbacks == 0
    framebuffer = _render(entry, "jit")
    assert glsl_jit.jit_fallbacks > 0
    assert np.array_equal(framebuffer, reference)
    glsl_jit.reset_fallbacks()


def test_supported_program_does_not_count_fallbacks():
    entry = ENTRIES["saxpy"]
    glsl_jit.reset_fallbacks()
    _render(entry, "jit")
    assert glsl_jit.jit_fallbacks == 0


# ----------------------------------------------------------------------
# 3. Static-counter parity: JIT draws report the static projection,
#    which on E1 kernels equals the IR's dynamic per-op tally.
# ----------------------------------------------------------------------
#: Dynamic per-op tally of the optimised IR on each E1 kernel
#: (``videocore`` model, 16 fragments, 6 vertices of the pass-through
#: quad shader): (fragment ops, vertex ops).
IR_DYNAMIC_TALLY = {
    ("sum", "int32"): ({"alu": 1328, "sfu": 0, "tex": 32},
                       {"alu": 48, "sfu": 0, "tex": 0}),
    ("sum", "float32"): ({"alu": 1952, "sfu": 64, "tex": 32},
                         {"alu": 48, "sfu": 0, "tex": 0}),
    ("sgemm", "int32"): ({"alu": 5248, "sfu": 0, "tex": 144},
                         {"alu": 48, "sfu": 0, "tex": 0}),
    ("sgemm", "float32"): ({"alu": 6656, "sfu": 176, "tex": 144},
                           {"alu": 48, "sfu": 0, "tex": 0}),
}


def _launch(backend, which, fmt):
    dev = GpgpuDevice(float_model="videocore", execution_backend=backend)
    rng = np.random.default_rng(11)
    if which == "sum":
        n = 16
        if fmt == "int32":
            hosts = [rng.integers(-1000, 1000, size=n).astype(np.int64)
                     for __ in range(2)]
        else:
            hosts = [rng.uniform(-1, 1, size=n).astype(np.float32)
                     for __ in range(2)]
        a, b = (dev.array(h, fmt) for h in hosts)
        out = dev.empty(n, fmt)
        make_sum_kernel(dev, fmt)(out, {"a": a, "b": b})
    else:
        n = 4
        if fmt == "int32":
            hosts = [rng.integers(-9, 9, size=n * n).astype(np.int64)
                     for __ in range(3)]
        else:
            hosts = [rng.uniform(-1, 1, size=n * n).astype(np.float32)
                     for __ in range(3)]
        a, b, c0 = (dev.array(h, fmt) for h in hosts)
        out = dev.empty(n * n, fmt)
        make_sgemm_kernel(dev, fmt, n)(
            out, {"a": a, "b": b, "c0": c0},
            {"u_n": float(n), "u_alpha": 1.0, "u_beta": 1.0},
        )
    return dev.ctx.stats.draws[-1]


@pytest.mark.parametrize("which,fmt", [
    ("sum", "int32"), ("sum", "float32"),
    ("sgemm", "int32"), ("sgemm", "float32"),
])
def test_jit_counters_match_ir_dynamic_tally(which, fmt):
    fragment_ops, vertex_ops = IR_DYNAMIC_TALLY[(which, fmt)]
    jit_draw = _launch("jit", which, fmt)
    assert jit_draw.fragment_invocations == 16
    assert jit_draw.fragment_ops.snapshot() == fragment_ops
    assert jit_draw.vertex_ops.snapshot() == vertex_ops
