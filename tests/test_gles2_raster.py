"""Rasterisation tests: coverage, fill rule, interpolation."""

import numpy as np
import pytest

from repro.gles2 import enums as gl
from repro.gles2.raster import (
    assemble_triangles,
    interpolate_varying,
    rasterize_points,
    rasterize_triangles,
    viewport_transform,
)


def fullscreen_quad_window(size):
    """The standard two-triangle quad, transformed to a size x size
    viewport."""
    ndc = np.array(
        [
            [-1.0, -1.0, 0.0, 1.0],
            [1.0, -1.0, 0.0, 1.0],
            [1.0, 1.0, 0.0, 1.0],
            [-1.0, -1.0, 0.0, 1.0],
            [1.0, 1.0, 0.0, 1.0],
            [-1.0, 1.0, 0.0, 1.0],
        ]
    )
    window, w = viewport_transform(ndc, (0, 0, size, size))
    triangles = assemble_triangles(gl.GL_TRIANGLES, np.arange(6))
    return window, w, triangles


class TestViewportTransform:
    def test_corners(self):
        ndc = np.array([[-1.0, -1.0, 0.0, 1.0], [1.0, 1.0, 0.0, 1.0]])
        window, w = viewport_transform(ndc, (0, 0, 8, 8))
        assert list(window[0][:2]) == [0.0, 0.0]
        assert list(window[1][:2]) == [8.0, 8.0]

    def test_viewport_offset(self):
        ndc = np.array([[0.0, 0.0, 0.0, 1.0]])
        window, __ = viewport_transform(ndc, (2, 4, 8, 8))
        assert list(window[0][:2]) == [6.0, 8.0]

    def test_perspective_divide(self):
        ndc = np.array([[2.0, 2.0, 0.0, 2.0]])
        window, w = viewport_transform(ndc, (0, 0, 2, 2))
        assert list(window[0][:2]) == [2.0, 2.0]
        assert w[0] == 2.0

    def test_depth_range(self):
        ndc = np.array([[0.0, 0.0, -1.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
        window, __ = viewport_transform(ndc, (0, 0, 2, 2))
        assert window[0][2] == 0.0 and window[1][2] == 1.0


class TestCoverage:
    @pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 33])
    def test_quad_covers_every_pixel_exactly_once(self, size):
        """The top-left rule must shade the quad's diagonal exactly
        once — double shading means paying a kernel twice (GPGPU
        correctness for non-idempotent ops)."""
        window, w, triangles = fullscreen_quad_window(size)
        batch = rasterize_triangles(window, w, triangles, size, size)
        assert batch.count == size * size
        keys = set(zip(batch.px.tolist(), batch.py.tolist()))
        assert len(keys) == size * size

    def test_degenerate_triangle_no_fragments(self):
        window = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [8.0, 0.0, 0.0]])
        batch = rasterize_triangles(
            window, np.ones(3), np.array([[0, 1, 2]]), 8, 8
        )
        assert batch.count == 0

    def test_offscreen_triangle_clipped_to_bounds(self):
        window = np.array(
            [[-10.0, -10.0, 0.0], [20.0, -10.0, 0.0], [5.0, 20.0, 0.0]]
        )
        batch = rasterize_triangles(
            window, np.ones(3), np.array([[0, 1, 2]]), 8, 8
        )
        assert batch.count > 0
        assert batch.px.min() >= 0 and batch.px.max() < 8
        assert batch.py.min() >= 0 and batch.py.max() < 8

    def test_winding_insensitive(self):
        window = np.array([[0.0, 0.0, 0.0], [8.0, 0.0, 0.0], [0.0, 8.0, 0.0]])
        ccw = rasterize_triangles(window, np.ones(3), np.array([[0, 1, 2]]), 8, 8)
        cw = rasterize_triangles(window, np.ones(3), np.array([[0, 2, 1]]), 8, 8)
        assert ccw.count == cw.count > 0

    def test_empty_triangle_list(self):
        batch = rasterize_triangles(
            np.zeros((0, 3)), np.zeros(0), np.zeros((0, 3), dtype=int), 4, 4
        )
        assert batch.count == 0

    def test_points(self):
        window = np.array([[1.5, 2.5, 0.0], [7.5, 7.5, 0.0], [-1.0, 0.0, 0.0]])
        batch = rasterize_points(window, np.ones(3), np.arange(3), 8, 8)
        assert batch.count == 2  # third point is off screen
        assert (batch.px[0], batch.py[0]) == (1, 2)


class TestInterpolation:
    def test_affine_interpolation_of_varying(self):
        size = 4
        window, w, triangles = fullscreen_quad_window(size)
        batch = rasterize_triangles(window, w, triangles, size, size)
        # Varying = x coordinate in [0,1] across the quad.
        per_vertex = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0])[:, None]
        values = interpolate_varying(batch, per_vertex)[:, 0]
        expected = (batch.px + 0.5) / size
        assert np.allclose(values, expected)

    def test_vector_varying_shape(self):
        size = 2
        window, w, triangles = fullscreen_quad_window(size)
        batch = rasterize_triangles(window, w, triangles, size, size)
        per_vertex = np.random.default_rng(0).standard_normal((6, 3))
        values = interpolate_varying(batch, per_vertex)
        assert values.shape == (batch.count, 3)

    def test_constant_varying_stays_constant(self):
        size = 4
        window, w, triangles = fullscreen_quad_window(size)
        batch = rasterize_triangles(window, w, triangles, size, size)
        per_vertex = np.full((6, 1), 7.0)
        values = interpolate_varying(batch, per_vertex)
        assert np.allclose(values, 7.0)

    def test_perspective_correct_weights(self):
        # A triangle with differing w: perspective weights differ from
        # affine barycentrics and sum to one.
        window = np.array([[0.0, 0.0, 0.0], [8.0, 0.0, 0.0], [0.0, 8.0, 0.0]])
        w_clip = np.array([1.0, 4.0, 1.0])
        batch = rasterize_triangles(window, w_clip, np.array([[0, 1, 2]]), 8, 8)
        assert np.allclose(batch.persp.sum(axis=1), 1.0)
        assert not np.allclose(batch.persp, batch.bary)

    def test_frag_z_interpolated(self):
        window = np.array([[0.0, 0.0, 0.0], [8.0, 0.0, 1.0], [0.0, 8.0, 1.0]])
        batch = rasterize_triangles(window, np.ones(3), np.array([[0, 1, 2]]), 8, 8)
        assert batch.frag_z.min() >= 0.0 and batch.frag_z.max() <= 1.0


class TestAssembly:
    def test_triangles_truncates_remainder(self):
        tris = assemble_triangles(gl.GL_TRIANGLES, np.arange(7))
        assert tris.shape == (2, 3)

    def test_strip_winding_alternates(self):
        tris = assemble_triangles(gl.GL_TRIANGLE_STRIP, np.arange(4))
        assert tris.tolist() == [[0, 1, 2], [2, 1, 3]]

    def test_fan(self):
        tris = assemble_triangles(gl.GL_TRIANGLE_FAN, np.arange(5))
        assert tris.tolist() == [[0, 1, 2], [0, 2, 3], [0, 3, 4]]

    def test_too_few_vertices(self):
        assert assemble_triangles(gl.GL_TRIANGLE_STRIP, np.arange(2)).shape == (0, 3)


# ======================================================================
# Launch-plan memo (pipeline.LaunchPlanMemo)
# ======================================================================
PLAN_VS = """
attribute vec2 a_position;
uniform vec2 u_offset;
varying vec2 v_uv;
void main() {
    v_uv = a_position * 0.5 + 0.5;
    gl_Position = vec4(a_position + u_offset, 0.0, 1.0);
}
"""

PLAN_FS = """
precision highp float;
uniform float u_gain;
varying vec2 v_uv;
void main() {
    if (gl_FragCoord.x < 2.0 && gl_FragCoord.y < 2.0) discard;
    gl_FragColor = vec4(v_uv * u_gain, gl_FragCoord.x / 16.0, 1.0);
}
"""

PLAN_QUAD = np.array(
    [[-1, -1], [1, -1], [1, 1], [-1, -1], [1, 1], [-1, 1]], dtype=np.float32
)


@pytest.fixture
def plan_builds(monkeypatch):
    """Count memo misses: every miss runs pipeline._build_plan once."""
    from repro.gles2 import pipeline

    calls = []
    real = pipeline._build_plan

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "_build_plan", counting)
    return calls


def plan_context(backend="jit", size=8, **kwargs):
    """A context with PLAN_VS/PLAN_FS linked and a private copy of the
    quad bound as a client array."""
    from repro.gles2 import GLES2Context

    ctx = GLES2Context(width=size, height=size, execution_backend=backend,
                       **kwargs)
    shaders = []
    for kind, source in ((gl.GL_VERTEX_SHADER, PLAN_VS),
                         (gl.GL_FRAGMENT_SHADER, PLAN_FS)):
        shader = ctx.glCreateShader(kind)
        ctx.glShaderSource(shader, source)
        ctx.glCompileShader(shader)
        shaders.append(shader)
    prog = ctx.glCreateProgram()
    for shader in shaders:
        ctx.glAttachShader(prog, shader)
    ctx.glLinkProgram(prog)
    ctx.glUseProgram(prog)
    ctx.glUniform1f(ctx.glGetUniformLocation(prog, "u_gain"), 0.75)
    quad = PLAN_QUAD.copy()
    loc = ctx.glGetAttribLocation(prog, "a_position")
    ctx.glEnableVertexAttribArray(loc)
    ctx.glVertexAttribPointer(loc, 2, gl.GL_FLOAT, False, 0, quad)
    ctx.glViewport(0, 0, size, size)
    return ctx, prog, quad


def plan_draw(ctx):
    ctx.glDrawArrays(gl.GL_TRIANGLES, 0, 6)
    fb = ctx._current_framebuffer().color_buffer()
    return fb.copy()


def draw_summary(draw):
    return (
        draw.vertex_invocations,
        draw.fragment_invocations,
        draw.discarded_fragments,
        draw.framebuffer_writes,
        draw.texture_gathers,
        draw.gather_fallbacks,
        draw.vertex_ops.snapshot(),
        draw.fragment_ops.snapshot(),
    )


def bind_fbo(ctx, size):
    (tex,) = ctx.glGenTextures(1)
    ctx.glBindTexture(gl.GL_TEXTURE_2D, tex)
    ctx.glTexImage2D(gl.GL_TEXTURE_2D, 0, gl.GL_RGBA, size, size, 0,
                     gl.GL_RGBA, gl.GL_UNSIGNED_BYTE,
                     np.zeros((size, size, 4), np.uint8))
    (fbo,) = ctx.glGenFramebuffers(1)
    ctx.glBindFramebuffer(gl.GL_FRAMEBUFFER, fbo)
    ctx.glFramebufferTexture2D(gl.GL_FRAMEBUFFER, gl.GL_COLOR_ATTACHMENT0,
                               gl.GL_TEXTURE_2D, tex, 0)


def change_viewport(ctx, prog, quad):
    ctx.glViewport(0, 0, 5, 6)


def change_framebuffer_size(ctx, prog, quad):
    # Same viewport, wider framebuffer: the fragments are the same
    # pixels, but their flat framebuffer indices are not.
    bind_fbo(ctx, 12)


def change_scissor(ctx, prog, quad):
    ctx.glEnable(gl.GL_SCISSOR_TEST)
    ctx.glScissor(1, 2, 4, 3)


def change_vertex_uniform(ctx, prog, quad):
    ctx.glUniform2f(ctx.glGetUniformLocation(prog, "u_offset"), 0.25, -0.5)


def mutate_client_array(ctx, prog, quad):
    quad *= 0.5  # in place: same array object, new bytes


class TestLaunchPlanMemo:
    def test_hit_is_bit_identical_to_fresh_draw(self, plan_builds):
        ctx, __, __ = plan_context()
        first = plan_draw(ctx)
        ctx.glClear(gl.GL_COLOR_BUFFER_BIT)
        again = plan_draw(ctx)
        assert len(plan_builds) == 1  # the second draw hit
        fresh_ctx, __, __ = plan_context()
        fresh = plan_draw(fresh_ctx)
        assert again.tobytes() == first.tobytes() == fresh.tobytes()
        hit, miss = ctx.stats.draws[1], fresh_ctx.stats.draws[0]
        assert draw_summary(hit) == draw_summary(miss)
        assert hit.discarded_fragments == 4

    @pytest.mark.parametrize("change", [
        change_viewport, change_framebuffer_size, change_scissor,
        change_vertex_uniform, mutate_client_array,
    ])
    def test_key_misses_when_a_pre_shade_input_changes(self, plan_builds,
                                                       change):
        ctx, prog, quad = plan_context()
        plan_draw(ctx)
        ctx.glClear(gl.GL_COLOR_BUFFER_BIT)
        change(ctx, prog, quad)
        changed = plan_draw(ctx)
        assert len(plan_builds) == 2
        assert len(ctx._launch_plans) == 2
        fresh_ctx, fresh_prog, fresh_quad = plan_context()
        change(fresh_ctx, fresh_prog, fresh_quad)
        assert plan_draw(fresh_ctx).tobytes() == changed.tobytes()
        assert (draw_summary(ctx.stats.draws[1])
                == draw_summary(fresh_ctx.stats.draws[0]))

    @pytest.mark.parametrize("backend", ["ast", "ir", "jit"])
    @pytest.mark.parametrize("tile_size,workers", [
        (None, 0), (4, 0), (4, 2),
    ])
    def test_draw_stats_equal_on_hit_and_miss(self, plan_builds, backend,
                                              tile_size, workers):
        ctx, __, __ = plan_context(backend, tile_size=tile_size,
                                   shade_workers=workers)
        miss_fb = plan_draw(ctx)
        hit_fb = plan_draw(ctx)
        assert len(plan_builds) == 1
        assert hit_fb.tobytes() == miss_fb.tobytes()
        miss, hit = ctx.stats.draws
        assert draw_summary(hit) == draw_summary(miss)

    def test_fragment_budget_evicts_and_stays_bounded(self, plan_builds,
                                                      monkeypatch):
        from repro.gles2 import pipeline

        monkeypatch.setattr(pipeline, "PLAN_FRAGMENT_BUDGET", 110)
        ctx, __, __ = plan_context(size=12)
        memo = ctx._launch_plans
        for size in (8, 6, 4, 7):  # 64 + 36 + 16 + 49 fragments
            ctx.glViewport(0, 0, size, size)
            plan_draw(ctx)
            assert memo.fragments <= 110
        assert memo.fragments == 36 + 16 + 49
        ctx.glViewport(0, 0, 8, 8)  # the oldest plan was evicted
        plan_draw(ctx)
        assert len(plan_builds) == 5
        ctx.glViewport(0, 0, 11, 11)  # 121 > budget: never memoised
        plan_draw(ctx)
        plan_draw(ctx)
        assert len(plan_builds) == 7
        assert memo.fragments <= 110

    def test_vertex_kernel_draws_bypass_the_memo(self, plan_builds):
        from repro import GpgpuDevice
        from repro.gles2.pipeline import PLAN_MAX_VERTICES

        device = GpgpuDevice(float_model="exact", execution_backend="jit")
        n = 2 * PLAN_MAX_VERTICES
        kernel = device.vertex_kernel(
            "plan_bypass", [("a", "int32")], "int32", "result = a + 1.0;"
        )
        values = np.arange(n, dtype=np.int32)
        out = device.empty(n, "int32")
        for __ in range(2):
            kernel(out, {"a": values})
            assert np.array_equal(out.to_host(), values + 1)
        assert len(plan_builds) == 2
        assert len(device.ctx._launch_plans) == 0

    def test_two_contexts_do_not_share_plans(self, plan_builds):
        first, __, __ = plan_context()
        second, __, __ = plan_context()
        plan_draw(first)
        plan_draw(second)
        assert len(plan_builds) == 2
        assert len(first._launch_plans) == len(second._launch_plans) == 1
        assert first._launch_plans is not second._launch_plans
