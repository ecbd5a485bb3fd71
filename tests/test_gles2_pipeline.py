"""Full draw-call pipeline tests: the GL context end to end."""

import numpy as np
import pytest

from repro.gles2 import GLES2Context, GLError, enums as gl

VS = """
attribute vec2 a_position;
varying vec2 v_uv;
void main() {
    v_uv = a_position * 0.5 + 0.5;
    gl_Position = vec4(a_position, 0.0, 1.0);
}
"""

QUAD = np.array(
    [[-1, -1], [1, -1], [1, 1], [-1, -1], [1, 1], [-1, 1]], dtype=np.float32
)


def draw_quad(ctx, fs_source, size=4, uniforms=None, textures=None):
    """Compile, link and draw a fullscreen quad with the given FS."""
    vs = ctx.glCreateShader(gl.GL_VERTEX_SHADER)
    ctx.glShaderSource(vs, VS)
    ctx.glCompileShader(vs)
    fs = ctx.glCreateShader(gl.GL_FRAGMENT_SHADER)
    ctx.glShaderSource(fs, fs_source)
    ctx.glCompileShader(fs)
    assert ctx.glGetShaderiv(fs, gl.GL_COMPILE_STATUS), ctx.glGetShaderInfoLog(fs)
    prog = ctx.glCreateProgram()
    ctx.glAttachShader(prog, vs)
    ctx.glAttachShader(prog, fs)
    ctx.glLinkProgram(prog)
    assert ctx.glGetProgramiv(prog, gl.GL_LINK_STATUS), ctx.glGetProgramInfoLog(prog)
    ctx.glUseProgram(prog)
    for name, value in (uniforms or {}).items():
        loc = ctx.glGetUniformLocation(prog, name)
        if isinstance(value, float):
            ctx.glUniform1f(loc, value)
        else:
            ctx.glUniform1i(loc, value)
    for unit, tex in (textures or {}).items():
        ctx.glActiveTexture(gl.GL_TEXTURE0 + unit)
        ctx.glBindTexture(gl.GL_TEXTURE_2D, tex)
    loc = ctx.glGetAttribLocation(prog, "a_position")
    ctx.glEnableVertexAttribArray(loc)
    ctx.glVertexAttribPointer(loc, 2, gl.GL_FLOAT, False, 0, QUAD)
    ctx.glViewport(0, 0, size, size)
    ctx.glDrawArrays(gl.GL_TRIANGLES, 0, 6)
    return ctx.glReadPixels(0, 0, size, size, gl.GL_RGBA, gl.GL_UNSIGNED_BYTE)


class TestBasicDraw:
    def test_solid_color(self):
        ctx = GLES2Context(width=4, height=4)
        out = draw_quad(
            ctx,
            "void main() { gl_FragColor = vec4(1.0, 0.0, 0.5, 1.0); }",
        )
        assert np.all(out[:, :, 0] == 255)
        assert np.all(out[:, :, 1] == 0)
        assert np.all(out[:, :, 2] == 128)  # round(0.5*255)

    def test_fragcoord_gradient(self):
        ctx = GLES2Context(width=4, height=4)
        out = draw_quad(
            ctx,
            "precision highp float;\n"
            "void main() { gl_FragColor = vec4(gl_FragCoord.x / 4.0, "
            "gl_FragCoord.y / 4.0, 0.0, 1.0); }",
        )
        # x = (px + 0.5)/4 -> bytes round((px+0.5)/4*255)
        expected = np.round((np.arange(4) + 0.5) / 4 * 255).astype(np.uint8)
        assert list(out[0, :, 0]) == list(expected)
        assert list(out[:, 0, 1]) == list(expected)

    def test_varying_interpolation(self):
        ctx = GLES2Context(width=8, height=8)
        out = draw_quad(
            ctx,
            "precision highp float;\nvarying vec2 v_uv;\n"
            "void main() { gl_FragColor = vec4(v_uv, 0.0, 1.0); }",
            size=8,
        )
        assert out[0, 0, 0] < out[0, 7, 0]
        assert out[0, 0, 1] < out[7, 0, 1]

    def test_discard_leaves_pixels(self):
        ctx = GLES2Context(width=4, height=4)
        ctx.glClearColor(0.0, 0.0, 1.0, 1.0)
        ctx.glClear(gl.GL_COLOR_BUFFER_BIT)
        out = draw_quad(
            ctx,
            "precision highp float;\n"
            "void main() { if (gl_FragCoord.x < 2.0) { discard; } "
            "gl_FragColor = vec4(1.0, 0.0, 0.0, 1.0); }",
        )
        assert np.all(out[:, :2, 2] == 255)  # cleared blue survives
        assert np.all(out[:, 2:, 0] == 255)  # drawn red

    def test_gl_fragdata_zero(self):
        ctx = GLES2Context(width=2, height=2)
        out = draw_quad(
            ctx,
            "void main() { gl_FragData[0] = vec4(0.0, 1.0, 0.0, 1.0); }",
            size=2,
        )
        assert np.all(out[:, :, 1] == 255)

    def test_output_clamped(self):
        """Eq. (2): values clamp to [0,1] before quantisation —
        limitation (6)."""
        ctx = GLES2Context(width=2, height=2)
        out = draw_quad(
            ctx,
            "void main() { gl_FragColor = vec4(2.5, -1.0, 0.0, 1.0); }",
            size=2,
        )
        assert np.all(out[:, :, 0] == 255)
        assert np.all(out[:, :, 1] == 0)

    def test_floor_quantization_mode(self):
        ctx = GLES2Context(width=2, height=2, quantization="floor")
        out = draw_quad(
            ctx,
            "void main() { gl_FragColor = vec4(0.5, 0.0, 0.0, 1.0); }",
            size=2,
        )
        assert np.all(out[:, :, 0] == 127)  # floor(0.5*255)


class TestTexturing:
    def test_texture_sampling_in_draw(self):
        ctx = GLES2Context(width=2, height=2)
        (tex,) = ctx.glGenTextures(1)
        ctx.glActiveTexture(gl.GL_TEXTURE0)
        ctx.glBindTexture(gl.GL_TEXTURE_2D, tex)
        ctx.glTexParameteri(gl.GL_TEXTURE_2D, gl.GL_TEXTURE_MIN_FILTER, gl.GL_NEAREST)
        ctx.glTexParameteri(gl.GL_TEXTURE_2D, gl.GL_TEXTURE_MAG_FILTER, gl.GL_NEAREST)
        pixels = np.zeros((2, 2, 4), dtype=np.uint8)
        pixels[:, :, 0] = [[10, 20], [30, 40]]
        pixels[:, :, 3] = 255
        ctx.glTexImage2D(
            gl.GL_TEXTURE_2D, 0, gl.GL_RGBA, 2, 2, 0,
            gl.GL_RGBA, gl.GL_UNSIGNED_BYTE, pixels,
        )
        out = draw_quad(
            ctx,
            "precision highp float;\nvarying vec2 v_uv;\n"
            "uniform sampler2D u_tex;\n"
            "void main() { gl_FragColor = texture2D(u_tex, v_uv); }",
            size=2,
            uniforms={"u_tex": 0},
        )
        assert out[0, 0, 0] == 10
        assert out[1, 1, 0] == 40

    def test_render_to_texture_then_sample(self):
        """Challenge (7) round trip: render into an FBO texture, then
        sample that texture in a second pass."""
        ctx = GLES2Context(width=2, height=2)
        (tex,) = ctx.glGenTextures(1)
        ctx.glBindTexture(gl.GL_TEXTURE_2D, tex)
        ctx.glTexParameteri(gl.GL_TEXTURE_2D, gl.GL_TEXTURE_MIN_FILTER, gl.GL_NEAREST)
        ctx.glTexParameteri(gl.GL_TEXTURE_2D, gl.GL_TEXTURE_MAG_FILTER, gl.GL_NEAREST)
        ctx.glTexImage2D(gl.GL_TEXTURE_2D, 0, gl.GL_RGBA, 2, 2, 0,
                         gl.GL_RGBA, gl.GL_UNSIGNED_BYTE, None)
        (fbo,) = ctx.glGenFramebuffers(1)
        ctx.glBindFramebuffer(gl.GL_FRAMEBUFFER, fbo)
        ctx.glFramebufferTexture2D(
            gl.GL_FRAMEBUFFER, gl.GL_COLOR_ATTACHMENT0, gl.GL_TEXTURE_2D, tex, 0
        )
        assert ctx.glCheckFramebufferStatus(gl.GL_FRAMEBUFFER) == gl.GL_FRAMEBUFFER_COMPLETE
        draw_quad(ctx, "void main() { gl_FragColor = vec4(0.25, 0.5, 0.75, 1.0); }",
                  size=2)
        # Second pass into the default framebuffer, sampling tex.
        ctx.glBindFramebuffer(gl.GL_FRAMEBUFFER, 0)
        out = draw_quad(
            ctx,
            "precision highp float;\nvarying vec2 v_uv;\n"
            "uniform sampler2D u_tex;\n"
            "void main() { gl_FragColor = texture2D(u_tex, v_uv); }",
            size=2,
            uniforms={"u_tex": 0},
            textures={0: tex},
        )
        assert np.all(out[:, :, 0] == 64)
        assert np.all(out[:, :, 1] == 128)
        assert np.all(out[:, :, 2] == 191)


class TestDrawValidation:
    def test_draw_without_program(self):
        ctx = GLES2Context()
        with pytest.raises(GLError):
            ctx.glDrawArrays(gl.GL_TRIANGLES, 0, 3)

    def test_draw_with_incomplete_fbo(self):
        ctx = GLES2Context(width=2, height=2)
        vs = ctx.glCreateShader(gl.GL_VERTEX_SHADER)
        ctx.glShaderSource(vs, VS)
        ctx.glCompileShader(vs)
        fs = ctx.glCreateShader(gl.GL_FRAGMENT_SHADER)
        ctx.glShaderSource(fs, "void main() { gl_FragColor = vec4(1.0); }")
        ctx.glCompileShader(fs)
        prog = ctx.glCreateProgram()
        ctx.glAttachShader(prog, vs)
        ctx.glAttachShader(prog, fs)
        ctx.glLinkProgram(prog)
        ctx.glUseProgram(prog)
        (fbo,) = ctx.glGenFramebuffers(1)
        ctx.glBindFramebuffer(gl.GL_FRAMEBUFFER, fbo)
        with pytest.raises(GLError):
            ctx.glDrawArrays(gl.GL_TRIANGLES, 0, 3)

    def test_negative_count(self):
        ctx = GLES2Context()
        with pytest.raises(GLError):
            ctx.glDrawArrays(gl.GL_TRIANGLES, 0, -1)

    @pytest.mark.parametrize("entry", ["glDrawArrays", "glDrawElements"])
    def test_invalid_mode_is_invalid_enum_and_draws_nothing(self, entry):
        ctx = GLES2Context(width=4, height=4, strict_errors=False)
        draw_quad(ctx, "void main() { gl_FragColor = vec4(1.0); }")
        assert ctx.glGetError() == gl.GL_NO_ERROR
        ctx.glClear(gl.GL_COLOR_BUFFER_BIT)
        if entry == "glDrawArrays":
            ctx.glDrawArrays(0x1234, 0, 6)
        else:
            ctx.glDrawElements(0x1234, 6, gl.GL_UNSIGNED_SHORT,
                               np.arange(6, dtype=np.uint16))
        assert ctx.glGetError() == gl.GL_INVALID_ENUM
        assert len(ctx.stats.draws) == 1
        pixels = ctx.glReadPixels(0, 0, 4, 4, gl.GL_RGBA, gl.GL_UNSIGNED_BYTE)
        assert not pixels.any()


class TestDrawElements:
    def test_indexed_quad(self):
        ctx = GLES2Context(width=4, height=4)
        vs = ctx.glCreateShader(gl.GL_VERTEX_SHADER)
        ctx.glShaderSource(vs, VS)
        ctx.glCompileShader(vs)
        fs = ctx.glCreateShader(gl.GL_FRAGMENT_SHADER)
        ctx.glShaderSource(fs, "void main() { gl_FragColor = vec4(1.0); }")
        ctx.glCompileShader(fs)
        prog = ctx.glCreateProgram()
        ctx.glAttachShader(prog, vs)
        ctx.glAttachShader(prog, fs)
        ctx.glLinkProgram(prog)
        ctx.glUseProgram(prog)
        corners = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=np.float32)
        loc = ctx.glGetAttribLocation(prog, "a_position")
        ctx.glEnableVertexAttribArray(loc)
        ctx.glVertexAttribPointer(loc, 2, gl.GL_FLOAT, False, 0, corners)
        ctx.glViewport(0, 0, 4, 4)
        indices = np.array([0, 1, 2, 0, 2, 3], dtype=np.uint16)
        ctx.glDrawElements(gl.GL_TRIANGLES, 6, gl.GL_UNSIGNED_SHORT, indices)
        out = ctx.glReadPixels(0, 0, 4, 4, gl.GL_RGBA, gl.GL_UNSIGNED_BYTE)
        assert np.all(out == 255)

    def test_index_buffer_object(self):
        ctx = GLES2Context(width=2, height=2)
        (ibo,) = ctx.glGenBuffers(1)
        ctx.glBindBuffer(gl.GL_ELEMENT_ARRAY_BUFFER, ibo)
        indices = np.array([0, 1, 2], dtype=np.uint16)
        ctx.glBufferData(gl.GL_ELEMENT_ARRAY_BUFFER, indices, gl.GL_STATIC_DRAW)
        assert ctx._buffers[ibo].size == 6

    def test_vbo_vertex_fetch(self):
        ctx = GLES2Context(width=2, height=2)
        vs = ctx.glCreateShader(gl.GL_VERTEX_SHADER)
        ctx.glShaderSource(vs, VS)
        ctx.glCompileShader(vs)
        fs = ctx.glCreateShader(gl.GL_FRAGMENT_SHADER)
        ctx.glShaderSource(fs, "void main() { gl_FragColor = vec4(1.0); }")
        ctx.glCompileShader(fs)
        prog = ctx.glCreateProgram()
        ctx.glAttachShader(prog, vs)
        ctx.glAttachShader(prog, fs)
        ctx.glLinkProgram(prog)
        ctx.glUseProgram(prog)
        (vbo,) = ctx.glGenBuffers(1)
        ctx.glBindBuffer(gl.GL_ARRAY_BUFFER, vbo)
        ctx.glBufferData(gl.GL_ARRAY_BUFFER, QUAD, gl.GL_STATIC_DRAW)
        loc = ctx.glGetAttribLocation(prog, "a_position")
        ctx.glEnableVertexAttribArray(loc)
        ctx.glVertexAttribPointer(loc, 2, gl.GL_FLOAT, False, 0, 0)
        ctx.glViewport(0, 0, 2, 2)
        ctx.glDrawArrays(gl.GL_TRIANGLES, 0, 6)
        out = ctx.glReadPixels(0, 0, 2, 2, gl.GL_RGBA, gl.GL_UNSIGNED_BYTE)
        assert np.all(out == 255)


class TestClearAndStats:
    def test_clear_color(self):
        ctx = GLES2Context(width=2, height=2)
        ctx.glClearColor(0.0, 1.0, 0.0, 1.0)
        ctx.glClear(gl.GL_COLOR_BUFFER_BIT)
        out = ctx.glReadPixels(0, 0, 2, 2, gl.GL_RGBA, gl.GL_UNSIGNED_BYTE)
        assert np.all(out[:, :, 1] == 255)

    def test_stats_collected(self):
        ctx = GLES2Context(width=4, height=4)
        draw_quad(ctx, "void main() { gl_FragColor = vec4(1.0); }")
        stats = ctx.stats
        assert stats.shader_compiles == 2
        assert stats.program_links == 1
        assert len(stats.draws) == 1
        assert stats.draws[0].fragment_invocations == 16
        assert stats.draws[0].vertex_invocations == 6
        assert stats.readback_bytes == 4 * 4 * 4

    def test_rgb_readback(self):
        ctx = GLES2Context(width=2, height=2)
        ctx.glClearColor(1.0, 0.0, 0.0, 1.0)
        ctx.glClear(gl.GL_COLOR_BUFFER_BIT)
        out = ctx.glReadPixels(0, 0, 2, 2, gl.GL_RGB, gl.GL_UNSIGNED_BYTE)
        assert out.shape == (2, 2, 3)
