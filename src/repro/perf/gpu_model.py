"""GPU timing model driven by simulator-collected counters.

Unlike the CPU model (which receives an analytic op inventory), the
GPU side is measured: the GLES2 simulator counts every dynamic shader
operation the kernel actually executed — including the unpack/pack
arithmetic the paper's transformations add — plus texture fetches,
fragment/vertex invocations, uploads and readbacks.  This model prices
those counts with VideoCore IV throughput parameters.

Within a draw call the QPU overlaps ALU work with TMU fetches, so the
shader time is ``max(alu+sfu, tex)`` rather than their sum; fixed
per-fragment rasteriser cost and per-draw driver overhead are added on
top.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counters import ContextStats, DrawStats
from .machines import VIDEOCORE_IV_GPU, GpuParameters


@dataclass
class DrawTime:
    """Time decomposition of one draw call (seconds)."""

    shader_seconds: float
    overhead_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.shader_seconds + self.overhead_seconds


class GpuModel:
    """Prices simulator counters into VideoCore IV seconds."""

    def __init__(self, params: GpuParameters = VIDEOCORE_IV_GPU):
        self.params = params

    # ------------------------------------------------------------------
    def draw_time(self, draw: DrawStats) -> DrawTime:
        p = self.params
        ops = draw.fragment_ops
        alu_seconds = ops.alu / p.alu_ops_per_second
        sfu_seconds = ops.sfu / p.sfu_ops_per_second
        tex_seconds = ops.tex / p.tex_fetches_per_second
        shader = max(alu_seconds + sfu_seconds, tex_seconds)

        vs_ops = draw.vertex_ops
        shader += vs_ops.alu / p.alu_ops_per_second
        shader += vs_ops.sfu / p.sfu_ops_per_second

        fixed_cycles = (
            draw.fragment_invocations * p.fragment_overhead_cycles
            + draw.vertex_invocations * p.vertex_overhead_cycles
        )
        overhead = fixed_cycles / p.clock_hz + p.draw_overhead_seconds
        return DrawTime(shader_seconds=shader, overhead_seconds=overhead)

    def execute_seconds(self, stats: ContextStats) -> float:
        total = sum(self.draw_time(d).total_seconds for d in stats.draws)
        # Projected stats (perf.extrapolate) merge many draws into one
        # record but carry the true draw-call count for the per-draw
        # driver overhead.
        calls = stats.projected_draw_calls
        if calls is not None:
            total += (calls - len(stats.draws)) * self.params.draw_overhead_seconds
        return total

    def compile_seconds(self, stats: ContextStats) -> float:
        warm = min(stats.disk_warm_compiles, stats.shader_compiles)
        cold = stats.shader_compiles - warm
        warm_cost = self.params.warm_shader_compile_seconds
        if warm_cost is None:
            warm_cost = self.params.shader_compile_seconds
        return (
            cold * self.params.shader_compile_seconds
            + warm * warm_cost
            + stats.program_links * self.params.program_link_seconds
        )

    def upload_seconds(self, stats: ContextStats) -> float:
        total_bytes = stats.texture_upload_bytes + stats.buffer_upload_bytes
        return total_bytes / self.params.upload_bytes_per_second

    def readback_seconds(self, stats: ContextStats) -> float:
        return stats.readback_bytes / self.params.readback_bytes_per_second
