"""End-to-end application wall-time assembly.

The paper's §V compares *application wall times, including time spent
in data transfers and kernel compilations*.  This module assembles the
full GPU-side wall time from a context's lifetime counters:

    wall = compile + upload + execute + readback

and packages the decomposition for reporting, so benches can show
where the time goes (the paper's discussion of the "extra burden of
packing and unpacking" is directly visible in the execute component).
"""

from __future__ import annotations

from dataclasses import dataclass

from .counters import ContextStats
from .gpu_model import GpuModel
from .machines import VIDEOCORE_IV_GPU, GpuParameters


@dataclass
class GpuTimeline:
    """Decomposed GPU application wall time (seconds)."""

    compile_seconds: float
    upload_seconds: float
    execute_seconds: float
    readback_seconds: float
    #: Transfer time the launch-graph fusion *avoided*: the priced
    #: write+re-read traffic of intermediates that never touched a
    #: framebuffer (ContextStats.elided_intermediate_bytes).  Not part
    #: of ``total_seconds`` — it is time saved, reported so benches can
    #: show the graph path's elided-transfer component explicitly.
    elided_transfer_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (
            self.compile_seconds
            + self.upload_seconds
            + self.execute_seconds
            + self.readback_seconds
        )

    def breakdown(self) -> str:
        """Human-readable component table."""
        rows = [
            ("compile", self.compile_seconds),
            ("upload", self.upload_seconds),
            ("execute", self.execute_seconds),
            ("readback", self.readback_seconds),
            ("total", self.total_seconds),
        ]
        if self.elided_transfer_seconds:
            rows.append(("(elided)", self.elided_transfer_seconds))
        return "\n".join(f"{name:>9}: {seconds * 1e3:10.3f} ms" for name, seconds in rows)


def gpu_wall_time(
    stats: ContextStats, params: GpuParameters = VIDEOCORE_IV_GPU
) -> GpuTimeline:
    """Assemble the wall time of everything a context did."""
    model = GpuModel(params)
    # The counter prices both legs of each skipped intermediate — the
    # framebuffer write (upload-rate leg) *and* the texture re-read by
    # the consumer (readback-rate leg) — in equal byte halves.
    elided_half = stats.elided_intermediate_bytes / 2
    return GpuTimeline(
        compile_seconds=model.compile_seconds(stats),
        upload_seconds=model.upload_seconds(stats),
        execute_seconds=model.execute_seconds(stats),
        readback_seconds=model.readback_seconds(stats),
        elided_transfer_seconds=(
            elided_half / params.upload_bytes_per_second
            + elided_half / params.readback_bytes_per_second
        ),
    )
