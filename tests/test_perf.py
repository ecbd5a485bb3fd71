"""Performance-model tests: counters, machine models, extrapolation."""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.api.graph import ReplayStats
from repro.perf.counters import (
    ContextStats,
    Counters,
    DiskCacheStats,
    DrawStats,
    FaultPathStats,
    OpCounters,
)
from repro.perf.cpu_model import CpuModel, CpuWorkload
from repro.perf.extrapolate import fit_counts, predict, project_stats
from repro.perf.gpu_model import GpuModel
from repro.perf.machines import ARM11_CPU, VIDEOCORE_IV_GPU
from repro.perf.wallclock import gpu_wall_time


class TestCounters:
    def test_add_and_totals(self):
        counters = OpCounters()
        counters.add("alu", 10)
        counters.add("alu", 5)
        counters.add("tex", 2)
        assert counters.alu == 15
        assert counters.tex == 2
        assert counters.total() == 17

    def test_merge(self):
        a, b = OpCounters(), OpCounters()
        a.add("alu", 1)
        b.add("sfu", 3)
        a.merge(b)
        assert a.alu == 1 and a.sfu == 3

    def test_context_aggregation(self):
        stats = ContextStats()
        draw = DrawStats(vertex_invocations=6, fragment_invocations=100)
        draw.fragment_ops.add("alu", 500)
        stats.draws.append(draw)
        assert stats.total_fragments() == 100
        assert stats.total_vertices() == 6
        assert stats.total_ops().alu == 500

    def test_reset(self):
        stats = ContextStats()
        for f in fields(stats):
            value = getattr(stats, f.name)
            if isinstance(value, Counters):
                for sub in fields(value):
                    setattr(value, sub.name, 3)
            elif isinstance(value, list):
                value.append(DrawStats())
            else:
                setattr(stats, f.name, 3)
        assert stats.disk.lock_skips == 3 and stats.faults.pool_restarts == 3
        stats.reset()
        assert not stats.draws
        assert stats.projected_draw_calls is None
        counts = {
            name: value for name, value in stats.snapshot().items()
            if name not in ("draws", "disk", "faults",
                            "projected_draw_calls")
        }
        counts.update(stats.disk.snapshot())
        counts.update(stats.faults.snapshot())
        assert counts and all(value == 0 for value in counts.values())

    @pytest.mark.parametrize(
        "record", [ContextStats, DiskCacheStats, FaultPathStats, ReplayStats]
    )
    def test_snapshot_keys_are_the_declared_fields(self, record):
        assert list(record().snapshot()) == [f.name for f in fields(record)]

    def test_delta_and_add_round_trip(self):
        stats = ContextStats()
        before = stats.snapshot()
        stats.draws.append(DrawStats(fragment_invocations=5))
        stats.readback_bytes += 64
        stats.disk.hits += 2
        delta = stats.delta(before)
        assert delta == {
            "draws": stats.draws, "readback_bytes": 64, "disk": {"hits": 2},
        }
        copy = ContextStats()
        copy.add(delta)
        assert copy.snapshot() == stats.snapshot()
        assert stats.delta(stats.snapshot()) == {}


class TestMachineParameters:
    def test_videocore_peak_is_24_gflops(self):
        p = VIDEOCORE_IV_GPU
        assert p.peak_gflops == 24.0
        assert p.qpu_count * p.simd_width * 2 * p.clock_hz == 24e9

    def test_arm11_clock(self):
        assert ARM11_CPU.clock_hz == 700e6

    def test_int_faster_than_fp_on_cpu(self):
        # The paper's §V explanation of why fp speedups are lower.
        assert ARM11_CPU.int_op_cycles < ARM11_CPU.fp_op_cycles


class TestCpuModel:
    def test_compute_bound(self):
        model = CpuModel()
        workload = CpuWorkload(int_ops=7e8)  # 7e8 * 1.2 cycles @ 700MHz = 1.2s
        timeline = model.time(workload)
        assert timeline.compute_seconds == pytest.approx(1.2)
        assert timeline.memory_seconds == 0

    def test_memory_bound(self):
        model = CpuModel()
        workload = CpuWorkload(dram_bytes=ARM11_CPU.dram_bytes_per_second)
        assert model.time(workload).memory_seconds == pytest.approx(1.0)

    def test_total_is_max_plus_overlap(self):
        model = CpuModel()
        workload = CpuWorkload(int_ops=7e8, dram_bytes=ARM11_CPU.dram_bytes_per_second)
        timeline = model.time(workload)
        expected = max(timeline.compute_seconds, timeline.memory_seconds) + 0.3 * min(
            timeline.compute_seconds, timeline.memory_seconds
        )
        assert timeline.total_seconds == pytest.approx(expected)

    def test_workload_scaled_and_merged(self):
        w = CpuWorkload(int_ops=10, fp_ops=4, load_store_ops=2, dram_bytes=8,
                        overhead_ops=6)
        assert w.scaled(2.0).int_ops == 20
        merged = w.merged(w)
        assert merged.fp_ops == 8 and merged.dram_bytes == 16


class TestGpuModel:
    def test_alu_time(self):
        model = GpuModel()
        draw = DrawStats()
        draw.fragment_ops.add("alu", int(24e9))  # exactly one second
        assert model.draw_time(draw).shader_seconds == pytest.approx(1.0)

    def test_tex_overlaps_alu(self):
        model = GpuModel()
        draw = DrawStats()
        draw.fragment_ops.add("alu", int(24e9))
        draw.fragment_ops.add("tex", 100)  # hidden under ALU time
        assert model.draw_time(draw).shader_seconds == pytest.approx(1.0)

    def test_tex_bound(self):
        model = GpuModel()
        draw = DrawStats()
        draw.fragment_ops.add("tex", int(VIDEOCORE_IV_GPU.tex_fetches_per_second))
        assert model.draw_time(draw).shader_seconds == pytest.approx(1.0)

    def test_per_draw_overhead(self):
        model = GpuModel()
        draw = DrawStats()
        assert model.draw_time(draw).overhead_seconds == pytest.approx(
            VIDEOCORE_IV_GPU.draw_overhead_seconds
        )

    def test_wall_time_assembly(self):
        stats = ContextStats()
        stats.shader_compiles = 2
        stats.program_links = 1
        stats.texture_upload_bytes = int(3e9)
        stats.readback_bytes = int(1.5e9)
        timeline = gpu_wall_time(stats)
        assert timeline.compile_seconds == pytest.approx(
            2 * VIDEOCORE_IV_GPU.shader_compile_seconds
            + VIDEOCORE_IV_GPU.program_link_seconds
        )
        assert timeline.upload_seconds == pytest.approx(1.0)
        assert timeline.readback_seconds == pytest.approx(1.0)


class TestExtrapolation:
    def test_fit_linear(self):
        coeffs = fit_counts([2, 4], [7, 13], exponents=(0, 1))
        assert predict(coeffs, (0, 1), 10) == pytest.approx(31)

    def test_fit_cubic_family(self):
        # value = 5 + 2 n^2 + n^3
        sizes = [2, 4, 8]
        values = [5 + 2 * s**2 + s**3 for s in sizes]
        coeffs = fit_counts(sizes, values, exponents=(0, 2, 3))
        assert predict(coeffs, (0, 2, 3), 16) == pytest.approx(5 + 2 * 256 + 4096)

    def test_wrong_size_count_rejected(self):
        with pytest.raises(ValueError):
            fit_counts([2], [1, 2], exponents=(0, 1))

    def test_projection_matches_direct_measurement(self):
        """Projecting 64x64 and 128x128 measurements to 256x256 must
        reproduce a direct 256x256 run.  Structural counters are exact;
        op counts carry a tiny data-dependent term (divergent ternaries
        in the §IV pack code cost different ops per sign), so they
        match to ~0.01%."""
        from repro.experiments.speedup import measure_sum

        direct = measure_sum("int32", 256 * 256)
        projected = project_stats(
            lambda s: measure_sum("int32", s),
            sizes=(64 * 64, 128 * 128),
            exponents=(0, 1),
            target=256 * 256,
        )
        assert projected.total_fragments() == direct.total_fragments()
        assert projected.total_ops().tex == direct.total_ops().tex
        assert projected.texture_upload_bytes == direct.texture_upload_bytes
        assert projected.readback_bytes == direct.readback_bytes
        assert projected.total_ops().alu == pytest.approx(
            direct.total_ops().alu, rel=1e-3
        )

    def test_sgemm_projection_matches_direct(self):
        from repro.experiments.speedup import measure_sgemm

        direct = measure_sgemm("int32", 24)
        projected = project_stats(
            lambda n: measure_sgemm("int32", n),
            sizes=(8, 16, 32),
            exponents=(0, 2, 3),
            target=24,
        )
        assert projected.total_ops().alu == pytest.approx(
            direct.total_ops().alu, rel=1e-3
        )
        assert projected.total_ops().tex == pytest.approx(direct.total_ops().tex)
