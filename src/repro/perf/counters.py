"""Dynamic operation counters — and their static IR projection.

The GLSL interpreter reports every executed operation (per active
lane) to an :class:`OpCounters` sink; the GLES2 context aggregates
them per draw call (:class:`DrawStats`) and per context lifetime
(:class:`ContextStats`).  The performance models in this package turn
these counts into simulated wall time.

:func:`static_shader_ops` is the static counterpart: it projects the
same counter totals from the *compiled IR artifact*
(:mod:`repro.glsl.ir`) without running the shader at all — op table ×
invocation count.  For straight-line shaders (the paper's E1 kernels
after select-conversion) the projection is exact; divergent control
flow degrades it to an estimate and clears the ``exact`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class DiskCacheStats:
    """Process-lifetime tallies of the on-disk compile-artifact cache
    (:mod:`repro.core.cache`).

    ``hits``/``misses`` count entry lookups; ``evictions`` counts
    entries removed by the LRU size bound; ``corrupt`` counts entries
    that failed validation (bad magic/header/checksum or an
    undeserialisable payload) and were dropped — each corrupt entry
    also registers as a miss, because the caller recompiles.

    The failure-path tallies: ``write_failures`` counts publishes that
    failed (``ENOSPC``, permissions, a vanished directory — the
    compile proceeds uncached), ``orphans_removed`` counts stale
    ``.tmp-*`` files left by writers killed mid-publish and swept by
    the LRU trim, ``load_failures`` counts payloads whose envelope
    checksum passed but whose deserialisation raised (also counted
    under ``corrupt`` when the entry is invalidated), and
    ``lock_skips`` counts trims abandoned because another process held
    the eviction lock.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    corrupt: int = 0
    write_failures: int = 0
    orphans_removed: int = 0
    load_failures: int = 0
    lock_skips: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0
        self.write_failures = 0
        self.orphans_removed = 0
        self.load_failures = 0
        self.lock_skips = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "write_failures": self.write_failures,
            "orphans_removed": self.orphans_removed,
            "load_failures": self.load_failures,
            "lock_skips": self.lock_skips,
        }


#: The process-global sink :mod:`repro.core.cache` reports into.  GL
#: contexts mirror deltas of these into their own
#: :class:`ContextStats` fields (see ``disk_cache_hits`` & friends).
disk_cache_stats = DiskCacheStats()


@dataclass
class FaultPathStats:
    """Process-lifetime tallies of the runtime's degraded paths — how
    often a fallback actually ran, injected or organic.

    ``worker_retries`` counts pool draw dispatches re-attempted after
    a recoverable pool failure (broken pool, timeout, malformed chunk
    result); ``pool_restarts`` counts worker pools torn down and
    rebuilt after such a failure; ``fault_fallbacks`` counts
    degraded-path activations — a pool draw abandoned to in-process
    shading after its retry budget, a fused chain replayed eagerly
    because composition/build raised, a JIT compile failure falling
    back to the AST interpreter.  Every one of these paths is
    bit-identical to the healthy one by construction (asserted in
    ``tests/test_faults.py``); the counters exist so degradation is
    *visible*, never silent.
    """

    worker_retries: int = 0
    pool_restarts: int = 0
    fault_fallbacks: int = 0

    def reset(self) -> None:
        self.worker_retries = 0
        self.pool_restarts = 0
        self.fault_fallbacks = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "worker_retries": self.worker_retries,
            "pool_restarts": self.pool_restarts,
            "fault_fallbacks": self.fault_fallbacks,
        }


#: The process-global sink the hardened fallback paths report into
#: (:mod:`repro.gles2.parallel`, :mod:`repro.core.api.graph`,
#: :mod:`repro.glsl.jit`).  GL contexts mirror deltas into
#: :class:`ContextStats` like the disk-cache tallies.
fault_path_stats = FaultPathStats()


class OpCounters:
    """Counts of dynamic shader operations by category.

    Categories: ``alu`` (adds/muls/compares/moves), ``sfu``
    (transcendentals: the QPU services these through lookup +
    iteration, several cycles each), ``tex`` (texture fetches through
    the TMU).
    """

    __slots__ = ("counts",)

    def __init__(self):
        self.counts: Dict[str, int] = {"alu": 0, "sfu": 0, "tex": 0}

    def add(self, category: str, count: int) -> None:
        self.counts[category] = self.counts.get(category, 0) + count

    def merge(self, other: "OpCounters") -> None:
        for key, value in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    @property
    def alu(self) -> int:
        return self.counts.get("alu", 0)

    @property
    def sfu(self) -> int:
        return self.counts.get("sfu", 0)

    @property
    def tex(self) -> int:
        return self.counts.get("tex", 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def snapshot(self) -> Dict[str, int]:
        return dict(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpCounters({self.counts})"


def static_shader_ops(checked, float_model=None, invocations=1):
    """Static IR-cost mode: project the dynamic counter totals of one
    shader stage from its compiled IR artifact.

    Returns ``(OpCounters, exact)`` — the projected counts for a draw
    shading ``invocations`` lanes, and whether the projection is
    guaranteed to equal the runtime tally (no data-dependent control
    flow survives compilation).  Lazy-imports the IR layer so the
    counter module stays dependency-free for plain dynamic use.
    """
    from ..glsl.ir import get_compiled, static_cost

    program = get_compiled(checked, float_model)
    cost = static_cost(program)
    counters = OpCounters()
    for category, count in cost.totals(invocations).items():
        counters.add(category, count)
    return counters, cost.exact


@dataclass
class DrawStats:
    """Everything one draw call did."""

    vertex_invocations: int = 0
    fragment_invocations: int = 0
    discarded_fragments: int = 0
    vertex_ops: OpCounters = field(default_factory=OpCounters)
    fragment_ops: OpCounters = field(default_factory=OpCounters)
    framebuffer_writes: int = 0  # pixels written
    #: JIT texture-gather fast path (see repro.glsl.ir.gather): how
    #: many annotated texture2D site executions gathered texel storage
    #: directly, and how many reached an annotated site but failed the
    #: runtime qualification (sampler state, non-integral or
    #: out-of-range indices) and took the ordinary sampler instead.
    #: Both stay 0 on non-JIT backends and on unannotated programs;
    #: they tally site *executions*, a subset of the ``tex`` op count.
    texture_gathers: int = 0
    gather_fallbacks: int = 0


@dataclass
class ContextStats:
    """Lifetime counters for one GL context — the raw material for the
    wall-time model."""

    draws: List[DrawStats] = field(default_factory=list)
    shader_compiles: int = 0
    program_links: int = 0
    texture_upload_bytes: int = 0
    buffer_upload_bytes: int = 0
    readback_bytes: int = 0
    uniform_updates: int = 0
    #: Launch-graph scheduler accounting (repro.core.api.graph).
    #: ``fused_draws`` counts draws that executed a fused map chain;
    #: ``elided_draws`` counts recorded launches folded into another
    #: stage's fused draw (each fused draw of an n-stage chain elides
    #: n-1 draws); ``dead_launches`` counts recorded launches dropped
    #: because nothing observed their output.  ``scratch_allocs`` /
    #: ``scratch_reuses`` tally the scratch pool's backing-array
    #: allocations vs. recycles.  ``elided_intermediate_bytes`` is the
    #: texel traffic fusion kept on-chip — the written-then-re-read
    #: bytes of every elided intermediate — priced by perf.wallclock
    #: as the transfer time the graph path avoided.
    fused_draws: int = 0
    elided_draws: int = 0
    dead_launches: int = 0
    scratch_allocs: int = 0
    scratch_reuses: int = 0
    elided_intermediate_bytes: int = 0
    #: On-disk compile-artifact cache activity attributed to this
    #: context (deltas of :data:`disk_cache_stats` folded in by the
    #: context around compiles and draws).  ``disk_warm_compiles``
    #: counts glCompileShader calls whose front-end artifact came from
    #: the disk cache instead of a fresh parse/typecheck — the
    #: wall-time model can price those at the warm compile cost
    #: (see :class:`repro.perf.machines.GpuParameters`).
    disk_cache_hits: int = 0
    disk_cache_misses: int = 0
    disk_cache_evictions: int = 0
    disk_cache_corrupt: int = 0
    disk_warm_compiles: int = 0
    #: Failure-path activity attributed to this context (deltas of
    #: :data:`fault_path_stats` and the disk store's failure tallies,
    #: folded in alongside the disk-cache counters).  Non-zero values
    #: mean a degraded-but-bit-identical path ran: a pool dispatch was
    #: retried (``worker_retries``) over a rebuilt pool
    #: (``pool_restarts``), a draw/fusion/JIT fell back to its slower
    #: twin (``fault_fallbacks``), a cache publish failed
    #: (``cache_write_failures``), or the trim swept stale temp files
    #: (``cache_orphans_removed``).
    worker_retries: int = 0
    pool_restarts: int = 0
    fault_fallbacks: int = 0
    cache_write_failures: int = 0
    cache_orphans_removed: int = 0

    def total_fragments(self) -> int:
        return sum(d.fragment_invocations for d in self.draws)

    def total_vertices(self) -> int:
        return sum(d.vertex_invocations for d in self.draws)

    def total_ops(self) -> OpCounters:
        acc = OpCounters()
        for draw in self.draws:
            acc.merge(draw.vertex_ops)
            acc.merge(draw.fragment_ops)
        return acc

    def reset(self) -> None:
        self.draws.clear()
        self.shader_compiles = 0
        self.program_links = 0
        self.texture_upload_bytes = 0
        self.buffer_upload_bytes = 0
        self.readback_bytes = 0
        self.uniform_updates = 0
        self.fused_draws = 0
        self.elided_draws = 0
        self.dead_launches = 0
        self.scratch_allocs = 0
        self.scratch_reuses = 0
        self.elided_intermediate_bytes = 0
        self.disk_cache_hits = 0
        self.disk_cache_misses = 0
        self.disk_cache_evictions = 0
        self.disk_cache_corrupt = 0
        self.disk_warm_compiles = 0
        self.worker_retries = 0
        self.pool_restarts = 0
        self.fault_fallbacks = 0
        self.cache_write_failures = 0
        self.cache_orphans_removed = 0
