"""Dynamic operation counters — and their static IR projection.

The GLSL interpreter reports every executed operation (per active
lane) to an :class:`OpCounters` sink; the GLES2 context aggregates
them per draw call (:class:`DrawStats`) and per context lifetime
(:class:`ContextStats`).  The performance models in this package turn
these counts into simulated wall time.

Every stats record is a :class:`Counters` dataclass: its declared
fields are its counters, and reset/snapshot/delta/add walk them.
The two process-wide records (:data:`disk_cache_stats`,
:data:`fault_path_stats`) are attributed to GL contexts through
:func:`claim`, exactly once per increment.

:func:`static_shader_ops` is the static counterpart: it projects the
same counter totals from the *compiled IR artifact*
(:mod:`repro.glsl.ir`) without running the shader at all — op table ×
invocation count.  For straight-line shaders (the paper's E1 kernels
after select-conversion) the projection is exact; divergent control
flow degrades it to an estimate and clears the ``exact`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Tuple


@lru_cache(maxsize=None)
def _field_names(cls) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _copy(value):
    if isinstance(value, Counters):
        return value.snapshot()
    if isinstance(value, list):
        return list(value)
    return value


def _change(now, before):
    """``now``'s increment over ``before``; falsy when unchanged."""
    if isinstance(now, Counters):
        return now.delta(before)
    if isinstance(now, list):
        return now[len(before):]
    if now is None or before is None:
        return now
    return now - before


class Counters:
    """Base of every counter record: a ``@dataclass`` whose declared
    fields are its counters, so adding a counter is one field
    declaration.

    A field is a tally (int or float), a nested :class:`Counters`
    record, an append-only list (the draw log), or an optional value
    that stays ``None`` until set.
    """

    def reset(self) -> None:
        """Every field back to its declared default."""
        self.__init__()

    def snapshot(self) -> Dict[str, object]:
        """A plain-data copy of every field (nested records as dicts)."""
        return {name: _copy(getattr(self, name))
                for name in _field_names(type(self))}

    def delta(self, before: Mapping[str, object]) -> Dict[str, object]:
        """The fields that changed since ``before`` (a :meth:`snapshot`),
        as increments: a tally's difference, a nested record's delta, a
        list's new tail.  Unchanged fields are left out."""
        changes = {}
        for name in _field_names(type(self)):
            now, was = getattr(self, name), before[name]
            if now != was:
                change = _change(now, was)
                if change:
                    changes[name] = change
        return changes

    def add(self, delta: Mapping[str, object]) -> None:
        """Apply increments shaped like :meth:`delta`'s result."""
        for name, change in delta.items():
            value = getattr(self, name)
            if isinstance(value, Counters):
                value.add(change)
            elif isinstance(value, list):
                value.extend(change)
            else:
                setattr(self, name,
                        change if value is None else value + change)


@dataclass
class DiskCacheStats(Counters):
    """Tallies of the on-disk compile-artifact cache
    (:mod:`repro.core.cache`): process-wide in
    :data:`disk_cache_stats`, per context in ``ContextStats.disk``.

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


#: The process-global sink :mod:`repro.core.cache` reports into.
disk_cache_stats = DiskCacheStats()


@dataclass
class FaultPathStats(Counters):
    """Tallies of the runtime's degraded paths — how often a fallback
    actually ran, injected or organic: process-wide in
    :data:`fault_path_stats`, per context in ``ContextStats.faults``.

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


#: The process-global sink the hardened fallback paths report into
#: (:mod:`repro.gles2.parallel`, :mod:`repro.core.api.graph`,
#: :mod:`repro.glsl.jit`).
fault_path_stats = FaultPathStats()

#: What :func:`claim` has already attributed of the two process-wide
#: records.
_claimed_disk = disk_cache_stats.snapshot()
_claimed_faults = fault_path_stats.snapshot()


def claim() -> Tuple[Dict[str, int], Dict[str, int]]:
    """The :data:`disk_cache_stats` and :data:`fault_path_stats`
    increments since the previous claim by *any* caller, as
    :meth:`Counters.delta` dicts; advances the shared baseline past
    them.  A GL context claims after each compile and draw, so when
    several contexts share a process every increment is attributed to
    exactly one of them."""
    global _claimed_disk, _claimed_faults
    disk, faults = {}, {}
    # Both records are flat, so an instance dict equals its snapshot:
    # the common nothing-new claim of every draw is two dict compares.
    if vars(disk_cache_stats) != _claimed_disk:
        disk = disk_cache_stats.delta(_claimed_disk)
        _claimed_disk = disk_cache_stats.snapshot()
    if vars(fault_path_stats) != _claimed_faults:
        faults = fault_path_stats.delta(_claimed_faults)
        _claimed_faults = fault_path_stats.snapshot()
    return disk, faults


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
class ContextStats(Counters):
    """Lifetime counters for one GL context — the raw material for the
    wall-time model."""

    draws: List[DrawStats] = field(default_factory=list)
    shader_compiles: int = 0
    program_links: int = 0
    texture_upload_bytes: int = 0
    buffer_upload_bytes: int = 0
    readback_bytes: int = 0
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
    #: glCompileShader calls whose front-end artifact came from the
    #: disk cache instead of a fresh parse/typecheck — the wall-time
    #: model prices those at the warm compile cost (see
    #: :class:`repro.perf.machines.GpuParameters`).
    disk_warm_compiles: int = 0
    #: The share of the process-wide disk-cache and fault-path tallies
    #: this context claimed (see :func:`claim`).  Non-zero fault
    #: counts mean a degraded-but-bit-identical path ran.
    disk: DiskCacheStats = field(default_factory=DiskCacheStats)
    faults: FaultPathStats = field(default_factory=FaultPathStats)
    #: Set on stats projected by :mod:`repro.perf.extrapolate`, which
    #: merge many draws into one record: the true draw-call count, for
    #: the per-draw driver overhead.
    projected_draw_calls: Optional[float] = None

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
