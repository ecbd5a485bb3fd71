"""``repro.glsl.jit`` — NumPy-source JIT backend for compiled shaders.

The compiled execution engine (the AST tree walker is the reference):
:mod:`.codegen` walks the optimised IR once per (program, wide-global
set) and emits a single straight-line vectorised Python function,
materialised with ``compile()``/``exec``.  Steady-state kernel
relaunches then run **zero interpreter instructions** — one function
call per shader stage per draw, all the work inside numpy.

:mod:`.uniform` supplies the uniform-lane inference that keeps
registers depending only on uniforms/constants at batch width 1, so
per-draw quantities are computed once instead of once per fragment.

:class:`JitExecutor` is the drop-in `execute(n, presets)` engine.
Programs using constructs outside the JIT subset (divergent returns,
structs, multi-step l-values — see :class:`~.codegen.JitUnsupported`)
fall back to the AST :class:`~repro.glsl.interp.Interpreter` at
whole-draw granularity; each fallback *draw* increments the
module-level ``jit_fallbacks`` counter.

Because the generated code does not tally ops dynamically, every draw
— fallback draws included — charges the static IR-cost projection
(:func:`repro.glsl.ir.static_cost`) to its
:class:`~repro.perf.counters.OpCounters`, once per draw.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

import numpy as np

from ..interp import DEFAULT_MAX_LOOP_ITERATIONS, Interpreter
from ..ir import get_compiled, static_cost
from ..values import Value, zeros_for
from .codegen import JitUnsupported, generate
from .uniform import UniformInfo, infer_uniform

__all__ = [
    "JitExecutor",
    "JitUnsupported",
    "UniformInfo",
    "codegen_events",
    "infer_uniform",
    "jit_fallbacks",
    "materialize",
    "reset_codegen_events",
    "reset_fallbacks",
]

#: Number of draws that fell back to the AST interpreter because the
#: program (or this draw's runtime shape) is outside the JIT subset.
jit_fallbacks = 0

#: How generated functions were obtained this process: ``fresh``
#: (codegen ran, disk entry written), ``disk`` (rematerialised from
#: the persistent artifact store — exec of cached source only),
#: ``uncached`` (no source digest or cache disabled).  The warm-CI leg
#: asserts ``fresh`` stays zero on a second run against a shared
#: ``REPRO_CACHE_DIR``.
codegen_events = {"fresh": 0, "disk": 0, "uncached": 0}


def reset_codegen_events() -> None:
    for key in codegen_events:
        codegen_events[key] = 0


def reset_fallbacks() -> None:
    global jit_fallbacks
    jit_fallbacks = 0


def _bump_fallbacks() -> None:
    global jit_fallbacks
    jit_fallbacks += 1


def materialize(source: str, captured: Dict[str, object], fmodel):
    """Rebuild a generated JIT function from its source text and
    captured namespace — the warm-start path shared by the disk cache
    and the :mod:`repro.gles2.parallel` workers.  The helper closures
    are rebuilt from the float model; the returned function carries the
    same ``_jit_source``/``_jit_captured``/``_jit_gather_stats``
    attributes :func:`~.codegen.generate` attaches, so it is
    indistinguishable from a freshly generated one."""
    from .codegen import make_helpers

    ns = make_helpers(fmodel)
    ns.update(captured)
    exec(compile(source, "<jit:cache>", "exec"), ns)
    fn = ns["_jit_main"]
    fn._jit_source = source
    fn._jit_captured = dict(captured)
    fn._jit_gather_stats = ns["_gst"]
    return fn


def _disk_key(program, fmodel, wide: FrozenSet[str]):
    """The artifact-store key for one generated function, or None when
    the program has no source digest / the store is disabled."""
    from ...core import cache as artifact_cache

    digest = getattr(program.checked, "source_digest", None)
    if digest is None or not artifact_cache.enabled():
        return None
    return artifact_cache.artifact_key(
        "jit", digest,
        stage=getattr(program.checked, "stage", ""),
        model=artifact_cache.model_tag(fmodel),
        wide=wide,
        fusion=getattr(program.checked, "fusion_signature", ""),
    )


def _jit_function(program, fmodel, wide: FrozenSet[str]):
    """Cached codegen: one compiled function per (program, wide set).

    ``program`` instances are already memoised per (shader, float
    model) by :func:`repro.glsl.ir.get_compiled`, so attaching the JIT
    artifact cache to the program object gives the per-(shader,
    float-model) caching the launch path relies on.  Returns ``None``
    when the program is outside the JIT subset (negative result cached
    too, so unsupported shaders pay codegen only once).

    Under the in-memory memo sits the persistent artifact store: on a
    memory miss the generated source (or the ``unsupported`` verdict)
    is loaded from disk when some earlier process already generated
    it, and written there when codegen runs fresh.  The function's
    disk key is kept on ``fn._jit_disk_key`` so the multiprocess
    shading layer can ship a reference instead of the source text.
    """
    from ...core import cache as artifact_cache
    from ...testing import faults

    if faults.fire("jit_error"):
        # Injected codegen failure: this *draw* degrades to the AST
        # interpreter (bit-identical by the backend contract) without
        # poisoning the in-memory memo or the persistent store — the
        # next draw may JIT normally.
        from ...perf.counters import fault_path_stats

        fault_path_stats.fault_fallbacks += 1
        return None

    cache = getattr(program, "_jit_cache", None)
    if cache is None:
        cache = program._jit_cache = {}
    if wide in cache:
        return cache[wide]
    rejected = getattr(program, "_jit_unsupported", None)
    if rejected is None:
        rejected = program._jit_unsupported = {}
    if wide in rejected:
        return None
    from ...perf import trace

    with trace.span("compile.jit", "compile") as sp:
        if sp is not None:
            sp.args["stage"] = getattr(program.checked, "stage", "")
        disk_key = _disk_key(program, fmodel, wide)
        if disk_key is not None:
            payload = artifact_cache.get(disk_key)
            if payload is not None:
                entry = artifact_cache.load_jit_entry(payload)
                fn = None
                if entry is not None and "unsupported" in entry:
                    rejected[wide] = entry["unsupported"]
                    codegen_events["disk"] += 1
                    if sp is not None:
                        sp.args.update(event="disk", unsupported=True)
                    return None
                if entry is not None:
                    try:
                        fn = materialize(
                            entry["source"],
                            artifact_cache.decode_captured(
                                entry["captured"]
                            ),
                            fmodel,
                        )
                    except (SyntaxError, KeyError, NameError, TypeError,
                            ValueError, AttributeError) as exc:
                        # A stale artifact whose source no longer
                        # compiles or whose captured namespace no
                        # longer resolves: treat as corrupt data
                        # (invalidated below), never as a fatal error
                        # — the healthy path regenerates.
                        artifact_cache.stats.load_failures += 1
                        faults.note_swallowed("jit_materialize", exc)
                        fn = None
                if fn is not None:
                    fn._jit_disk_key = disk_key
                    codegen_events["disk"] += 1
                    cache[wide] = fn
                    if sp is not None:
                        sp.args["event"] = "disk"
                    return fn
                artifact_cache.invalidate(disk_key)
        try:
            fn = generate(program, fmodel, wide)
        except JitUnsupported as exc:
            rejected[wide] = str(exc)
            if disk_key is not None:
                artifact_cache.put(
                    disk_key,
                    artifact_cache.dump_jit_unsupported(str(exc)),
                    "jit",
                )
            if sp is not None:
                sp.args.update(event="fresh", unsupported=True)
            return None
        fn._jit_disk_key = disk_key
        if disk_key is not None:
            codegen_events["fresh"] += 1
            encoded = artifact_cache.encode_captured(fn._jit_captured)
            if encoded is not None:
                artifact_cache.put(
                    disk_key,
                    artifact_cache.dump_jit_entry(
                        fn._jit_source, encoded
                    ),
                    "jit",
                )
        else:
            codegen_events["uncached"] += 1
        cache[wide] = fn
        if sp is not None:
            sp.args["event"] = (
                "fresh" if disk_key is not None else "uncached"
            )
        return fn


class JitExecutor(Interpreter):
    """Drop-in replacement for :class:`Interpreter` that calls the
    generated straight-line numpy function instead of walking the AST.
    Same constructor, same ``execute(n, presets)`` contract,
    bit-identical observable results.

    Every draw charges the static counter projection
    (:meth:`_charge_static`), including draws that fall back to the
    AST interpreter: the fallback runs with counters muted, so a
    draw's op counts never depend on which engine shaded it."""

    #: Texture-gather tallies, accumulated across this executor's
    #: ``execute`` calls (one executor serves one draw, so tiled draws
    #: sum naturally).  One count per gather-site execution: a site
    #: inside a loop counts once per iteration, matching how often the
    #: wrap/scale/filter pipeline it replaces would have run.
    texture_gathers = 0
    gather_fallbacks = 0

    def __init__(self, checked, float_model=None, counters=None,
                 max_loop_iterations: int = DEFAULT_MAX_LOOP_ITERATIONS):
        super().__init__(checked, float_model, counters, max_loop_iterations)
        self.program = None

    def compiled(self):
        """The optimised IR program for this shader (memoised)."""
        program = self.program
        if program is None or program.checked is not self.checked:
            program = self.program = get_compiled(self.checked, self.fmodel)
        return program

    def bind_globals(self, program, n: int,
                     presets: Dict[str, Value]) -> List[Optional[Value]]:
        """The register file the generated function starts from: every
        global plan bound to its preset, a fresh sampler, its folded
        constant initialiser, its AST-evaluated initialiser, or zeros.
        Also fills :attr:`globals_env`.

        Counters are muted throughout: a draw's global-initialiser cost
        is the static projection's ``per_draw`` part, charged by
        :meth:`_charge_static`."""
        self.n = n
        self.discarded = np.zeros(n, dtype=bool)
        self.frames = []
        self.globals_env = {}
        regs: List[Optional[Value]] = [None] * program.nregs
        consts = program.materialized_consts(self.fmodel)
        simple_inits = program.simple_inits()
        saved_counters = self.counters
        self.counters = None
        try:
            for plan in program.globals_plan:
                if plan.name in presets:
                    value = presets[plan.name]
                elif plan.is_sampler:
                    value = Value(plan.type)
                elif plan.init_block is not None:
                    idx = simple_inits.get(plan.name)
                    if idx is not None:
                        gtype, data = consts[idx]
                        value = Value(gtype, data)
                    else:
                        value = self._materialize_global_init(
                            self.checked.globals[plan.name]
                        )
                else:
                    value = zeros_for(plan.type, 1, self.fmodel.dtype)
                regs[plan.reg] = value
                self.globals_env[plan.name] = value
        finally:
            self.counters = saved_counters
        for name, value in presets.items():
            self.globals_env.setdefault(name, value)
        return regs

    def execute(self, n: int, presets: Dict[str, Value],
                count_globals: bool = True) -> Dict[str, Value]:
        program = self.compiled()
        wide = frozenset(
            name for name, value in presets.items()
            if value.batch > 1
        )
        fn = _jit_function(program, self.fmodel, wide)
        if fn is None:
            return self._fallback(program, n, presets, count_globals)

        regs = self.bind_globals(program, n, presets)
        gst = getattr(fn, "_jit_gather_stats", None)
        gst_before = tuple(gst) if gst is not None else None
        try:
            discarded = fn(regs, n, self.max_loop_iterations)
        except (NameError, UnboundLocalError):
            # A cross-region CSE'd value whose defining branch did not
            # execute on this draw left a Python local unbound.  The
            # generated function only publishes results in its final
            # writeback, so nothing is half-written: run the draw on
            # the AST interpreter instead.  Any partial gather tally is
            # dropped with the partial run.
            return self._fallback(program, n, presets, count_globals)
        if gst_before is not None:
            self.texture_gathers += gst[0] - gst_before[0]
            self.gather_fallbacks += gst[1] - gst_before[1]
        if discarded is not None:
            self.discarded = self._broadcast_mask(discarded)
        self._charge_static(program, n, count_globals)
        return self.globals_env

    def _fallback(self, program, n: int, presets: Dict[str, Value],
                  count_globals: bool) -> Dict[str, Value]:
        """Shade this draw on the AST interpreter (bit-identical by the
        backend contract) and charge the same static projection a
        healthy JIT draw would."""
        _bump_fallbacks()
        saved_counters = self.counters
        self.counters = None
        try:
            env = super().execute(n, presets, count_globals)
        finally:
            self.counters = saved_counters
        self._charge_static(program, n, count_globals)
        return env

    def _charge_static(self, program, n: int, count_globals: bool) -> None:
        """Charge the static counter projection for a draw of ``n``
        lanes.  The projection splits per-invocation from per-draw
        (global-initializer) cost; tiled callers charge the per-draw
        part on the first tile only (``count_globals``)."""
        if self.counters is None:
            return
        totals_cache = getattr(program, "_static_totals", None)
        if totals_cache is None:
            totals_cache = program._static_totals = {}
        totals = totals_cache.get((n, count_globals))
        if totals is None:
            cost = getattr(program, "_static_cost", None)
            if cost is None:
                cost = program._static_cost = static_cost(program)
            projected = dict(cost.totals(n))
            if not count_globals:
                for category, ops in cost.per_draw.items():
                    projected[category] = projected.get(category, 0) - ops
            totals = totals_cache[(n, count_globals)] = [
                (category, count)
                for category, count in projected.items()
                if count
            ]
        for category, count in totals:
            self.counters.add(category, count)
