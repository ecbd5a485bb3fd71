"""Exact polynomial scaling of measured counters to paper-size inputs.

The simulator executes every shader invocation faithfully, which makes
large problem sizes (the paper's 1024x1024 sgemm is 2^30 multiply-adds)
impractical to *simulate* directly — but the dynamic op counts of
these kernels are exact polynomials in the problem size (a map kernel
is affine in N; sgemm is a polynomial in n with terms 1, n^2, n^3).
Measuring the counters at a few small sizes therefore determines the
counts at any size exactly, and the timing model can price the
full-size run.

``fit_counts`` solves the Vandermonde system for given exponents;
``project_stats`` applies it to every field of a ContextStats.  Tests
verify the projection reproduces a directly-measured larger size.

One caveat: structural counters (fragments, bytes, fetches) are exact
polynomials, but ALU counts carry a small data-dependent term — the
divergent ternaries in the §IV pack code execute different op counts
per lane sign, so with random inputs the fit is accurate to ~0.01%
rather than bit-exact.  That is far below the fidelity of any timing
model.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence

import numpy as np

from .counters import ContextStats, DrawStats, OpCounters


def fit_counts(
    sizes: Sequence[float], values: Sequence[float], exponents: Sequence[int]
) -> np.ndarray:
    """Solve for coefficients c_j with value(s) = sum c_j * s^e_j.

    Requires len(sizes) == len(exponents); the fit is exact (a linear
    solve, not least squares).
    """
    if len(sizes) != len(exponents):
        raise ValueError(
            f"need exactly {len(exponents)} measurement sizes for "
            f"exponents {tuple(exponents)}, got {len(sizes)}"
        )
    matrix = np.array(
        [[float(s) ** e for e in exponents] for s in sizes], dtype=np.float64
    )
    return np.linalg.solve(matrix, np.asarray(values, dtype=np.float64))


def predict(coeffs: np.ndarray, exponents: Sequence[int], size: float) -> float:
    """Evaluate a fitted polynomial at ``size``."""
    return float(
        sum(c * float(size) ** e for c, e in zip(coeffs, exponents))
    )


_CONTEXT_FIELDS = (
    "shader_compiles",
    "program_links",
    "texture_upload_bytes",
    "buffer_upload_bytes",
    "readback_bytes",
)


def _flatten(stats: ContextStats) -> Dict[str, float]:
    flat = {name: float(getattr(stats, name)) for name in _CONTEXT_FIELDS}
    flat["vertex_invocations"] = float(
        sum(d.vertex_invocations for d in stats.draws)
    )
    flat["fragment_invocations"] = float(
        sum(d.fragment_invocations for d in stats.draws)
    )
    flat["draw_calls"] = float(len(stats.draws))
    vertex_ops = OpCounters()
    fragment_ops = OpCounters()
    for draw in stats.draws:
        vertex_ops.merge(draw.vertex_ops)
        fragment_ops.merge(draw.fragment_ops)
    for category in ("alu", "sfu", "tex"):
        flat[f"vertex_{category}"] = float(vertex_ops.counts.get(category, 0))
        flat[f"fragment_{category}"] = float(fragment_ops.counts.get(category, 0))
    return flat


def _inflate(flat: Dict[str, float]) -> ContextStats:
    stats = ContextStats()
    for name in _CONTEXT_FIELDS:
        setattr(stats, name, max(0.0, flat[name]))
    draw = DrawStats(
        vertex_invocations=int(round(max(0.0, flat["vertex_invocations"]))),
        fragment_invocations=int(round(max(0.0, flat["fragment_invocations"]))),
    )
    for category in ("alu", "sfu", "tex"):
        draw.vertex_ops.counts[category] = max(0.0, flat[f"vertex_{category}"])
        draw.fragment_ops.counts[category] = max(0.0, flat[f"fragment_{category}"])
    stats.draws.append(draw)
    # Per-draw fixed overheads must survive the merge into one draw:
    # carry the true draw-call count in a dedicated field.
    stats.projected_draw_calls = max(1.0, flat["draw_calls"])
    return stats


def project_stats(
    measure: Callable[[int], ContextStats],
    sizes: Sequence[int],
    exponents: Sequence[int],
    target: int,
) -> ContextStats:
    """Measure a benchmark at small ``sizes`` and project its counters
    to ``target`` via an exact polynomial fit in the size.

    ``measure(size)`` runs the benchmark in a fresh device and returns
    its ContextStats.
    """
    flats: List[Dict[str, float]] = [_flatten(measure(s)) for s in sizes]
    projected: Dict[str, float] = {}
    for key in flats[0]:
        values = [flat[key] for flat in flats]
        coeffs = fit_counts(sizes, values, exponents)
        projected[key] = predict(coeffs, exponents, target)
    return _inflate(projected)
