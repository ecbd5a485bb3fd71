"""Output checkers for the benchmark.

Every request output goes through one of these.  A checker returns a
bool and never raises on a wrong result: a mismatch is counted in the
run's ``failed`` tally and the closed loop keeps going.

* :func:`exact` — integer results (sums, reductions, scans, k-means
  membership) must equal their CPU reference exactly.
* :func:`band` — float results must sit in the paper's precision band
  (median >= 15 matching mantissa bits) against a float64 reference,
  scored by :func:`repro.validation.precision_report`.
* :class:`DigestBook` — every repetition of the same seeded request
  must produce bit-identical output.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.validation import precision_report, validate_exact


def exact(reference, measured) -> bool:
    """Integer result equals its reference, shape and every element."""
    reference = np.asarray(reference)
    measured = np.asarray(measured)
    if reference.shape != measured.shape:
        return False
    return validate_exact(reference.astype(np.int64),
                          measured.astype(np.int64))


def band(reference64, measured) -> bool:
    """Float result meets the paper's precision band against a float64
    reference."""
    reference64 = np.asarray(reference64, dtype=np.float64)
    measured = np.asarray(measured)
    if reference64.shape != measured.shape:
        return False
    if not np.all(np.isfinite(measured)):
        return False
    return precision_report(reference64, measured).meets_paper_band()


def digest(value) -> str:
    """Content digest of an output: dtype, shape and bytes."""
    array = np.ascontiguousarray(np.asarray(value))
    h = hashlib.sha256()
    h.update(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())
    return h.hexdigest()


class DigestBook:
    """The first output digest seen per request index; every later
    execution of the same seeded request — in a child job or in
    process — must match it."""

    def __init__(self):
        self.first = {}

    def same(self, key, output_digest: str) -> bool:
        return self.first.setdefault(key, output_digest) == output_digest
