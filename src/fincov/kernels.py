"""Kernel selection: compiled lane when available, numpy lane otherwise.

Set FINCOV_PURE=1 to force the numpy lane (used by the benchmark and to test
both lanes against each other).
"""

import os

import numpy as np

if os.environ.get("FINCOV_PURE"):
    from . import _kernels_py as impl
else:
    try:
        from . import _kernels_c as impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _kernels_py as impl

BACKEND = impl.BACKEND

first_composability_violation = impl.first_composability_violation
first_identity_violation = impl.first_identity_violation
first_assoc_violation = impl.first_assoc_violation
mono_epi_flags = impl.mono_epi_flags
lift_report = impl.lift_report
commuting_spans = impl.commuting_spans
span_verify = impl.span_verify
coequalizer_verify = impl.coequalizer_verify


def table_dtype(n):
    """Integer dtype of an n-morphism composition table for the active lane.

    The compiled lane is typed for int64.  The numpy lane takes the
    narrowest signed type holding -1..n-1: the 1476-morphism finite_top
    table is 4.4 MB as int16 and 17.4 MB as int64.
    """
    if BACKEND != "python":
        return np.int64
    for dt in (np.int8, np.int16, np.int32):
        if n <= np.iinfo(dt).max:
            return dt
    return np.int64
