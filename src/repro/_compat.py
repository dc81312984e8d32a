"""Optional-dependency shims.

NumPy is an *optional* accelerator (``pip install .[fast]``): every
algorithm in this package has a pure-Python implementation that is
semantically identical, and the vectorized paths are only engaged when
``HAVE_NUMPY`` is true.  Import ``np`` from here instead of importing
numpy directly so a missing install degrades to the pure path instead
of raising at import time.
"""

from __future__ import annotations

import importlib.util

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

# SciPy is only looked up, not imported: importing it costs every
# daemon, coordinator and CLI launch about a second and 70 MB, and only
# the benchmark statistics use it (``repro.bench.stats`` imports it on
# first use).
HAVE_SCIPY = importlib.util.find_spec("scipy") is not None

__all__ = ["np", "HAVE_NUMPY", "HAVE_SCIPY"]
