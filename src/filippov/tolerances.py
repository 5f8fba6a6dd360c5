"""Numeric tolerances used by every analysis stage, eight in all.

All strict-inequality certificates in the classification logic are open
conditions; values inside the tolerance band are reported as
borderline/non-elementary rather than silently classified.  A closed
trajectory, the equator included, is elementary when its return-map
derivative d has |d - 1| > sign.  The whole set can be scaled uniformly
through the FILIPPOV_TOLERANCE_SCALE environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    root: float = 1e-10       # absolute root isolation accuracy; also the
                              # integrator's rtol, with atol = root / 100
    sign: float = 1e-9        # strict-inequality certificates
    newton: float = 1e-11     # residual norm for 2-D Newton zeros
    event: float = 1e-9       # y=0 event localization in state space
    close: float = 1e-6       # trajectory closure detection
    delta_sep: float = 1e-6   # separatrix seeding offset
    connect: float = 1e-4     # saddle-connection distance flag
    coeff_zero: float = 1e-12 # coefficient zero-testing threshold


def default_tols() -> Tolerances:
    """Tolerances scaled by FILIPPOV_TOLERANCE_SCALE (default 1)."""
    scale = float(os.environ.get("FILIPPOV_TOLERANCE_SCALE", "1.0"))
    if scale == 1.0:
        return Tolerances()
    return Tolerances(**{f.name: f.default * scale for f in fields(Tolerances)})
