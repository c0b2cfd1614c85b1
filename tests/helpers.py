"""Shared synthetic fixtures and measurements for the tests."""

import tracemalloc

import numpy as np

from rangekit.antenna_metrics import SParamTrace

# three matched bands: (center Hz, S11 minimum dB, fractional bandwidth)
DIP_SPECS = (
    (1.88e9, -24.70, 0.0106),
    (9.56e9, -12.26, 0.0397),
    (10.49e9, -24.67, 0.0171),
)


def three_dip_trace(step_hz=1e6) -> SParamTrace:
    """Synthetic reflection sweep with three capped-parabola dips.

    Each dip is constructed so its -10 dB crossings sit exactly at
    fc * (1 +/- fbw/2) and its vertex lies on the frequency grid, which
    pins the expected band metrics analytically.
    """
    n = int(round(10e9 / step_hz))
    f = 1e9 + step_hz * np.arange(n + 1)
    dips = []
    for fc, s_min, fbw in DIP_SPECS:
        half_width = fbw * fc / 2.0
        curvature = (-10.0 - s_min) / half_width**2
        dips.append(s_min + curvature * (f - fc) ** 2)
    s = np.minimum(np.minimum(dips[0], dips[1]), dips[2])
    return SParamTrace(frequency_hz=f, s11_db=np.minimum(s, 0.0))


def traced_peak(call) -> int:
    """Peak bytes that ``tracemalloc`` traces above its starting level while
    ``call()`` runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
