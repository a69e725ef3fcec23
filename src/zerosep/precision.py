"""Extended-precision reduction of t*log(p) modulo 2*pi for large vertical shifts.

Float64 keeps the reduced phase accurate to ~1e-9 radians up to |t| ~ 1e6.
Beyond that the reduction runs in mpmath at a mantissa width that grows with
log2|t|, so shifts as large as 1e30 and far beyond stay exact.  The
logarithms log(n) it needs are kept in a grow-only table per working
precision, so anchoring the same primes again at another height (a partner
combination, a replicated window, the next benchmark op) reduces without
recomputing them.
"""

from __future__ import annotations

import math
from typing import Sequence

import mpmath as mp
import numpy as np

DEFAULT_BITS = 256
FLOAT_SAFE_T = 1e6
TWO_PI = 2.0 * math.pi

# working precision -> {n: log n at that precision}; grow-only, and exact to
# reuse because log(n) at one precision is always the same mpf
_LOGS: dict[int, dict[int, mp.mpf]] = {}


def needed_bits(t) -> int:
    """Mantissa bits for reducing t*log(p) mod 2*pi: max(256, log2|t| + 96)."""
    at = abs(float(mp.mpf(t))) if not isinstance(t, (int, float)) else abs(float(t))
    if at <= 1:
        return DEFAULT_BITS
    return max(DEFAULT_BITS, int(math.ceil(math.log2(at))) + 96)


def phases_for_ints(t, ns: np.ndarray | Sequence[int],
                    bits: int | None = None) -> np.ndarray:
    """Reduced phases t*log(n) mod 2*pi for integers n.

    Heights up to FLOAT_SAFE_T reduce in float64 straight from the integer
    array.  Beyond that log(n) is taken at working precision, so the product
    does not inherit float64 error in the logarithm; each log(n) is computed
    once per precision and then read from a table.
    """
    ns = np.asarray(ns)
    if isinstance(t, (int, float, mp.mpf)) and abs(t) <= FLOAT_SAFE_T:
        return np.mod(float(t) * np.log(ns.astype(np.float64)), TWO_PI)
    if bits is None:
        bits = needed_bits(t)
    out = np.empty(len(ns), dtype=np.float64)
    with mp.workprec(bits):
        tm = mp.mpf(t)
        two_pi = 2 * mp.pi
        logs = _LOGS.setdefault(bits, {})
        for i, n in enumerate(ns.tolist()):
            lg = logs.get(n)
            if lg is None:
                lg = logs[n] = mp.log(n)
            r = mp.fmod(tm * lg, two_pi)
            if r < 0:
                r += two_pi
            out[i] = float(r)
    return out


def circle_distances(a: np.ndarray, b: np.ndarray | float = 0.0) -> np.ndarray:
    d = np.mod(np.asarray(a) - b, TWO_PI)
    return np.minimum(d, TWO_PI - d)


def mpf_to_text(t: mp.mpf) -> str:
    """Exact textual form of an mpf as mantissa*2^exponent (round trips)."""
    sign, man, exp, _ = mp.mpf(t)._mpf_
    man = -int(man) if sign else int(man)
    return f"{man}*2^{int(exp)}"

