"""Extended-precision reduction of t*log(p) modulo 2*pi for large vertical shifts.

Float64 keeps the reduced phase accurate to ~1e-9 radians up to |t| ~ 1e6.
Beyond that the reduction runs in mpmath at a mantissa width that grows with
log2|t|, so shifts as large as 1e30 and far beyond stay exact.
"""

from __future__ import annotations

import math
from typing import Sequence

import mpmath as mp
import numpy as np

DEFAULT_BITS = 256
FLOAT_SAFE_T = 1e6
TWO_PI = 2.0 * math.pi


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
    array.  Beyond that log(n) is computed at working precision, so the
    product does not inherit float64 error in the logarithm.
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
        for i, n in enumerate(ns.tolist()):
            r = mp.fmod(tm * mp.log(n), two_pi)
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


def mpf_from_text(text: str, bits: int = DEFAULT_BITS) -> mp.mpf:
    try:
        man_s, exp_s = text.split("*2^")
        man = int(man_s)
        exp = int(exp_s)
    except ValueError as exc:
        raise ValueError(f"not an exact mpf literal: {text!r}") from exc
    with mp.workprec(max(bits, man.bit_length() + 8)):
        return mp.mpf(man) * mp.power(2, exp)
