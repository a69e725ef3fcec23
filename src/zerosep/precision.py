"""Extended-precision reduction of t*log(p) modulo 2*pi for large vertical shifts.

Float64 keeps the reduced phase accurate to ~1e-9 radians up to |t| ~ 1e6.
Beyond that the reduction runs in fixed-point integers (argument reduction
with a stored table of bits, as in Payne and Hanek's radian reduction).  The
height is rounded to the working precision of ``bits`` (a mantissa width that
grows with log2|t|, so shifts as large as 1e30 and far beyond stay exact) and
read as m*2^e; each log(n)/2*pi is stored as the integer
l_n = floor(log(n)/2*pi * 2^F) with F = bits + 64 fraction bits.  The phase
in turns is then the fraction of m*l_n*2^(e - F), a masked integer product,
and one multiplication by 2*pi held to 128 fraction bits and one correctly
rounded conversion to float give it in radians.  Truncating l_n costs at most
|t|*2^-F <= 2^-160 turns, since bits >= log2|t| + 96 (``needed_bits``), and
rounding 2*pi at most 2^-129 radians, so the float phase is the nearest float
to the exact one unless that lies within 2^-128 radians of a rounding
boundary.  The integers l_n are kept in a grow-only table per
working precision, so anchoring the same primes again at another height (a
partner combination, a replicated height, the next benchmark op) reduces
without recomputing them.
"""

from __future__ import annotations

import math
from typing import Sequence

import mpmath as mp
import numpy as np

from .errors import ParseError

DEFAULT_BITS = 256
FLOAT_SAFE_T = 1e6
TWO_PI = 2.0 * math.pi

# fraction bits of the fixed-point logs beyond the working precision
_FIX_GUARD = 64
# working precision bits -> {n: floor(log(n) / 2*pi * 2^(bits + _FIX_GUARD))};
# grow-only, each entry computed once in mpmath at 64 bits more than it keeps
_LOGS: dict[int, dict[int, int]] = {}
# 2*pi with _TWO_PI_FRAC fraction bits, rounded to nearest: its error moves a
# phase by at most 2^-129 radians
_TWO_PI_FRAC = 128
with mp.workprec(_TWO_PI_FRAC + 64):
    _TWO_PI_FIX = int(mp.nint(mp.ldexp(2 * mp.pi, _TWO_PI_FRAC)))
# largest bit length handed to the int -> float conversion, under the 1024
# bits of float range; longer products keep their top bits and a sticky bit
_FLOAT_INT_BITS = 1000


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
    array.  Beyond that t is rounded to ``bits`` and each phase is reduced
    in fixed-point integers against the table of log(n)/2*pi (see the module
    docstring), so the product does not inherit float64 error in the
    logarithm.
    """
    ns = np.asarray(ns)
    if isinstance(t, (int, float, mp.mpf)) and abs(t) <= FLOAT_SAFE_T:
        return np.mod(float(t) * np.log(ns.astype(np.float64)), TWO_PI)
    if bits is None:
        bits = needed_bits(t)
    with mp.workprec(bits):
        sign, man, exp, _ = mp.mpf(t)._mpf_
    m = -int(man) if sign else int(man)
    # t*log(n)/2*pi = m*l_n * 2^-frac_bits; its low frac_bits bits are the
    # fraction of a turn, also for negative m (two's complement)
    frac_bits = bits + _FIX_GUARD - int(exp)
    mask = (1 << max(frac_bits, 0)) - 1
    xs = [(m * lg & mask) * _TWO_PI_FIX for lg in _fixed_logs(ns.tolist(), bits)]
    drop = max(frac_bits + _TWO_PI_FIX.bit_length() - _FLOAT_INT_BITS, 0)
    if drop:
        sticky = (1 << drop) - 1
        xs = [(x >> drop) | ((x & sticky) != 0) for x in xs]
    return np.ldexp(np.array([float(x) for x in xs], dtype=np.float64),
                    drop - frac_bits - _TWO_PI_FRAC)


def _fixed_logs(ns: list, bits: int) -> list:
    """floor(log(n)/2*pi * 2^(bits + _FIX_GUARD)) for each n, from the table."""
    table = _LOGS.setdefault(bits, {})
    fresh = [n for n in ns if n not in table]
    if fresh:
        with mp.workprec(bits + _FIX_GUARD + 64):
            scale = mp.ldexp(1 / (2 * mp.pi), bits + _FIX_GUARD)
            for n in fresh:
                table[n] = int(mp.log(n) * scale)
    return [table[n] for n in ns]


def circle_distances(a: np.ndarray, b: np.ndarray | float = 0.0) -> np.ndarray:
    d = np.mod(np.asarray(a) - b, TWO_PI)
    return np.minimum(d, TWO_PI - d)


def mpf_to_text(t: mp.mpf) -> str:
    """Exact textual form of an mpf as mantissa*2^exponent, at the mpf's own
    precision; :func:`mpf_from_text` reads it back."""
    sign, man, exp, _ = t._mpf_
    man = -int(man) if sign else int(man)
    return f"{man}*2^{int(exp)}"


def mpf_from_text(text: str) -> mp.mpf:
    """The mpf that :func:`mpf_to_text` wrote as ``text``, bit for bit."""
    try:
        man, exp = (int(part) for part in text.split("*2^"))
    except (AttributeError, ValueError):
        raise ParseError(f"bad height m*2^e: {text!r}") from None
    with mp.workprec(max(53, abs(man).bit_length())):
        return mp.mpf((man, exp))
