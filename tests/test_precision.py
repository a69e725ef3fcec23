import math
import random

import mpmath as mp
import numpy as np
import pytest

from zerosep.lattice import simultaneous_approx
from zerosep.errors import ParseError
from zerosep.precision import (FLOAT_SAFE_T, mpf_from_text, mpf_to_text,
                               needed_bits, phases_for_ints)
from zerosep.primes import primes_up_to

TWO_PI = 2.0 * math.pi


def _nearest_phases(t, ns, bits):
    """t rounded to ``bits``, then t*log(n) mod 2*pi at bits + 128 and
    rounded once to the nearest float."""
    with mp.workprec(bits):
        t = mp.mpf(t)
    out = []
    with mp.workprec(bits + 128):
        two_pi = 2 * mp.pi
        for n in ns:
            r = mp.fmod(t * mp.log(int(n)), two_pi)
            out.append(float(r + two_pi if r < 0 else r))
    return np.array(out)


# --- reference: the per-prime mpmath loop the fixed-point reduction replaced


def _reference_phases(t, ns, bits, logs):
    out = np.empty(len(ns), dtype=np.float64)
    with mp.workprec(bits):
        tm = mp.mpf(t)
        two_pi = 2 * mp.pi
        for i, n in enumerate(ns.tolist()):
            lg = logs.get(n)
            if lg is None:
                lg = logs[n] = mp.log(n)
            r = mp.fmod(tm * lg, two_pi)
            if r < 0:
                r += two_pi
            out[i] = float(r)
    return out


def _heights(rng):
    out = []
    with mp.workprec(1200):
        for _ in range(6):
            # mpf heights of both signs past FLOAT_SAFE_T, up to 2^160
            out.append(mp.mpf(2) ** rng.uniform(20.0, 160.0) * rng.choice([1, -1])
                       * (1 + mp.mpf(rng.random())) + rng.random())
        for k in (21, 64, 113):
            out.append(rng.getrandbits(k) | (1 << (k - 1)))  # integers up to 2^113
        # past float range after the product with 2*pi: the big-int path
        out.append(mp.mpf(2) ** 1000 * (1 + mp.mpf(rng.random()) / 3))
        out.append(-(mp.mpf(2) ** 999 + mp.mpf(rng.random())))
    return out


def test_phases_for_ints_are_the_nearest_floats():
    rng = random.Random(18)
    ps = primes_up_to(200_000)
    ns = np.concatenate([[1, 4, 6, 1000], ps[:40], ps[40::211], ps[-3:]])
    for t in _heights(rng):
        assert abs(t) > FLOAT_SAFE_T
        for bits in (needed_bits(t), needed_bits(t) + 256):
            got = phases_for_ints(t, ns, bits=bits)
            assert got.dtype == np.float64
            assert np.all((0 <= got) & (got < TWO_PI))
            np.testing.assert_array_equal(got, _nearest_phases(t, ns, bits))


def test_phases_for_ints_match_the_mpmath_loop_at_locate_heights():
    # heights as the approx -> locate benchmark draws them: the five heaviest
    # primes of the Hurwitz pair mod 3, accuracy 0.02, reduced on the 669
    # primes up to the locate cutoff 5000
    rng = np.random.default_rng([7, 303])
    ps = primes_up_to(5000)
    assert len(ps) == 669
    logs = {}
    for _ in range(6):
        phases = {p: float(rng.uniform(0.0, TWO_PI)) for p in (2, 5, 7, 11, 13)}
        t = simultaneous_approx(phases, 0.02).t
        assert abs(t) > FLOAT_SAFE_T
        bits = max(256, needed_bits(t))
        np.testing.assert_array_equal(phases_for_ints(t, ps, bits=bits),
                                      _reference_phases(t, ps, bits, logs))


@pytest.mark.parametrize("t", [0.0, 12.5, -3.0e5, FLOAT_SAFE_T])
def test_phases_for_ints_reduce_in_float_up_to_float_safe_t(t):
    ns = np.array([2, 3, 5, 7919])
    np.testing.assert_array_equal(phases_for_ints(t, ns),
                                  np.mod(t * np.log(ns.astype(np.float64)), TWO_PI))


def test_height_text_keeps_every_bit_of_the_height():
    # a 96-bit height from the lattice polish, as the toy pipeline's approx
    # stage returns it: its text names that height, not its 53-bit rounding
    with mp.workprec(256):
        t = mp.mpf((59431180268052237827064970601, -63))
    text = mpf_to_text(t)
    assert text == "59431180268052237827064970601*2^-63"
    again = mpf_from_text(text)
    assert again._mpf_ == t._mpf_
    assert mpf_to_text(mp.mpf(-0.375)) == "-3*2^-3"
    assert mpf_from_text("-3*2^-3") == -0.375
    for bad in ("3*2^", "1.5*2^3", "3"):
        with pytest.raises(ParseError, match="bad height m"):
            mpf_from_text(bad)
