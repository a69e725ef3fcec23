"""Simultaneous Diophantine approximation of phase targets.

Finds a single real t with t*log(p) close to a prescribed phase mod 2*pi for
every prime in a finite set: the closed form theta/log(p) for one prime,
integer lattice reduction (LLL plus a nearest-plane decode and a continuum
polish) for two or more.  Every returned t is re-verified in extended
precision.

One lattice builder serves both :func:`simultaneous_approx` and
:func:`almost_periods`: :func:`_approximation_lattice` is the weight sweep.
Step 0 reduces the raw lattice; each later step rebuilds the previous step's
reduced rows at its own scale from their exact integer coordinates and
reduces those, a basis of the new lattice that is nearly reduced already.
The embedding decode of :func:`simultaneous_approx` appends the target to
that step's reduced basis (Kannan, Math. Oper. Res. 12, 1987).
:func:`_polished_height` turns an integer height into a polished t with its
verified phase error.

Most decoded heights cannot pass.  Before the grid polish and the
extended-precision check, :func:`_window_admits` decides exactly whether any
offset in the polish window [-1/2, 1/2] brings every phase within the
accuracy, by intersecting per-prime interval lists; a height it rejects is
never polished.  :func:`almost_periods` polishes each sweep step's heights in
ascending order and stops the step once ``count`` shifts are found and the
next height exceeds the ``count``-th smallest: the polish moves a height by at
most 1/2, so the shifts keep the order of their heights.

LLL does exact integer row operations and decides from a float64
Gram-Schmidt kept lazily, one row at a time (Schnorr-Euchner, Math.
Programming 66, 1994): with the loop at row k, Gram-Schmidt rows 0..k-1 match
the basis and row k is recomputed when needed.  The nearest-plane decode uses
the same row routine, :func:`_gs_row`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath as mp
import numpy as np
from mpmath.libmp import isprime

from .errors import ApproxFailure, DomainError, NonConvergence
from .precision import circle_distances, needed_bits, phases_for_ints
from .primes import primes_up_to

TWO_PI = 2.0 * math.pi


# --- integer LLL with a lazily kept float Gram-Schmidt ------------------------
#
# The basis rows b are exact integers and F holds their float64 images.  The
# Gram-Schmidt data is plain lists kept one row at a time: row i (mu[i][:i],
# the orthogonal row Q[i] and its squared norm B[i]) depends only on F[0..i],
# and each mu[i][j] only on F[i], Q[j] and B[j].  lll_reduce keeps rows
# 0..k-1 in step with F[0..k-1] and recomputes row k when the loop arrives at
# k.  Size reduction that changes b[k] recomputes only the next mu[k][j] it
# reads, and row k once after the last step.  A swap at k sends the loop back
# to k-1, which it recomputes on arrival; only a swap at k = 1, where the loop
# stays, recomputes row 0 at once.  At the dimensions used here (6-17) a numpy
# call per row operation costs more than its arithmetic.


def _dot(x: Sequence[float], y: Sequence[float]) -> float:
    """Dot product with the sum of the rounded products correctly rounded, so
    the value does not depend on the Python version (``sum`` of floats
    changed its algorithm in 3.12) or on a BLAS kernel."""
    return math.fsum(map(operator.mul, x, y))


def _gs_row(F: list, Q: list, mu: list, B: list, i: int) -> None:
    """Recompute Gram-Schmidt row i in place from F[i] and rows 0..i-1."""
    v = F[i]
    for j in range(i):
        m = _dot(F[i], Q[j]) / B[j] if B[j] > 0 else 0.0
        mu[i][j] = m
        v = [x - m * y for x, y in zip(v, Q[j])]
    Q[i] = v
    B[i] = _dot(v, v)


# lll_reduce raises NonConvergence after this many loop steps times n^2
LLL_OPS_PER_DIM_SQUARED = 20000
LLL_DELTA = 0.99  # Lovasz condition parameter of lll_reduce


def lll_reduce(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """LLL reduction of integer basis rows (exact integer row operations)."""
    b = [[int(x) for x in row] for row in rows]
    n = len(b)
    if n <= 1:
        return b
    F = [[float(x) for x in row] for row in b]
    Q, mu, B = [[]] * n, [[0.0] * n for _ in range(n)], [0.0] * n
    _gs_row(F, Q, mu, B, 0)
    k = 1
    ops = 0
    max_ops = LLL_OPS_PER_DIM_SQUARED * n * n
    while k < n:
        ops += 1
        if ops > max_ops:
            raise NonConvergence(
                f"LLL did not finish a {n}-dimensional basis in {max_ops} ops")
        _gs_row(F, Q, mu, B, k)
        reduced = False
        for j in range(k - 1, -1, -1):
            if reduced:  # mu[k][j] reads only F[k], Q[j] and B[j]
                mu[k][j] = _dot(F[k], Q[j]) / B[j] if B[j] > 0 else 0.0
            q = int(round(mu[k][j]))
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                F[k] = [float(x) for x in b[k]]
                reduced = True
        if reduced:
            _gs_row(F, Q, mu, B, k)
        if B[k] >= (LLL_DELTA - mu[k][k - 1] ** 2) * B[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            F[k], F[k - 1] = F[k - 1], F[k]
            if k == 1:
                _gs_row(F, Q, mu, B, 0)
            k = max(k - 1, 1)
    return b


def babai_nearest_plane(rows: Sequence[Sequence[int]],
                        target: Sequence[int]) -> list[int]:
    """Coefficients of a lattice vector near the target (nearest-plane decode).

    The residual is tracked in exact integers so huge coefficients cannot
    wash out the small coordinates; only the Gram-Schmidt projections are
    floating point.
    """
    n = len(rows)
    F = [[float(x) for x in r] for r in rows]
    Q, mu, B = [[]] * n, [[0.0] * n for _ in range(n)], [0.0] * n
    for i in range(n):
        _gs_row(F, Q, mu, B, i)
    w = [int(x) for x in target]
    coeffs = [0] * n
    for i in range(n - 1, -1, -1):
        wf = [float(x) for x in w]
        c = int(round(_dot(wf, Q[i]) / B[i])) if B[i] > 0 else 0
        coeffs[i] = c
        if c != 0:
            w = [x - c * y for x, y in zip(w, rows[i])]
    return coeffs


# --- phase error evaluation ---------------------------------------------------


def exact_phase_errors(t, primes: Sequence[int], phases: Sequence[float],
                       bits: Optional[int] = None) -> np.ndarray:
    """Circle distances between t*log(p) and each target, extended precision."""
    reduced = phases_for_ints(t, list(primes), bits=bits)
    return circle_distances(reduced, np.asarray(phases, dtype=np.float64))


def _polish(t0: float, logs: np.ndarray, base_phases: np.ndarray,
            targets: np.ndarray) -> float:
    """Continuum refinement of the offset around an integer candidate.

    ``base_phases`` are t0*log(p) mod 2*pi; the polish shifts t by tau within
    the window [-1/2, 1/2] and minimizes the worst circle distance.
    """
    taus = np.linspace(-0.5, 0.5, 4001)
    ph = base_phases[None, :] + taus[:, None] * logs[None, :]
    d = circle_distances(np.mod(ph, TWO_PI), targets[None, :])
    worst = d.max(axis=1)
    i = int(np.argmin(worst))
    lo, hi = max(0, i - 2), min(len(taus) - 1, i + 2)
    fine = np.linspace(taus[lo], taus[hi], 2001)
    ph = base_phases[None, :] + fine[:, None] * logs[None, :]
    d = circle_distances(np.mod(ph, TWO_PI), targets[None, :])
    j = int(np.argmin(d.max(axis=1)))
    return float(fine[j])


# Slack of the window test in radians.  The test reads float64 base phases
# and logs; the verified error it stands in for is taken at t = q + tau.  Up
# to |t| = FLOAT_SAFE_T (1e6) both reduce a float64 product with the same
# float log(p), so the two phases differ from base + tau*log(p) by the
# rounding of q*log(p), of float(q + tau) and of float(q + tau)*log(p): at
# most 3 * 2^-53 * (1e6 + 1) * log(p) < 3.4e-10 * log(p), under 1.5e-8 for
# any int64 prime (log p < 44).  Past 1e6 the phases are reduced in extended
# precision and the float error is tau * log(p) * 2^-53 plus a few ulps of
# 2*pi, under 1e-14.  The interval ends add a few ulps of 2*pi more.
WINDOW_SLACK = 1e-7


def _window_admits(base: np.ndarray, logs: np.ndarray, targets: np.ndarray,
                   level: float) -> bool:
    """Whether some tau in [-1/2, 1/2] brings every phase base + tau*log(p)
    within ``level`` + WINDOW_SLACK of its target mod 2*pi.

    For one prime those tau are the intervals (c + 2*pi*m -/+ r) / log(p),
    c = target - base, over the at most ceil(log(p) / 2*pi) + 1 integers m
    whose interval meets the window.  The test intersects the interval lists
    of all primes exactly; nothing is sampled.
    """
    r = level + WINDOW_SLACK
    if r >= math.pi:
        return True
    window = [(-0.5, 0.5)]
    for b, L, target in zip(base.tolist(), logs.tolist(), targets.tolist()):
        c = target - b
        m_lo = math.ceil((-0.5 * L - r - c) / TWO_PI)
        m_hi = math.floor((0.5 * L + r - c) / TWO_PI)
        allowed = [((c + TWO_PI * m - r) / L, (c + TWO_PI * m + r) / L)
                   for m in range(m_lo, m_hi + 1)]
        window = [(max(a0, b0), min(a1, b1)) for a0, a1 in window
                  for b0, b1 in allowed if max(a0, b0) <= min(a1, b1)]
        if not window:
            return False
    return True


@dataclass(frozen=True)
class ApproximationResult:
    """A single shift t with its verified worst phase error."""

    t: mp.mpf
    max_phase_error: float
    method: str
    primes: tuple[int, ...]
    phases: tuple[float, ...]
    precision_bits: int

    def recompute_error(self, extra_bits: int = 64) -> float:
        bits = self.precision_bits + extra_bits
        return float(np.max(exact_phase_errors(self.t, self.primes, self.phases,
                                               bits=bits)))


WEIGHT_SWEEP = 16  # lattice sweep steps; step k allows |q| < 2^(8 + 7k)
SWEEP_BITS = 8 + 7 * (WEIGHT_SWEEP - 1)  # log2 of the largest height the sweep tries
PERIOD_SWEEP = 24  # the same sweep in almost_periods


def simultaneous_approx(phases: dict, accuracy: float) -> ApproximationResult:
    """Single t with t*log(p) within ``accuracy`` of each target phase mod 2*pi.

    One prime solves exactly, t = theta/log(p).  Two or more build the
    simultaneous-approximation lattice (one generator row carrying the scaled
    logarithms, one 2*pi row per prime) and sweep the generator weight until
    the nearest-plane decode plus continuum polish meets the accuracy.
    Raises ``DomainError`` naming a key that is not a prime, and
    ``ApproxFailure`` with the best error achieved.  A height meeting n
    phases to within the accuracy needs about n log2(pi / accuracy) bits, so
    two or more primes demanding more than the sweep's ``SWEEP_BITS`` are
    refused before any lattice is built.
    """
    if not (0 < accuracy < math.pi):
        raise DomainError("accuracy must lie in (0, pi)")
    if not phases:
        raise DomainError("need at least one prime")
    for p in phases:
        if int(p) != p or not isprime(int(p)):
            raise DomainError(f"phase key {p} is not a prime")
    primes = np.array(sorted(phases), dtype=np.int64)
    targets = np.array([math.fmod(phases[int(p)], TWO_PI) % TWO_PI
                        for p in primes], dtype=np.float64)

    if len(primes) == 1:
        t = targets[0] / math.log(float(primes[0]))
        bits = needed_bits(t)
        err = float(np.max(exact_phase_errors(t, primes, targets, bits)))
        if err > accuracy:
            raise ApproxFailure(
                f"exact solution error {err:.4g} above accuracy {accuracy}",
                best_error=err, best_t=mp.mpf(t))
        return ApproximationResult(mp.mpf(t), err, "exact", tuple(map(int, primes)),
                                   tuple(map(float, targets)), bits)

    demand = len(primes) * math.log2(math.pi / accuracy)
    if demand > SWEEP_BITS:
        raise ApproxFailure(
            f"{len(primes)} primes at accuracy {accuracy} need a height of about "
            f"{demand:.1f} bits, beyond the {SWEEP_BITS} bits the lattice sweep reaches")
    best_err, best_t = None, None
    tried = rejected = 0
    logs = np.log(primes.astype(np.float64))
    for q in _lattice_generator_candidates(primes, targets, accuracy):
        bits = needed_bits(q)
        tried += 1
        polished = _polished_height(q, primes, logs, targets, bits, accuracy)
        if polished is None:
            rejected += 1
            continue
        t_cand, err = polished
        if err <= accuracy:
            return ApproximationResult(t_cand, err, "lattice",
                                       tuple(map(int, primes)),
                                       tuple(map(float, targets)), bits)
        if best_err is None or err < best_err:
            best_err, best_t = err, t_cand
    outcome = ("polished no height at" if best_err is None
               else f"best error {best_err:.4g} above")
    raise ApproxFailure(
        f"lattice sweep {outcome} accuracy {accuracy} ({tried} heights tried, "
        f"{rejected} rejected by the window test)",
        best_error=best_err, best_t=best_t)


def _approximation_lattice(primes: np.ndarray, accuracy: float, steps: int):
    """The weight sweep: yields, for k = 0 .. steps - 1, step k's scale S,
    generator weight w and LLL-reduced basis, each step reduced from the
    previous step's basis.

    Step k's lattice has the generator row g = (round(log(p) * S), w) and one
    row T e_i, T = round(2*pi*S), per prime.  The generator budget
    |q| < 2^(8 + 7k) sets S = 2^16 * budget, so the rounding of log(p) never
    eats the phase accuracy.  Every basis row is c*g + sum m_i T e_i for
    integers (c, m), read back exactly from a reduced row as c = row[-1] / w
    and m_i = (row[i] - c*L_i) / T.  Step 0 reduces the raw rows, whose
    (c, m) are the identity; each later step rebuilds the previous reduced
    rows from their (c, m) at its own S, L_i, T and w.  The (c, m) matrix
    stays unimodular, so those rows are a basis of the new lattice, and one
    that is nearly reduced already: the new lattice is the old one with its
    prime columns scaled by about 2^7.
    """
    n = len(primes)
    coords = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    for k in range(steps):
        q_budget = 1 << (8 + 7 * k)
        S = q_budget << 16
        with mp.workprec(S.bit_length() + 16):
            T = int(mp.nint(2 * mp.pi * S))
            L = [int(mp.nint(mp.log(int(p)) * S)) for p in primes]
        w = max(int(accuracy * S / (4 * q_budget)), 1)
        red = lll_reduce([[c * x + m * T for x, m in zip(L, ms)] + [c * w]
                          for c, *ms in coords])
        yield S, w, red
        coords = []
        for row in red:
            c = row[-1] // w
            coords.append([c] + [(x - c * y) // T for x, y in zip(row, L)])


def _polished_height(q: int, primes: np.ndarray, logs: np.ndarray,
                     targets: np.ndarray, bits: int, accuracy: float):
    """Integer height q plus its continuum polish, and that height's worst
    phase error re-verified at ``bits`` of precision; None when the window
    test shows that no polish can bring the error within ``accuracy``."""
    base = phases_for_ints(q, primes, bits=bits)
    if not _window_admits(base, logs, targets, accuracy):
        return None
    tau = _polish(float(q), logs, base, targets)
    with mp.workprec(bits):
        t = mp.mpf(q) + mp.mpf(tau)
    return t, float(np.max(exact_phase_errors(t, primes, targets, bits)))


def _lattice_generator_candidates(primes: np.ndarray, targets: np.ndarray,
                                  accuracy: float):
    """Integer generator multiples q decoded from the approximation lattice.

    Sweeps a growing budget for |q| (see :func:`_approximation_lattice`).
    Yields nearest-plane and embedding decodes plus small perturbations of
    the nearest-plane coefficients.
    """
    n = len(primes)
    seen: set[int] = set()
    for S, w_scaled, red in _approximation_lattice(primes, accuracy,
                                                   WEIGHT_SWEEP):
        def q_of(coeffs) -> int:
            v_last = sum(c * r[-1] for c, r in zip(coeffs, red))
            return v_last // w_scaled

        target_int = [int(round(ph * S)) for ph in targets] + [0]
        coeffs = babai_nearest_plane(red, target_int)
        cands = [q_of(coeffs)]
        for lvl in range(len(red) - 1, max(len(red) - 4, -1), -1):
            for dd in (-1, 1):
                pert = list(coeffs)
                pert[lvl] += dd
                cands.append(q_of(pert))

        # embedding decode: append the target as a row with a small weight
        # to the reduced basis; a reduced vector using it once is the target
        # minus a lattice point
        emb = max(int(accuracy * S / 2), 1)
        rows_e = [r + [0] for r in red]
        rows_e.append(target_int[:n] + [0, emb])
        red_e = lll_reduce(rows_e)
        for row in red_e:
            if abs(row[-1]) == emb:
                sign = 1 if row[-1] > 0 else -1
                cands.append(-sign * (row[-2] // w_scaled))
        for q in cands:
            if q != 0 and q not in seen:
                seen.add(q)
                yield q


def almost_periods(t_star, P: int, accuracy: float, count: int = 3) -> list:
    """Strictly positive shifts tau with tau*log(p) near 0 mod 2*pi for p <= P.

    Uses the homogeneous version of the approximation lattice: short reduced
    vectors with a nonzero generator coordinate give candidate shifts, and
    integer multiples extend the list.  tau = 0 qualifies trivially and is
    excluded.  Every returned value is verified in extended precision.
    """
    if not (0 < accuracy < math.pi):
        raise DomainError("accuracy must lie in (0, pi)")
    if count < 1:
        raise DomainError("count must be >= 1")
    primes = primes_up_to(P)
    if len(primes) == 0:
        raise DomainError("no primes below the cutoff")
    targets = np.zeros(len(primes))
    logs = np.log(primes.astype(np.float64))
    t_star_abs = abs(float(mp.mpf(t_star)))

    found: dict = {}
    tried: set = set()
    rejected = 0
    best_miss = None  # smallest error of a polished height above the accuracy
    for _, w_scaled, red in _approximation_lattice(primes, accuracy,
                                                   PERIOD_SWEEP):
        qs = {abs(int(row[-1])) // w_scaled for row in red} - {0}
        heights = {q * mult for q in qs for mult in range(1, max(2, count + 2))}
        for qq in sorted(heights - tried):
            # a larger height gives a larger tau than the count found below it
            if len(found) >= count and qq > sorted(found)[count - 1]:
                break
            tried.add(qq)
            b = needed_bits(max(qq, t_star_abs + qq))
            # qq >= 1 and the polish moves it by at most 1/2, so tau > 0
            polished = _polished_height(qq, primes, logs, targets, b, accuracy)
            if polished is None:
                rejected += 1
            elif polished[1] <= accuracy:
                found[qq] = polished
            elif best_miss is None or polished[1] < best_miss:
                best_miss = polished[1]
        if len(found) >= count:
            break
    if len(found) < count:
        outcome = ("no polished height above it" if best_miss is None
                   else f"best error above it {best_miss:.4g}")
        raise ApproxFailure(
            f"found {len(found)} of {count} shifts at accuracy {accuracy}, "
            f"{outcome} ({len(tried)} heights tried, {rejected} rejected by "
            f"the window test)", best_error=best_miss)
    taus = sorted((v[0] for v in found.values()))[:count]
    return taus
