"""Simultaneous Diophantine approximation of phase targets.

Finds a single real t with t*log(p) close to a prescribed phase mod 2*pi for
every prime in a finite set: brute candidate scans for up to three primes,
integer lattice reduction (LLL plus a nearest-plane decode and a continuum
polish) beyond that.  Every returned t is re-verified in extended precision.

One lattice builder serves both :func:`simultaneous_approx` and
:func:`almost_periods`: :func:`_approximation_lattice` builds and reduces the
lattice for one step of the weight sweep, and :func:`_polished_height` turns
an integer height into a polished t with its verified phase error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath as mp
import numpy as np

from .errors import ApproxFailure, DomainError, NonConvergence
from .precision import circle_distances, needed_bits, phases_for_ints

TWO_PI = 2.0 * math.pi


# --- integer LLL with a float Gram-Schmidt mirror ----------------------------


def _gram_schmidt(F: np.ndarray):
    n = F.shape[0]
    Q = np.zeros_like(F)
    mu = np.eye(n)
    for i in range(n):
        v = F[i].copy()
        for j in range(i):
            denom = float(np.dot(Q[j], Q[j]))
            mu[i, j] = float(np.dot(F[i], Q[j])) / denom if denom > 0 else 0.0
            v = v - mu[i, j] * Q[j]
        Q[i] = v
    return Q, mu


# lll_reduce raises NonConvergence after this many loop steps times n^2
LLL_OPS_PER_DIM_SQUARED = 20000


def lll_reduce(rows: Sequence[Sequence[int]], delta: float = 0.99) -> list[list[int]]:
    """LLL reduction of integer basis rows (exact integer row operations)."""
    b = [[int(x) for x in row] for row in rows]
    n = len(b)
    if n <= 1:
        return b
    F = np.array(b, dtype=np.float64)
    Q, mu = _gram_schmidt(F)
    k = 1
    ops = 0
    max_ops = LLL_OPS_PER_DIM_SQUARED * n * n
    while k < n:
        ops += 1
        if ops > max_ops:
            raise NonConvergence(
                f"LLL did not finish a {n}-dimensional basis in {max_ops} ops")
        for j in range(k - 1, -1, -1):
            q = int(round(mu[k, j]))
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                F[k] = np.array(b[k], dtype=np.float64)
                Q, mu = _gram_schmidt(F)
        lhs = float(np.dot(Q[k], Q[k]))
        rhs = (delta - mu[k, k - 1] ** 2) * float(np.dot(Q[k - 1], Q[k - 1]))
        if lhs >= rhs:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            F = np.array(b, dtype=np.float64)
            Q, mu = _gram_schmidt(F)
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
    F = np.array([[float(x) for x in r] for r in rows], dtype=np.float64)
    Q, _ = _gram_schmidt(F)
    w = [int(x) for x in target]
    coeffs = [0] * n
    for i in range(n - 1, -1, -1):
        denom = float(np.dot(Q[i], Q[i]))
        wf = np.array([float(x) for x in w])
        c = int(round(float(np.dot(wf, Q[i])) / denom)) if denom > 0 else 0
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
            targets: np.ndarray, halfwidth: float) -> float:
    """Continuum refinement of the offset around an integer candidate.

    ``base_phases`` are t0*log(p) mod 2*pi; the polish shifts t by tau within
    the window and minimizes the worst circle distance.
    """
    taus = np.linspace(-halfwidth, halfwidth, 4001)
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


T_MAX_BRUTE = 1.0e6  # height range of the brute scan for 2 or 3 primes
WEIGHT_SWEEP = 16  # lattice sweep steps; step k allows |q| < 2^(8 + 7k)


def _brute_candidates(primes: np.ndarray, targets: np.ndarray) -> tuple[float, float]:
    """Best t on candidate heights where the first prime is exactly on target."""
    logs = np.log(primes.astype(np.float64))
    base = targets[0] / logs[0]
    step = TWO_PI / logs[0]
    kmax = max(int((T_MAX_BRUTE - base) / step), 1)
    best_t, best_err = base, math.inf
    chunk = 1 << 18
    for start in range(0, kmax + 1, chunk):
        ks = np.arange(start, min(start + chunk, kmax + 1), dtype=np.float64)
        ts = base + step * ks
        ph = ts[:, None] * logs[None, 1:]
        d = circle_distances(np.mod(ph, TWO_PI), targets[None, 1:])
        worst = d.max(axis=1) if d.shape[1] else np.zeros(len(ts))
        i = int(np.argmin(worst))
        if worst[i] < best_err:
            best_err, best_t = float(worst[i]), float(ts[i])
    # the optimum near best_t may sit off the exact-first-prime comb
    tau = _polish(best_t, logs, np.mod(best_t * logs, TWO_PI), targets,
                  halfwidth=0.6 * step)
    t2 = best_t + tau
    err2 = float(np.max(circle_distances(np.mod(t2 * logs, TWO_PI), targets)))
    return (t2, err2) if err2 < best_err else (best_t, best_err)


def simultaneous_approx(phases: dict, accuracy: float) -> ApproximationResult:
    """Single t with t*log(p) within ``accuracy`` of each target phase mod 2*pi.

    One prime solves exactly; two or three scan brute candidates; larger sets
    build the simultaneous-approximation lattice (one generator row carrying
    the scaled logarithms, one 2*pi row per prime) and sweep the generator
    weight until the nearest-plane decode plus continuum polish meets the
    accuracy.  Raises ``ApproxFailure`` with the best error achieved.
    """
    if not (0 < accuracy < math.pi):
        raise DomainError("accuracy must lie in (0, pi)")
    if not phases:
        raise DomainError("need at least one prime")
    primes = np.array(sorted(phases), dtype=np.int64)
    targets = np.array([math.fmod(phases[int(p)], TWO_PI) % TWO_PI
                        for p in primes], dtype=np.float64)
    n = len(primes)

    if n <= 3:
        if n == 1:
            t = targets[0] / math.log(float(primes[0]))
        else:
            t, _ = _brute_candidates(primes, targets)
        bits = needed_bits(t)
        err = float(np.max(exact_phase_errors(t, primes, targets, bits)))
        if err > accuracy:
            raise ApproxFailure(
                f"brute scan best error {err:.4f} above accuracy {accuracy}",
                best_error=err, best_t=mp.mpf(t))
        return ApproximationResult(mp.mpf(t), err, "brute", tuple(map(int, primes)),
                                   tuple(map(float, targets)), bits)

    # lattice route
    best_err, best_t, best_bits = math.inf, mp.mpf(0), needed_bits(1)
    logs = np.log(primes.astype(np.float64))
    for q in _lattice_generator_candidates(primes, targets, accuracy):
        bits = needed_bits(q)
        t_cand, err = _polished_height(q, primes, logs, targets, bits)
        if err < best_err:
            best_err, best_t, best_bits = err, t_cand, bits
        if best_err <= accuracy:
            return ApproximationResult(best_t, best_err, "lattice",
                                       tuple(map(int, primes)),
                                       tuple(map(float, targets)), best_bits)
    raise ApproxFailure(
        f"lattice sweep best error {best_err:.4f} above accuracy {accuracy}",
        best_error=best_err, best_t=best_t)


def _approximation_lattice(primes: np.ndarray, accuracy: float, k: int):
    """Step k of the weight sweep: the scale S, the generator weight, the
    basis rows (one generator row of round(log(p) * S), one 2*pi*S row per
    prime) and their LLL reduction.

    The generator budget |q| < 2^(8 + 7k) sets S = 2^16 * budget, so the
    rounding of log(p) never eats the phase accuracy.
    """
    n = len(primes)
    q_budget = 1 << (8 + 7 * k)
    S = q_budget << 16
    with mp.workprec(S.bit_length() + 16):
        two_pi_s = int(mp.nint(2 * mp.pi * S))
        log_s = [int(mp.nint(mp.log(int(p)) * S)) for p in primes]
    w_scaled = max(int(accuracy * S / (4 * q_budget)), 1)
    rows = [log_s + [w_scaled]]
    for i in range(n):
        rows.append([two_pi_s if j == i else 0 for j in range(n)] + [0])
    return S, w_scaled, rows, lll_reduce(rows)


def _polished_height(q: int, primes: np.ndarray, logs: np.ndarray,
                     targets: np.ndarray, bits: int):
    """Integer height q plus its continuum polish, and that height's worst
    phase error re-verified at ``bits`` of precision."""
    base = phases_for_ints(q, primes, bits=bits)
    tau = _polish(float(q), logs, base, targets, halfwidth=0.5)
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
    for k in range(WEIGHT_SWEEP):
        S, w_scaled, rows, red = _approximation_lattice(primes, accuracy, k)

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

        # embedding decode: append the target as a basis row with a small
        # weight; a reduced vector using it once is target minus lattice point
        emb = max(int(accuracy * S / 2), 1)
        rows_e = [r + [0] for r in rows]
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


def almost_periods(t_star, P: int, accuracy: float, count: int = 3,
                   bits: Optional[int] = None) -> list:
    """Strictly positive shifts tau with tau*log(p) near 0 mod 2*pi for p <= P.

    Uses the homogeneous version of the approximation lattice: short reduced
    vectors with a nonzero generator coordinate give candidate shifts, and
    integer multiples extend the list.  tau = 0 qualifies trivially and is
    excluded.  Every returned value is verified in extended precision.
    """
    from .primes import primes_up_to

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
    for k in range(24):
        _, w_scaled, _, red = _approximation_lattice(primes, accuracy, k)
        qs = {abs(int(row[-1])) // w_scaled for row in red} - {0}
        for q in sorted(qs):
            for mult in range(1, max(2, count + 2)):
                qq = q * mult
                if qq in found:
                    continue
                b = max(bits or 0, needed_bits(max(qq, t_star_abs + qq)))
                # qq >= 1 and the polish moves it by at most 1/2, so tau > 0
                tau, err = _polished_height(qq, primes, logs, targets, b)
                if err <= accuracy:
                    found[qq] = (tau, err)
        if len(found) >= count:
            break
    if len(found) < count:
        best = min((v[1] for v in found.values()), default=math.inf)
        raise ApproxFailure(
            f"found {len(found)} of {count} shifts at accuracy {accuracy} "
            f"(best error {best:.4f})", best_error=best)
    taus = sorted((v[0] for v in found.values()))[:count]
    return taus
