"""Prime sieve with a shared cache, prime indexing, and rigorous tail bounds."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# Grow-only cache: _primes holds all primes <= _limit.
_primes: np.ndarray = np.array([], dtype=np.int64)
_limit: int = 1
# Grow-only, filled on demand: _logs[i] is log of the prime _primes[i].
_logs: np.ndarray = np.array([], dtype=np.float64)


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (plain Eratosthenes)."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def primes_up_to(limit: int) -> np.ndarray:
    """Cached prime list; reuses and extends a module-level sieve."""
    global _primes, _limit
    limit = int(limit)
    if limit > _limit:
        # oversize a little so repeated nearby requests hit the cache
        new_limit = max(limit, 1 << 16)
        _primes = sieve_primes(new_limit)
        _limit = new_limit
    cut = np.searchsorted(_primes, limit, side="right")
    return _primes[:cut]


def prime_indices(ps: np.ndarray) -> np.ndarray:
    """Vectorized 1-based prime indices for an array of primes."""
    if len(ps) == 0:
        return np.array([], dtype=np.int64)
    table = primes_up_to(int(np.max(ps)))
    idx = np.searchsorted(table, ps)
    # a non-prime above the largest prime in the table lands one past its end
    hit = idx < len(table)
    hit[hit] = table[idx[hit]] == ps[hit]
    if not np.all(hit):
        raise DomainError(f"{int(ps[~hit][0])} is not prime")
    return idx + 1


def log_primes(ps: np.ndarray) -> np.ndarray:
    """log p at an array of primes, read from a table filled on first use up
    to the largest prime asked for.

    The table holds math.log, not np.log: the vectorized log differs in the
    last bit at a few primes, which would move every steered shift and every
    anchored value built on it.
    """
    global _logs
    idx = prime_indices(ps) - 1
    top = int(np.max(idx)) + 1 if len(idx) else 0
    if top > len(_logs):
        fresh = _primes[len(_logs):top].tolist()
        _logs = np.concatenate([_logs, [math.log(p) for p in fresh]])
    return _logs[idx]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {p: e}, primes ascending."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_tail_bound(P: float, sigma: float) -> float:
    """Rigorous upper bound for sum_{p > P} p^(-sigma).

    For P >= 17 uses P^(1-sigma)/((sigma-1) log P) + P^(-sigma); below that
    falls back to the integer comparison integral P^(1-sigma)/(sigma-1).
    """
    if sigma <= 1:
        raise DomainError("prime tail bound requires sigma > 1")
    P = float(P)
    if P < 2:
        P = 2.0
    if P >= 17:
        return P ** (1 - sigma) / ((sigma - 1) * math.log(P)) + P ** (-sigma)
    return P ** (1 - sigma) / (sigma - 1)
