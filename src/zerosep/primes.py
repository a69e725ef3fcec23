"""Prime sieve with a shared cache, prime indexing, and rigorous tail bounds."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ParseError

_TABLE_VERSION = 1

# Grow-only cache: _primes holds all primes <= _limit.
_primes: np.ndarray = np.array([], dtype=np.int64)
_limit: int = 1


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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n <= _limit:
        ps = primes_up_to(n)
        return len(ps) > 0 and int(ps[-1]) == n
    r = int(n ** 0.5)
    f = 2
    while f <= r:
        if n % f == 0:
            return False
        f += 1
    return True


def prime_index(p: int) -> int:
    """1-based position of p in the increasing sequence of primes."""
    ps = primes_up_to(max(int(p), 2))
    i = int(np.searchsorted(ps, p))
    if i >= len(ps) or int(ps[i]) != p:
        raise DomainError(f"{p} is not prime")
    return i + 1


def prime_indices(ps: np.ndarray) -> np.ndarray:
    """Vectorized 1-based prime indices for an array of primes."""
    if len(ps) == 0:
        return np.array([], dtype=np.int64)
    table = primes_up_to(int(np.max(ps)))
    idx = np.searchsorted(table, ps)
    if np.any(table[idx] != ps):
        bad = ps[table[idx] != ps][0]
        raise DomainError(f"{int(bad)} is not prime")
    return idx + 1


def nth_prime(k: int) -> int:
    """The k-th prime, 1-based."""
    if k < 1:
        raise DomainError("prime index must be >= 1")
    # p_k < k (ln k + ln ln k) for k >= 6
    bound = 15 if k < 6 else int(k * (math.log(k) + math.log(math.log(k)))) + 10
    ps = primes_up_to(bound)
    while len(ps) < k:
        bound *= 2
        ps = primes_up_to(bound)
    return int(ps[k - 1])


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


def save_prime_table(path: str, limit: int) -> None:
    """Write the prime table up to ``limit`` with a versioned header."""
    ps = primes_up_to(limit)
    with open(path, "w") as fh:
        fh.write(f"# zerosep-primes v{_TABLE_VERSION} limit={int(limit)} count={len(ps)}\n")
        for p in ps:
            fh.write(f"{int(p)}\n")


def load_prime_table(path: str) -> np.ndarray:
    """Read a prime table written by :func:`save_prime_table`."""
    with open(path) as fh:
        header = fh.readline().strip()
        parts = header.split()
        if (len(parts) != 5 or parts[0] != "#" or parts[1] != "zerosep-primes"
                or not parts[2].startswith("v")):
            raise ParseError(f"bad prime table header: {header!r}")
        if parts[2] != f"v{_TABLE_VERSION}":
            raise ParseError(f"unsupported prime table version {parts[2]}")
        count = int(parts[4].split("=")[1])
        data = np.loadtxt(fh, dtype=np.int64, ndmin=1)
    if len(data) != count:
        raise ParseError(f"prime table truncated: header count {count}, got {len(data)}")
    return data


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
