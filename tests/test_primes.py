import math

import numpy as np
import pytest

from zerosep import primes
from zerosep.errors import DomainError
from zerosep.primes import (log_primes, prime_indices, prime_tail_bound,
                            primes_up_to, sieve_primes)


def test_sieve_small():
    assert sieve_primes(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert sieve_primes(1).tolist() == []


def test_cached_consistency():
    assert primes_up_to(100).tolist() == sieve_primes(100).tolist()
    assert primes_up_to(10).tolist() == [2, 3, 5, 7]


def test_prime_index():
    idx = prime_indices(np.array([2, 7, 13]))
    assert idx.tolist() == [1, 4, 6]
    # 15 lies past the largest prime of the table up to 15
    with pytest.raises(DomainError):
        prime_indices(np.array([15]))
    with pytest.raises(DomainError):
        prime_indices(np.array([2, 9, 13]))


def test_log_primes_is_math_log_before_and_after_the_sieve_grows(monkeypatch):
    # empty caches, so the second request re-sieves past the first's limit
    monkeypatch.setattr(primes, "_primes", np.array([], dtype=np.int64))
    monkeypatch.setattr(primes, "_limit", 1)
    monkeypatch.setattr(primes, "_logs", np.array([], dtype=np.float64))
    for limit in (100, 200_000):
        ps = primes_up_to(limit)
        assert log_primes(ps).tolist() == [math.log(p) for p in ps.tolist()]
        # unordered subsets read the same table
        sub = ps[::-7]
        assert log_primes(sub).tolist() == [math.log(p) for p in sub.tolist()]
    assert primes._limit >= 200_000


def test_log_primes_empty_and_non_prime():
    out = log_primes(np.array([], dtype=np.int64))
    assert out.dtype == np.float64 and out.shape == (0,)
    with pytest.raises(DomainError, match="9 is not prime"):
        log_primes(np.array([2, 9, 13]))


@pytest.mark.parametrize("P,sigma", [(17, 1.1), (17, 2.0), (100, 1.5),
                                     (1000, 1.05), (10000, 2.0), (5, 1.5)])
def test_tail_bound_dominates_partial_tails(P, sigma):
    # necessary condition: the bound covers the tail actually observed
    # through 10^6 (the part beyond is positive, so this can only understate)
    ps = primes_up_to(1_000_000)
    seen = float(np.sum(ps[ps > P].astype(float) ** (-sigma)))
    assert prime_tail_bound(P, sigma) >= seen


def test_tail_bound_monotone_in_P():
    vals = [prime_tail_bound(P, 1.5) for P in (20, 100, 1000, 10_000)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        prime_tail_bound(100, 1.0)
