"""Euler products and their Dirichlet series, evaluated with rigorous truncation bounds.

Every spec has the closed-form local factor (1 - a(p) p^-s)^(-1), so it is
described by its prime coefficients a(p) alone: the local logs are
b(p^k) = a(p)^k / k and the Dirichlet coefficients are a(p^k) = a(p)^k.
Partial products and tail budgets are derived from a(p) and the bound K_F on
|a(p)|.

This module holds the per-spec half of the evaluation kernel shared by every
evaluator: the support filter (:meth:`EulerProductSpec.support_mask`), the
local logs (:func:`local_logs`) and the conversion of a truncated log sum
into a value with its truncation bound (:func:`truncated_exp`).  Phases come
from :func:`zerosep.precision.phases_for_ints`; the monomial combine lives in
:func:`zerosep.combalg.combine`.  The auxiliary rewrite in
:mod:`zerosep.combalg` enters the kernel at :func:`local_logs`; its head
products are finite, so it skips :func:`truncated_exp`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .characters import Character
from .errors import DomainError, ValidationFailure
from .precision import FLOAT_SAFE_T, phases_for_ints
from .primes import prime_indices, prime_tail_bound, primes_up_to

_COEFF_CACHE: dict[tuple, tuple[int, np.ndarray]] = {}


@dataclass(frozen=True)
class EvalResult:
    """A complex value plus a rigorous bound on its truncation error."""

    value: complex
    abs_error_bound: float

    def __complex__(self) -> complex:
        return complex(self.value)


@dataclass(frozen=True, eq=False)
class EulerProductSpec:
    """One member of the working class of Euler products.

    The local factor at p is (1 - a(p) p^-s)^(-1), evaluated in closed form:
    its log has coefficients b(p^k) = a(p)^k / k, and the Dirichlet
    coefficients are a(p^k) = a(p)^k.  ``a_vec`` maps an array of primes to
    a(p); ``K_F`` bounds |a(p)| on all primes, which makes
    |b(p^k)| <= K_F^k / k the envelope behind every tail bound.

    Identity is by ``key``, the spec's kind plus its parameters, which every
    constructor below sets; ``label`` is only a display name.  A spec built
    without a key equals only itself.
    """

    label: str
    a_vec: Callable[[np.ndarray], np.ndarray]
    K_F: float
    support: Optional[frozenset] = None
    key: Optional[tuple] = None

    def a_values(self, ps: np.ndarray) -> np.ndarray:
        """Vectorized a(p) over an array of primes."""
        return np.asarray(self.a_vec(ps), dtype=np.complex128)

    def support_mask(self, ps: np.ndarray):
        """Index into ``ps`` selecting the primes that carry a local factor."""
        if self.support is None:
            return slice(None)
        return np.isin(ps, np.array(sorted(self.support), dtype=np.int64))

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, EulerProductSpec) and self.key is not None
                and self.key == other.key)

    def __hash__(self):
        return hash(self.key) if self.key is not None else object.__hash__(self)


def zeta_spec() -> EulerProductSpec:
    """The Euler product with every local factor (1 - p^-s)^(-1)."""
    return EulerProductSpec(
        label="zeta",
        a_vec=lambda ps: np.ones(len(ps), dtype=np.complex128),
        K_F=1.0,
        key=("riemann_zeta",),
    )


def lfunction_spec(chi: Character) -> EulerProductSpec:
    """Euler product attached to a Dirichlet character: a(p) = chi(p)."""
    return EulerProductSpec(
        label=chi.label,
        a_vec=lambda ps: chi.values(ps),
        K_F=1.0,
        key=("dirichlet_L", chi.modulus, chi.exponents),
    )


def sparse_zeta_spec() -> EulerProductSpec:
    """Euler product over every second prime: local factor at p_2, p_4, p_6, ..."""
    def a_vec(ps: np.ndarray) -> np.ndarray:
        idx = prime_indices(np.asarray(ps, dtype=np.int64))
        return np.where(idx % 2 == 0, 1.0, 0.0).astype(np.complex128)

    return EulerProductSpec(
        label="sparse_Z",
        a_vec=a_vec,
        K_F=1.0,
        key=("sparse_Z",),
    )


def finite_euler_spec(label: str, ap: dict[int, complex]) -> EulerProductSpec:
    """Euler product supported on finitely many primes, factors (1 - a_p p^-s)^(-1)."""
    table = {int(p): complex(v) for p, v in ap.items()}
    kmax = max(abs(v) for v in table.values()) if table else 0.0

    def a_vec(ps: np.ndarray) -> np.ndarray:
        return np.array([table.get(int(p), 0.0) for p in ps], dtype=np.complex128)

    return EulerProductSpec(
        label=label,
        a_vec=a_vec,
        K_F=max(kmax, 1e-30),
        support=frozenset(table),
        key=("finite_euler", tuple(sorted(table.items()))),
    )


def _check_sigma(s: complex) -> float:
    sigma = s.real if isinstance(s, complex) else float(s)
    if sigma <= 1.0:
        raise DomainError(f"evaluation requires Re(s) > 1, got {sigma}")
    return sigma


def log_tail_bound(F: EulerProductSpec, P: float, sigma: float) -> float:
    """Bound for the log-domain truncation |sum over p > P of the local logs|.

    Splits into the k = 1 terms and the k >= 2 terms, both bounded through
    the envelope |b(p^k)| <= K_F^k / k.  Identically zero for finite-support
    specs once P covers the support.
    """
    if F.support is not None and (not F.support or max(F.support) <= P):
        return 0.0
    t1 = F.K_F * prime_tail_bound(P, sigma)
    x_edge = F.K_F * float(P + 1) ** (-sigma)
    if x_edge >= 1.0:
        raise DomainError("coefficient bound K_F too large for a rigorous tail at this sigma")
    t2 = F.K_F * F.K_F / (2.0 * (1.0 - x_edge)) * prime_tail_bound(P, 2.0 * sigma)
    return t1 + t2


def local_logs(F: EulerProductSpec, ps: np.ndarray, sigma: float,
               thetas: np.ndarray) -> np.ndarray:
    """log of each local factor at sigma with per-prime phase theta_p = t_p log p."""
    x = F.a_values(ps) * ps.astype(np.float64) ** (-sigma) * np.exp(-1j * thetas)
    return -np.log1p(-x)


def check_local_radius(F: EulerProductSpec, sigma: float) -> None:
    """Refuse a spec whose coefficient bound reaches the radius of the local
    factor at p = 2 on Re(s) = sigma, where the local logs no longer converge."""
    if F.K_F * 2.0 ** (-sigma) >= 1.0:
        raise DomainError(f"spec {F.label}: prime coefficient bound K_F = {F.K_F:.6g} "
                          f"reaches the local-factor radius at sigma = {sigma:.6g} "
                          f"(K_F * 2^-sigma = {F.K_F * 2.0 ** (-sigma):.4g} >= 1)")


def truncated_exp(F: EulerProductSpec, logs: np.ndarray, sigma: float,
                  P: int) -> EvalResult:
    """exp of the summed local logs of the spec's primes up to P, with a
    value-domain bound for the primes beyond P.

    The log-domain prime tail is converted through |exp(w) - exp(w')| <=
    |exp(w')| (exp|w - w'| - 1); a log-domain bound of 700 or more gives an
    infinite bound instead of overflowing.  Refuses a spec past
    :func:`check_local_radius`.
    """
    check_local_radius(F, sigma)
    e_log = log_tail_bound(F, P, sigma)
    value = complex(np.exp(complex(np.sum(logs))))
    bound = abs(value) * math.expm1(e_log) if e_log < 700 else math.inf
    return EvalResult(value, bound)


def eval_partial_euler(F: EulerProductSpec, s: complex, P: int) -> EvalResult:
    """exp of the truncated local-log sum over p <= P, with a value-domain bound."""
    s = complex(s)
    sigma = _check_sigma(s)
    if P < 2:
        raise DomainError("prime cutoff must be at least 2")
    ps = primes_up_to(P)
    ps = ps[F.support_mask(ps)]
    logs = local_logs(F, ps, sigma, phases_for_ints(s.imag, ps))
    return truncated_exp(F, logs, sigma, P)


def dirichlet_coefficients(F: EulerProductSpec, N: int) -> np.ndarray:
    """a(n) for n <= N, built multiplicatively from a(p^k) = a(p)^k.

    Composite values come from multiplicativity via a smallest-prime-factor
    sieve.  Cached per spec key; specs without a key are not cached.
    """
    N = int(N)
    hit = _COEFF_CACHE.get(F.key)
    if hit is not None and hit[0] >= N:
        return hit[1][: N + 1]
    spf = np.zeros(N + 1, dtype=np.int64)
    for p in primes_up_to(N):
        seg = spf[p::p]
        seg[seg == 0] = p
        spf[p::p] = seg
    a = np.zeros(N + 1, dtype=np.complex128)
    if N >= 1:
        a[1] = 1.0
    pow_table: dict[int, np.ndarray] = {}
    ps = primes_up_to(N)
    for p, ap in zip(ps.tolist(), F.a_values(ps).tolist()):
        emax = int(math.floor(math.log(N) / math.log(p) + 1e-12))
        pow_table[p] = np.array([ap ** k for k in range(emax + 1)], dtype=np.complex128)
    for n in range(2, N + 1):
        p = int(spf[n])
        m, e = n, 0
        while m % p == 0:
            m //= p
            e += 1
        a[n] = a[m] * pow_table[p][e]
    if F.key is not None:
        _COEFF_CACHE[F.key] = (N, a)
    return a


def dirichlet_tail_bound(F: EulerProductSpec, N: int, sigma: float) -> float:
    """Bound for |sum over n > N of a(n) n^-s| on Re(s) = sigma.

    |a(p^k)| <= K_F^k <= p^(k theta) with theta = max(log2(K_F), 0), so
    |a(n)| <= n^theta and the tail is at most
    N^(1 + theta - sigma) / (sigma - theta - 1).
    """
    theta = math.log2(F.K_F) if F.K_F > 1 else 0.0
    if sigma - theta <= 1.0:
        raise DomainError("sigma too small for a rigorous coefficient tail")
    return float(N) ** (1.0 + theta - sigma) / (sigma - theta - 1.0)


def eval_dirichlet_sum(F: EulerProductSpec, s: complex, N: int) -> EvalResult:
    """Direct partial sum of a(n) n^-s for n <= N with its coefficient tail bound."""
    s = complex(s)
    sigma = _check_sigma(s)
    if N < 1:
        raise DomainError("cutoff must be at least 1")
    a = dirichlet_coefficients(F, N)
    n = np.arange(1, N + 1, dtype=np.float64)
    t = s.imag
    if abs(t) <= FLOAT_SAFE_T:
        terms = a[1:] * np.exp(-s * np.log(n))
    else:
        nz = np.flatnonzero(np.abs(a[1:])) + 1
        phases = phases_for_ints(t, nz)
        terms = a[nz] * nz.astype(np.float64) ** (-sigma) * np.exp(-1j * phases)
    value = complex(np.sum(terms))
    return EvalResult(value, dirichlet_tail_bound(F, N, sigma))


@dataclass(frozen=True)
class AxiomReport:
    """Scan results for the declared coefficient bound and higher-power sum."""

    label: str
    prime_limit: int
    depth: int
    max_ap: float
    argmax_prime: int
    prime_bound: float
    prime_bound_ok: bool
    first_violation_prime: Optional[int]
    higher_sum_checkpoints: list  # (X, partial sum)
    higher_sum_ok: bool

    @property
    def passed(self) -> bool:
        return self.prime_bound_ok and self.higher_sum_ok

    def raise_if_failed(self) -> None:
        if not self.prime_bound_ok:
            raise ValidationFailure(
                f"prime coefficient bound violated for {self.label}: "
                f"|a({self.first_violation_prime})| exceeds {self.prime_bound}",
                prop="prime-coefficient-bound", prime=self.first_violation_prime)
        if not self.higher_sum_ok:
            raise ValidationFailure(
                f"higher prime-power sum for {self.label} is not stabilizing "
                f"below {self.prime_limit}", prop="higher-power-sum")


def validate_axioms(F: EulerProductSpec, prime_limit: int = 100_000,
                    depth: int = 12) -> AxiomReport:
    """Scan |a(p)| against K_F and track sum_p sum_{2<=k<=depth} |b(p^k)|/p^k
    at checkpoints."""
    if prime_limit < 2:
        raise DomainError("prime limit must be at least 2")
    ps = primes_up_to(prime_limit)
    av = np.abs(F.a_values(ps))
    imax = int(np.argmax(av))
    tol = 1e-9 * max(F.K_F, 1.0)
    viol = np.flatnonzero(av > F.K_F + tol)
    first_viol = int(ps[viol[0]]) if len(viol) else None

    # higher-power partial sums at geometric checkpoints
    n_checks = 8
    checkpoints = sorted({int(round(2 * (prime_limit / 2) ** (j / n_checks)))
                          for j in range(1, n_checks + 1)})
    contrib = np.zeros(len(ps), dtype=np.float64)
    pf = ps.astype(np.float64)
    for k in range(2, depth + 1):
        contrib += (av ** k / k) * pf ** (-float(k))
    cum = np.cumsum(contrib)
    sums = []
    for cx in checkpoints:
        i = int(np.searchsorted(ps, cx, side="right"))
        sums.append((cx, float(cum[i - 1]) if i else 0.0))
    gains = [sums[0][1]] + [sums[i][1] - sums[i - 1][1] for i in range(1, len(sums))]
    half = len(gains) // 2
    first_half, second_half = sum(gains[:half]), sum(gains[half:])
    higher_ok = second_half <= max(0.5 * first_half, 1e-9)

    return AxiomReport(
        label=F.label, prime_limit=int(prime_limit), depth=int(depth),
        max_ap=float(av[imax]) if len(av) else 0.0,
        argmax_prime=int(ps[imax]) if len(ps) else 0,
        prime_bound=F.K_F,
        prime_bound_ok=first_viol is None,
        first_violation_prime=first_viol,
        higher_sum_checkpoints=sums,
        higher_sum_ok=higher_ok,
    )
