"""Euler products and their Dirichlet series, evaluated with rigorous truncation bounds.

Specs describe one multiplicative object through its local log coefficients
b(p^k); everything else (Dirichlet coefficients, partial products, tail
budgets) is derived from that data plus the declared growth constants.

This module holds the per-spec half of the evaluation kernel shared by every
evaluator: the support filter (:meth:`EulerProductSpec.support_mask`), the
local logs (:func:`local_logs`) and the conversion of a truncated log sum
into a value with its truncation bound (:func:`truncated_exp`).  Phases come
from :func:`zerosep.precision.phases_for_ints`; the monomial combine lives in
:func:`zerosep.combalg.combine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    params: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class EulerProductSpec:
    """One member of the working class of Euler products.

    ``log_coeffs(p, k)`` returns b(p^k); ``a_p(p)`` is the prime Dirichlet
    coefficient (equal to b(p)).  ``K_F`` bounds |a(p)| on all primes, and
    the growth pair (coeff_scale, coeff_base) = (C, B) encodes the declared
    envelope |b(p^k)| <= C * B^k / k used by every tail bound.

    ``linear_factor`` marks local factors of the shape (1 - a(p) p^-s)^(-1),
    which are evaluated in closed form with no depth truncation.

    Identity is by ``key``, the spec's kind plus its parameters, which every
    constructor below sets; ``label`` is only a display name.  A spec built
    without a key equals only itself.
    """

    label: str
    kind: str  # dirichlet_L | riemann_zeta | sparse_Z | custom
    a_p: Callable[[int], complex]
    log_coeffs: Callable[[int, int], complex]
    K_F: float
    depth_default: int = 30
    coeff_scale: float = 1.0
    coeff_base: float = 1.0
    linear_factor: bool = False
    a_vec: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support: Optional[frozenset] = None
    key: Optional[tuple] = None

    def a_values(self, ps: np.ndarray) -> np.ndarray:
        """Vectorized a(p) over an array of primes."""
        if self.a_vec is not None:
            return np.asarray(self.a_vec(ps), dtype=np.complex128)
        return np.array([self.a_p(int(p)) for p in ps], dtype=np.complex128)

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


def default_depth(sigma: float) -> int:
    """Local-factor depth making the depth tail negligible next to the prime tail."""
    return min(200, max(30, math.ceil(2.0 / (sigma - 1.0)))) if sigma > 1 else 200


def zeta_spec() -> EulerProductSpec:
    """The Euler product with every local factor (1 - p^-s)^(-1)."""
    return EulerProductSpec(
        label="zeta",
        kind="riemann_zeta",
        a_p=lambda p: 1.0 + 0.0j,
        log_coeffs=lambda p, k: 1.0 / k,
        K_F=1.0,
        linear_factor=True,
        a_vec=lambda ps: np.ones(len(ps), dtype=np.complex128),
        key=("riemann_zeta",),
    )


def lfunction_spec(chi: Character) -> EulerProductSpec:
    """Euler product attached to a Dirichlet character: b(p^k) = chi(p)^k / k."""
    return EulerProductSpec(
        label=chi.label,
        kind="dirichlet_L",
        a_p=lambda p: chi.value(p),
        log_coeffs=lambda p, k: chi.value(p) ** k / k,
        K_F=1.0,
        linear_factor=True,
        a_vec=lambda ps: chi.values(ps),
        key=("dirichlet_L", chi.modulus, chi.exponents),
    )


def sparse_zeta_spec() -> EulerProductSpec:
    """Euler product over every second prime: local factor at p_2, p_4, p_6, ..."""
    def a_one(p: int) -> complex:
        from .primes import prime_index
        return 1.0 + 0.0j if prime_index(p) % 2 == 0 else 0.0j

    def a_vec(ps: np.ndarray) -> np.ndarray:
        idx = prime_indices(np.asarray(ps, dtype=np.int64))
        return np.where(idx % 2 == 0, 1.0, 0.0).astype(np.complex128)

    return EulerProductSpec(
        label="sparse_Z",
        kind="sparse_Z",
        a_p=a_one,
        log_coeffs=lambda p, k: a_one(p) ** k / k,
        K_F=1.0,
        linear_factor=True,
        a_vec=a_vec,
        key=("sparse_Z",),
    )


def finite_euler_spec(label: str, ap: dict[int, complex]) -> EulerProductSpec:
    """Euler product supported on finitely many primes, factors (1 - a_p p^-s)^(-1)."""
    table = {int(p): complex(v) for p, v in ap.items()}
    kmax = max(abs(v) for v in table.values()) if table else 0.0

    def a_one(p: int) -> complex:
        return table.get(int(p), 0.0 + 0.0j)

    def a_vec(ps: np.ndarray) -> np.ndarray:
        return np.array([table.get(int(p), 0.0) for p in ps], dtype=np.complex128)

    return EulerProductSpec(
        label=label,
        kind="custom",
        a_p=a_one,
        log_coeffs=lambda p, k: a_one(p) ** k / k,
        K_F=max(kmax, 1e-30),
        coeff_base=max(kmax, 1e-30),
        linear_factor=True,
        a_vec=a_vec,
        support=frozenset(table),
        key=("finite_euler", tuple(sorted(table.items()))),
    )


def _check_sigma(s: complex) -> float:
    sigma = s.real if isinstance(s, complex) else float(s)
    if sigma <= 1.0:
        raise DomainError(f"evaluation requires Re(s) > 1, got {sigma}")
    return sigma


def _depth(F: EulerProductSpec, sigma: float, K: Optional[int]) -> int:
    return K if K is not None else max(F.depth_default, default_depth(sigma))


def log_tail_bound(F: EulerProductSpec, P: float, sigma: float) -> float:
    """Bound for the log-domain truncation |sum over p > P of the local logs|.

    Splits into the k = 1 terms, bounded through K_F, and the k >= 2 terms,
    bounded through the (C, B) envelope.  Identically zero for finite-support
    specs once P covers the support.
    """
    if F.support is not None and (not F.support or max(F.support) <= P):
        return 0.0
    C, B = F.coeff_scale, F.coeff_base
    t1 = F.K_F * prime_tail_bound(P, sigma)
    x_edge = B * float(P + 1) ** (-sigma)
    if x_edge >= 1.0:
        raise DomainError("coefficient base too large for a rigorous tail at this sigma")
    t2 = C * B * B / (2.0 * (1.0 - x_edge)) * prime_tail_bound(P, 2.0 * sigma)
    return t1 + t2


def depth_tail_bound(F: EulerProductSpec, ps: np.ndarray, sigma: float, K: int) -> float:
    """Bound for dropping local-log terms of order k > K on the listed primes."""
    if len(ps) == 0 or F.linear_factor:
        return 0.0
    C, B = F.coeff_scale, F.coeff_base
    x = B * ps.astype(np.float64) ** (-sigma)
    if np.any(x >= 1.0):
        raise DomainError("coefficient base too large for a rigorous depth tail")
    return float(C * np.sum(x ** (K + 1) / ((K + 1) * (1.0 - x))))


def local_logs(F: EulerProductSpec, ps: np.ndarray, sigma: float,
               thetas: np.ndarray, K: Optional[int] = None) -> np.ndarray:
    """log of each local factor at sigma with per-prime phase theta_p = t_p log p."""
    pf = ps.astype(np.float64)
    if F.linear_factor:
        x = F.a_values(ps) * pf ** (-sigma) * np.exp(-1j * thetas)
        return -np.log1p(-x)
    K = _depth(F, sigma, K)
    out = np.zeros(len(ps), dtype=np.complex128)
    for k in range(1, K + 1):
        b = np.array([F.log_coeffs(int(p), k) for p in ps], dtype=np.complex128)
        out += b * pf ** (-k * sigma) * np.exp(-1j * k * thetas)
    return out


def local_log_derivs(F: EulerProductSpec, ps: np.ndarray, sigma: float,
                     thetas: np.ndarray, K: Optional[int] = None) -> np.ndarray:
    """d/d theta of the local log at each prime (for phase optimization)."""
    pf = ps.astype(np.float64)
    if F.linear_factor:
        x = F.a_values(ps) * pf ** (-sigma) * np.exp(-1j * thetas)
        return -1j * x / (1.0 - x)
    K = _depth(F, sigma, K)
    out = np.zeros(len(ps), dtype=np.complex128)
    for k in range(1, K + 1):
        b = np.array([F.log_coeffs(int(p), k) for p in ps], dtype=np.complex128)
        out += -1j * k * b * pf ** (-k * sigma) * np.exp(-1j * k * thetas)
    return out


def truncated_exp(F: EulerProductSpec, ps: np.ndarray, logs: np.ndarray,
                  sigma: float, P: int, K: Optional[int] = None) -> EvalResult:
    """exp of the summed local logs over ``ps``, the spec's primes up to P,
    with a value-domain bound for what the truncation dropped.

    The log-domain truncation (prime tail plus, for non-closed-form factors,
    the depth tail) is converted through |exp(w) - exp(w')| <=
    |exp(w')| (exp|w - w'| - 1); a log-domain bound of 700 or more gives an
    infinite bound instead of overflowing.
    """
    e_log = log_tail_bound(F, P, sigma)
    if not F.linear_factor:
        e_log += depth_tail_bound(F, ps, sigma, _depth(F, sigma, K))
    value = complex(np.exp(complex(np.sum(logs))))
    bound = abs(value) * math.expm1(e_log) if e_log < 700 else math.inf
    return EvalResult(value, bound)


def eval_partial_euler(F: EulerProductSpec, s: complex, P: int,
                       K: Optional[int] = None) -> EvalResult:
    """exp of the truncated local-log sum over p <= P, with a value-domain bound."""
    s = complex(s)
    sigma = _check_sigma(s)
    if P < 2:
        raise DomainError("prime cutoff must be at least 2")
    if F.K_F * 2.0 ** (-sigma) >= 1.0:
        raise DomainError("prime coefficient bound reaches the local-factor radius")
    ps = primes_up_to(P)
    ps = ps[F.support_mask(ps)]
    t = s.imag
    logs = local_logs(F, ps, sigma, phases_for_ints(t, ps), K)
    res = truncated_exp(F, ps, logs, sigma, P, K)
    return EvalResult(res.value, res.abs_error_bound,
                      {"sigma": sigma, "t": t, "P": int(P),
                       "K": K if K is not None else "closed-form"})


def dirichlet_coefficients(F: EulerProductSpec, N: int) -> np.ndarray:
    """a(n) for n <= N, built multiplicatively from the local log data.

    Prime-power values come from exponentiating the truncated local log
    series; composite values from multiplicativity via a smallest-prime-factor
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
    for p in primes_up_to(N):
        p = int(p)
        emax = int(math.floor(math.log(N) / math.log(p) + 1e-12))
        if F.linear_factor:
            ap = F.a_p(p)
            vals = np.array([ap ** k for k in range(emax + 1)], dtype=np.complex128)
        else:
            b = [0.0] + [F.log_coeffs(p, k) for k in range(1, emax + 1)]
            vals = np.zeros(emax + 1, dtype=np.complex128)
            vals[0] = 1.0
            for k in range(1, emax + 1):
                acc = 0.0 + 0.0j
                for j in range(1, k + 1):
                    acc += j * b[j] * vals[k - j]
                vals[k] = acc / k
        pow_table[p] = vals
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

    With the declared envelope, |a(p^k)| <= (k+1)^(C-1) B^k <= p^(k theta)
    where theta = log2(B) + (C - 1), so |a(n)| <= n^theta and the tail is at
    most N^(1 + theta - sigma) / (sigma - theta - 1).
    """
    C, B = F.coeff_scale, max(F.coeff_base, F.K_F)
    theta = max(math.log2(B) if B > 1 else 0.0, 0.0) + max(C - 1.0, 0.0)
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
    return EvalResult(value, dirichlet_tail_bound(F, N, sigma),
                      {"sigma": sigma, "t": t, "N": int(N)})


@dataclass(frozen=True)
class OrthogonalityEstimate:
    """Normalized prime correlation sum of two specs with its checkpoint trace."""

    pair: tuple[str, str]
    cutoff_x: float
    m_hat: complex
    trace: list  # (x, partial m_hat at x)


def estimate_orthogonality(F: EulerProductSpec, G: EulerProductSpec,
                           x: float) -> OrthogonalityEstimate:
    """m_hat = [sum_{p <= x} a_F(p) conj(a_G(p)) / p] / log log x, with trace."""
    if x < 100:
        raise DomainError("orthogonality estimation needs x >= 100")
    ps = primes_up_to(int(x))
    w = (F.a_values(ps) * np.conj(G.a_values(ps))) / ps.astype(np.float64)
    cum = np.cumsum(w)
    n_checks = 12
    checkpoints = sorted({int(round(100.0 * (x / 100.0) ** (j / n_checks)))
                          for j in range(1, n_checks + 1)})
    trace = []
    for cx in checkpoints:
        i = int(np.searchsorted(ps, cx, side="right"))
        if i == 0:
            continue
        trace.append((cx, complex(cum[i - 1]) / math.log(math.log(cx))))
    m_hat = complex(cum[-1]) / math.log(math.log(x))
    return OrthogonalityEstimate((F.label, G.label), float(x), m_hat, trace)


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
    """Scan |a(p)| against K_F and track sum_p sum_{k>=2} |b(p^k)|/p^k checkpoints."""
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
    if F.linear_factor:
        absa = av
        for k in range(2, depth + 1):
            contrib += (absa ** k / k) * pf ** (-float(k))
    else:
        for k in range(2, depth + 1):
            b = np.array([abs(F.log_coeffs(int(p), k)) for p in ps])
            contrib += b * pf ** (-float(k))
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
