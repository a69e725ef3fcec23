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

The kernel's disk form is :func:`local_log_model`: a Taylor model of one
spec's summed local logs on a disk around a centre, whose constant term is
the :func:`local_logs` sum there, with an explicit bound for the Taylor
remainder and the float rounding.  :func:`truncated_exp` takes that bound
into the same log-domain budget as the prime tail.
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


def _local_variables(F: EulerProductSpec, ps: np.ndarray, sigma: float,
                     thetas: np.ndarray) -> np.ndarray:
    """x_p = a(p) p^-sigma e^(-i theta_p), the argument of each local factor."""
    return F.a_values(ps) * ps.astype(np.float64) ** (-sigma) * np.exp(-1j * thetas)


def local_logs(F: EulerProductSpec, ps: np.ndarray, sigma: float,
               thetas: np.ndarray) -> np.ndarray:
    """log of each local factor at sigma with per-prime phase theta_p = t_p log p."""
    return -np.log1p(-_local_variables(F, ps, sigma, thetas))


def check_local_radius(F: EulerProductSpec, sigma: float) -> None:
    """Refuse a spec whose coefficient bound reaches the radius of the local
    factor at p = 2 on Re(s) = sigma, where the local logs no longer converge."""
    if F.K_F * 2.0 ** (-sigma) >= 1.0:
        raise DomainError(f"spec {F.label}: prime coefficient bound K_F = {F.K_F:.6g} "
                          f"reaches the local-factor radius at sigma = {sigma:.6g} "
                          f"(K_F * 2^-sigma = {F.K_F * 2.0 ** (-sigma):.4g} >= 1)")


def truncated_exp(F: EulerProductSpec, log_sum: complex, sigma: float,
                  P: int, model_bound: float) -> EvalResult:
    """exp of the spec's summed local logs up to P, with a value-domain bound
    for the primes beyond P and for ``model_bound``, a log-domain error of
    ``log_sum`` itself (0 for a direct sum, the bound of a
    :class:`LocalLogModel` for a model value).

    Both log-domain bounds are converted together through |exp(w) - exp(w')|
    <= |exp(w')| (exp|w - w'| - 1); a log-domain bound of 700 or more gives
    an infinite bound instead of overflowing.  Refuses a spec past
    :func:`check_local_radius`.
    """
    check_local_radius(F, sigma)
    e_log = log_tail_bound(F, P, sigma) + model_bound
    value = complex(np.exp(log_sum))
    bound = abs(value) * math.expm1(e_log) if e_log < 700 else math.inf
    return EvalResult(value, bound)


EPS = 2.0 ** -53  # unit roundoff of float64
MODEL_MAX_ORDER = 64  # local_log_model refuses a disk that needs more terms


def _gamma(n: int) -> float:
    """n u / (1 - n u): the relative error bound of n float operations."""
    return n * EPS / (1.0 - n * EPS)


def _li_neg_table(n_max: int) -> np.ndarray:
    """Row n holds the coefficients of u, u^2, ..., u^(n+1) in Li_{-n}(x),
    u = x / (1 - x); entry k is k! S(n+1, k+1).

    From Li_{-n-1} = x d/dx Li_{-n} = u (1 + u) d/du Li_{-n}."""
    rows = [[1]]
    for _ in range(n_max):
        prev = rows[-1] + [0]
        rows.append([(k + 1) * prev[k] + k * prev[k - 1] for k in range(len(prev))])
    table = np.zeros((n_max + 1, n_max + 1))
    for n, row in enumerate(rows):
        table[n, :len(row)] = [float(c) for c in row]
    return table


_LI_NEG = _li_neg_table(MODEL_MAX_ORDER + 1)
_FACTORIALS = np.array([float(math.factorial(m)) for m in range(1, MODEL_MAX_ORDER + 3)])
# row K: the coefficients of Li_{-K} over (K+1)!, for the remainder R_K
_R_TABLE = _LI_NEG / _FACTORIALS[:, None]
# row m - 1: the coefficients of Li_{1-m} times (-1)^m / m!, for c_m
_C_TABLE = _R_TABLE * np.where(np.arange(MODEL_MAX_ORDER + 2) % 2, 1.0, -1.0)[:, None]


@dataclass(frozen=True)
class LocalLogModel:
    """Taylor model of one spec's summed local logs on a disk |w| <= radius
    around a centre: ``coeffs[m]`` is c_m radius^m, and every value differs
    from the exact sum by at most ``bound``."""

    coeffs: tuple
    radius: float
    bound: float

    def value(self, w: complex) -> complex:
        """The summed local logs at offset w from the centre, by Horner's
        rule in w / radius; exactly c_0 at w = 0."""
        if abs(w) > self.radius:
            raise DomainError(f"point at distance {abs(w):.6g} from the centre lies "
                              f"outside the model's disk of radius {self.radius:.6g}")
        z = w / self.radius
        acc = 0j
        for d in reversed(self.coeffs):
            acc = acc * z + d
        return acc


def local_log_model(F: EulerProductSpec, ps: np.ndarray, sigma: float,
                    thetas: np.ndarray, lam: np.ndarray, radius: float,
                    phase_error: float) -> LocalLogModel:
    """Taylor model in w of L(w) = sum_p -log(1 - x_p e^(-w lam_p)) on |w| <=
    radius, where x_p is the local variable at (sigma, thetas) and lam_p =
    log p: the spec's summed local logs at s + w for the centre s.

    - c_0 is the sum of :func:`local_logs`, so the value at the centre is a
      direct evaluation bit for bit.
    - c_m = ((-1)^m / m!) sum_p lam_p^m Li_{1-m}(x_p), with Li_{-n}(x) =
      sum_k k! S(n+1, k+1) u^(k+1) and u = x / (1 - x).
    - The order K is the smallest whose Taylor remainder
      sum_p ((radius lam_p)^(K+1) / (K+1)!) Li_{-K}(|x_p| p^radius) is at
      most the rounding error of c_0.
    - ``bound`` adds to that remainder explicit bounds on the rounding of
      c_0 (the numpy log1p is taken to within 4u (1 + |log|) absolute), of
      the other coefficient sums and of Horner's rule, on the phase error
      ``phase_error`` of the thetas, and on lam_p standing for log p along
      sigma.

    Refuses a disk that reaches the local-factor radius (by
    :func:`check_local_radius` at sigma - radius, or at any prime of ps) and
    one that needs more than ``MODEL_MAX_ORDER`` terms.
    """
    if not radius > 0:
        raise DomainError(f"model radius must be positive, got {radius}")
    check_local_radius(F, sigma - radius)
    x = _local_variables(F, ps, sigma, thetas)
    logs = -np.log1p(-x)  # the expression local_logs returns
    c0 = complex(np.sum(logs))  # as truncated_exp's callers sum them
    n = len(ps)
    rl = radius * lam
    # |x_p| p^radius, the largest local variable on the disk, rounded up
    y = np.abs(x)
    y *= np.exp(rl)
    y *= 1.0 + 16.0 * EPS
    if n and y.max() >= 1.0:
        raise DomainError(f"spec {F.label}: the disk of radius {radius:.6g} around "
                          f"sigma = {sigma:.6g} reaches the local-factor radius")
    v = y / (1.0 - y)  # Li_0(y): bounds |Li_0| and |u| on the disk
    u = x / (1.0 - x)
    au = np.abs(u)
    alogs = np.abs(logs)
    # relative error of each x_p: the phases, then pow, exp and two products
    eps_x = phase_error + 8.0 * EPS
    round0 = float(eps_x * au.sum() + 4.0 * EPS * n
                   + (4.0 * EPS + _gamma(n)) * alogs.sum())
    K, rems, powers = _model_order(rl, v, round0)
    coeffs = [c0]
    round_m = 0.0
    if K:
        up = np.empty((K, n), dtype=np.complex128)  # row k: u^(k+1)
        up[0] = u
        for k in range(1, K):
            np.multiply(up[k - 1], u, out=up[k])
        # row m - 1: (-1)^m / m! times the coefficients of Li_{1-m} in u
        coeffs += ((powers[:K] @ up.T) * _C_TABLE[:K, :K]).sum(axis=1).tolist()
        # rounding of c_m: the relative error of u_p raised to the power
        # k + 1, then the powers, the products and the sums over p and k;
        # the moduli of the terms sum to at most rems[m - 1], since |u_p| <= v_p
        eta = float(1.0 + au.max()) * eps_x + 6.0 * EPS
        gam = _gamma(n + 6 * K + 10)
        round_m = sum((m * eta + gam) * r for m, r in enumerate(rems[:K].tolist(), 1))
    horner = _gamma(8 * (K + 1)) * sum(abs(c) for c in coeffs)
    # lam_p standing for log p along sigma, and the rounding of w / radius
    shift = 3.0 * EPS * float(rl.dot(v))
    bound = float(rems[K]) + round0 + round_m + horner + shift
    return LocalLogModel(tuple(coeffs), float(radius), bound)


def _model_order(rl: np.ndarray, v: np.ndarray, tol: float):
    """Smallest K with remainder R_K = sum_p (rl_p^(K+1) / (K+1)!)
    Li_{-K}(y_p) at most ``tol``, where v_p = y_p / (1 - y_p).

    Returns K, the sums R_0..R_K and the rows rl^m, m = 1..K+1."""
    rows = 8
    powers = np.empty((rows, len(rl)))  # row m - 1: rl^m
    vp = np.empty((rows, len(rl)))  # row k: v^(k+1)
    powers[0], vp[0] = rl, v
    rems = np.empty(MODEL_MAX_ORDER + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for K in range(MODEL_MAX_ORDER + 1):
            if K == rows:
                rows = MODEL_MAX_ORDER + 1
                powers = np.concatenate([powers, np.empty((rows - K, len(rl)))])
                vp = np.concatenate([vp, np.empty((rows - K, len(rl)))])
            if K:
                np.multiply(powers[K - 1], rl, out=powers[K])
                np.multiply(vp[K - 1], v, out=vp[K])
            rems[K] = (vp[:K + 1] @ powers[K]).dot(_R_TABLE[K, :K + 1])
            if rems[K] <= tol:
                return K, rems, powers
    raise DomainError(f"no Taylor model of order <= {MODEL_MAX_ORDER} reaches the "
                      f"rounding error {tol:.3g} on this disk")


def eval_partial_euler(F: EulerProductSpec, s: complex, P: int) -> EvalResult:
    """exp of the truncated local-log sum over p <= P, with a value-domain bound."""
    s = complex(s)
    sigma = _check_sigma(s)
    if P < 2:
        raise DomainError("prime cutoff must be at least 2")
    ps = primes_up_to(P)
    ps = ps[F.support_mask(ps)]
    logs = local_logs(F, ps, sigma, phases_for_ints(s.imag, ps))
    return truncated_exp(F, complex(np.sum(logs)), sigma, P, 0.0)


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
