"""Per-prime phase steering: choose vertical shifts t_p so the tail Euler
products over y < p <= P land on prescribed annulus targets, and track a
witness zero as sigma moves off the boundary line."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (CertificateFailure, DomainError, DriftTooLarge,
                     Infeasible, MissingPhase, NonConvergence)
from .euler import EulerProductSpec, local_logs
from .polyzero import (ComplexPolynomial, SeparatingZero, rouche_delta,
                       univariate_roots)
from .primes import log_primes, primes_up_to

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SteeringTarget:
    """Annulus targets for the tail products, with the working strip data."""

    targets: tuple[complex, ...]
    R: float
    sigma: float
    eta: float
    y: int
    P: int

    def __post_init__(self):
        if self.R < 2:
            raise DomainError("annulus bound R must be at least 2")
        for z in self.targets:
            az = abs(z)
            if not (1.0 / self.R - 1e-12 <= az <= self.R + 1e-12):
                raise DomainError(f"target modulus {az} outside [1/R, R]")
        if not (1.0 < self.sigma <= 1.0 + self.eta + 1e-15):
            raise DomainError("sigma must lie in (1, 1 + eta]")
        if not (self.y < self.P):
            raise DomainError("need y < P")


@dataclass(frozen=True, eq=False)
class PhaseAssignment:
    """Vertical shift per prime in (y, P]; primes at or below y are unshifted.

    ``primes`` is sorted (int64) and ``shifts`` (float64) is aligned with it.
    """

    primes: np.ndarray
    shifts: np.ndarray
    y: int = 0

    def __post_init__(self):
        if len(self.primes) != len(self.shifts) or np.any(np.diff(self.primes) <= 0):
            raise DomainError("primes must be strictly increasing and aligned "
                              "with the shifts")
        bad = ~np.isfinite(self.shifts)
        if np.any(bad):
            raise DomainError(f"shift at p={int(self.primes[bad][0])} is not finite")

    def phases(self, ps: np.ndarray) -> np.ndarray:
        """theta_p = t_p log p mod 2*pi at the primes ``ps``: 0 at p <= y,
        from the assigned shift above."""
        above = ps > self.y
        high = ps[above]
        idx = np.searchsorted(self.primes, high)
        hit = idx < len(self.primes)
        hit[hit] = self.primes[idx[hit]] == high[hit]
        if not np.all(hit):
            raise MissingPhase(f"no shift assigned for prime {int(high[~hit][0])}")
        ts = np.zeros(len(ps))
        ts[above] = self.shifts[idx]
        return np.mod(ts * np.log(ps.astype(np.float64)), TWO_PI)

    def to_csv(self, path: str, meta: Optional[dict] = None) -> None:
        with open(path, "w", newline="") as fh:
            if meta:
                fh.write("# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
                         + "\n")
            writer = csv.writer(fh)
            writer.writerow(["p", "t_p"])
            for p, t in zip(self.primes.tolist(), self.shifts.tolist()):
                writer.writerow([p, repr(t)])


@dataclass(frozen=True)
class SteeringResult:
    assignment: PhaseAssignment
    achieved: tuple[complex, ...]
    residuals: tuple[float, ...]
    iterations: int
    converged: bool
    budgets_per_target: tuple[float, ...]


INIT_NOISE = 0.3  # half-width of the uniform noise on each restart's start


@dataclass(frozen=True)
class SteerOptions:
    """Gauss-Newton settings of :func:`solve_phases`; ``max_iter`` and
    ``restarts`` default to the pipeline's and ``zerosep steer``'s values."""

    tol: float = 1e-3
    max_iter: int = 120
    restarts: int = 2
    seed: int = 0

    def __post_init__(self):
        if not self.tol > 0:
            raise DomainError(f"tol must be positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be at least 1, got {self.max_iter!r}")
        if self.restarts < 1:
            raise DomainError(f"restarts must be at least 1, got {self.restarts!r}")


def _local_terms(C: np.ndarray, theta: np.ndarray,
                 exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """x = C e^(-i theta) with C = a(p) p^-sigma, and the local log terms at
    theta, rows per target.

    The linear stage keeps only the first-order term x; the exact stage uses
    the closed-form local log -log(1 - x).
    """
    x = C * np.exp(-1j * theta)[None, :]
    return x, (-np.log1p(-x) if exact else x)


def _gauss_newton(C, w, theta0, exact, max_iter, tol_log):
    """Levenberg-damped Gauss-Newton on sum_p local terms = w; returns theta,
    the iteration count and the summed local terms at theta.

    The terms of an accepted trial point are kept for the next iteration, and
    theta-derivatives are built only there.  Rows of ``C`` must be
    C-contiguous: each residual sums them along axis 1.
    """
    theta = theta0.copy()
    lam = 1e-8
    n_t = 2 * len(w)
    x, logs = _local_terms(C, theta, exact)
    total = logs.sum(axis=1)
    for it in range(1, max_iter + 1):
        r = total - w
        rnorm = float(np.max(np.abs(r)))
        if rnorm <= tol_log:
            return theta, it, total
        derivs = -1j * x / (1.0 - x) if exact else -1j * x
        J = np.vstack([derivs.real, derivs.imag])  # 2N x n_p
        rv = np.concatenate([r.real, r.imag])
        M = J @ J.T
        for _ in range(12):
            try:
                u = np.linalg.solve(M + lam * np.eye(n_t), -rv)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            step = J.T @ u
            cand = theta + step
            x2, logs2 = _local_terms(C, cand, exact)
            total2 = logs2.sum(axis=1)
            if float(np.max(np.abs(total2 - w))) < rnorm:
                theta, x, total = cand, x2, total2
                lam = max(lam * 0.3, 1e-12)
                break
            lam *= 10
        else:
            return theta, it, total
    return theta, max_iter, total


def _assignment(ps: np.ndarray, active: np.ndarray, theta: np.ndarray,
                y: int) -> PhaseAssignment:
    """Shifts (theta_p mod 2*pi) / log(p) on the active primes of ps, zero on
    the others."""
    shifts = np.zeros(len(ps))
    shifts[active] = np.mod(theta, TWO_PI) / log_primes(ps[active])
    return PhaseAssignment(ps, shifts, y=y)


def solve_phases(specs: Sequence[EulerProductSpec], target: SteeringTarget,
                 options: SteerOptions = SteerOptions()) -> SteeringResult:
    """Find shifts t_p for y < p <= P putting the partial tail products on the
    targets.

    Works in the log domain on the principal branch of each target's log:
    stage A runs Gauss-Newton on the first-order phase model, stage B re-runs
    it on the closed-form local logs, from each of ``options.restarts``
    noisy starts.  Raises ``Infeasible`` when a target's log norm
    exceeds its reachability budget, the largest |sum of local logs| its
    spec attains along one ray, and
    ``NonConvergence`` (carrying the best attempt) when iteration stalls.
    """
    N = len(specs)
    if N != len(target.targets):
        raise DomainError("one target per spec")
    if len(set(specs)) != N:
        raise DomainError("specs must be pairwise distinct")
    sigma = target.sigma
    ps_all = primes_up_to(target.P)
    ps = ps_all[ps_all > target.y]
    A_full = np.vstack([F.a_values(ps) for F in specs])
    active = np.any(A_full != 0, axis=0)
    psa = ps[active]
    # column selection leaves the rows strided, and every residual sums them
    A = np.ascontiguousarray(A_full[:, active])
    if len(psa) == 0:
        raise DomainError("no active primes in (y, P]")

    absA = np.abs(A)
    psig = psa.astype(np.float64) ** (-sigma)
    C = A * psig[None, :]
    # per-target reach: largest attainable |sum of local logs| along one ray
    budgets = tuple(float(np.sum(-np.log1p(-np.minimum(absA[j] * psig, 0.999999))))
                    for j in range(N))

    z = np.array(target.targets, dtype=np.complex128)
    w = np.log(z)  # principal branch
    for j in range(N):
        if abs(w[j]) > budgets[j] * (1.0 + 1e-9) + 1e-12:
            raise Infeasible(
                f"target {j} demands log norm {abs(w[j]):.4f} beyond its "
                f"reachability budget {budgets[j]:.4f}; "
                f"steer more primes or move sigma toward 1",
                budget=budgets[j], demand=float(abs(w[j])))

    def fit_of(total):
        """Achieved products and relative residuals from summed exact logs."""
        achieved = np.exp(total)
        return achieved, np.abs(achieved / z - 1.0)

    def result(theta, fit, iters, converged):
        achieved, resid = fit
        return SteeringResult(_assignment(ps, active, theta, target.y),
                              tuple(achieved), tuple(map(float, resid)), iters,
                              converged, budgets)

    # identity steering: zero shifts already on target
    zero_theta = np.zeros(len(psa))
    fit = fit_of(_local_terms(C, zero_theta, exact=True)[1].sum(axis=1))
    if float(np.max(fit[1])) <= min(options.tol, 1e-9):
        return result(zero_theta, fit, 0, True)

    rng = np.random.default_rng(options.seed)
    tol_log = 0.5 * options.tol
    best = None  # (max_resid, theta, fit, iters)
    jstar_order = np.argsort(-np.abs(w))
    for restart in range(options.restarts):
        theta0 = np.zeros(len(psa))
        for jstar in jstar_order:
            rows = absA[jstar] > 0
            if np.any(rows):
                theta0[rows] = np.angle(A[jstar, rows]) - np.angle(w[jstar]) \
                    if abs(w[jstar]) > 0 else 0.0
                break
        theta0 += rng.uniform(-INIT_NOISE, INIT_NOISE, len(psa))
        theta_a, it_a, _ = _gauss_newton(C, w, theta0, False,
                                         options.max_iter, tol_log)
        theta_b, it_b, total = _gauss_newton(C, w, theta_a, True,
                                             options.max_iter, tol_log)
        fit = fit_of(total)
        mres = float(np.max(fit[1]))
        if best is None or mres < best[0]:
            best = (mres, theta_b, fit, it_a + it_b)
        if mres <= options.tol:
            return result(theta_b, fit, it_a + it_b, True)
    mres, theta_b, fit, iters = best
    raise NonConvergence(
        f"steering stalled at max residual {mres:.3e} (tol {options.tol:.1e})",
        result=result(theta_b, fit, iters, False))


def recompute_achieved(specs: Sequence[EulerProductSpec],
                       assignment: PhaseAssignment, sigma: float, y: int,
                       P: int) -> np.ndarray:
    """Independent recomputation of the steered tail products from the shifts."""
    ps_all = primes_up_to(P)
    ps = ps_all[ps_all > y]
    thetas = assignment.phases(ps)
    out = np.empty(len(specs), dtype=np.complex128)
    for j, F in enumerate(specs):
        logs = local_logs(F, ps, sigma, thetas)
        out[j] = np.exp(complex(np.sum(logs)))
    return out


@dataclass(frozen=True)
class TrackedZero:
    """Witness zero re-solved at sigma > 1, with the drift budget that covers it."""

    z: np.ndarray
    drift: float
    delta: float
    moved: float


def track_zero_in_sigma(boundary: tuple[ComplexPolynomial, ComplexPolynomial],
                        shifted: tuple[ComplexPolynomial, ComplexPolynomial],
                        drift: float, x: SeparatingZero, R: float,
                        seed: int = 0) -> TrackedZero:
    """Move the boundary-line witness zero to sigma > 1 along its own line.

    ``boundary`` and ``shifted`` are the auxiliary pair (f, g) at 1 + i t0 and
    at sigma + i t0, and ``drift`` the largest coefficient displacement
    between them (:meth:`AuxiliaryCombination.pair_at` and
    :meth:`~AuxiliaryCombination.coefficient_drift`).  Verifies that the
    drift stays below the stability radius of the boundary pair at x, then
    re-solves the shifted f restricted to the witness line, seeded at the
    witness, and checks the annulus and non-vanishing constraints.
    """
    xs = np.asarray(x.x, dtype=np.complex128)
    if R < 2:
        raise DomainError("R must be at least 2")
    mods = np.abs(xs)
    if np.min(mods) < 2.0 / R - 1e-12 or np.max(mods) > R / 2.0 + 1e-12:
        raise DomainError("witness coordinates must satisfy 2/R <= |x_n| <= R/2")
    f1, g1 = boundary
    cert = rouche_delta(f1, g1, xs, eps=1.0 / R, seed=seed)
    if drift > cert.delta:
        raise DriftTooLarge(
            f"coefficient drift {drift:.3e} exceeds stability radius "
            f"{cert.delta:.3e}; reduce sigma - 1")
    f2, g2 = shifted
    roots = univariate_roots(f2.restrict(x.base, x.direction))
    if not roots:
        raise CertificateFailure("restriction of the shifted polynomial has no roots")
    t_new = min(roots, key=lambda t: abs(t - x.line_parameter))
    z = x.base + t_new * x.direction
    moved = float(np.max(np.abs(z - xs)))
    if moved >= 1.0 / R:
        raise CertificateFailure(
            f"re-solved zero moved {moved:.3e} >= 1/R = {1.0 / R:.3e}")
    zm = np.abs(z)
    if np.min(zm) < 1.0 / R - 1e-12 or np.max(zm) > R + 1e-12:
        raise CertificateFailure("tracked zero left the annulus")
    scale = max(f2.coeff_scale, 1e-300) * max(1.0, float(np.max(zm))) ** f2.degree
    fres = abs(f2.evaluate(z))
    if fres > 1e-8 * scale:
        raise CertificateFailure(f"tracked zero residual {fres:.3e} too large")
    if g2.evaluate(z) == 0:
        raise CertificateFailure("second combination vanishes at the tracked zero")
    return TrackedZero(z=z, drift=drift, delta=cert.delta, moved=moved)
