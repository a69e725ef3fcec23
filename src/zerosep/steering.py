"""Per-prime phase steering: choose vertical shifts t_p so the tail Euler
products over y < p <= P land on prescribed annulus targets, and track a
witness zero as sigma moves off the boundary line."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .combalg import AuxiliaryCombination
from .errors import (CertificateFailure, DomainError, DriftTooLarge,
                     Infeasible, MissingPhase, NonConvergence)
from .euler import EulerProductSpec, local_log_derivs, local_logs
from .polyzero import SeparatingZero, RoucheCertificate, rouche_delta, univariate_roots
from .primes import primes_up_to

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


@dataclass(frozen=True)
class PhaseAssignment:
    """Vertical shift per prime in (y, P], plus the fill value used below y."""

    shifts: dict
    fill_value: float = 0.0
    y: int = 0

    def __post_init__(self):
        for p, t in self.shifts.items():
            if not math.isfinite(t):
                raise DomainError(f"shift at p={p} is not finite")

    def shift_for(self, p: int, y: Optional[int] = None) -> float:
        p = int(p)
        if p <= (self.y if y is None else y):
            return self.fill_value
        try:
            return self.shifts[p]
        except KeyError:
            raise MissingPhase(f"no shift assigned for prime {p}") from None

    def with_fill(self, t0: float) -> "PhaseAssignment":
        return PhaseAssignment(self.shifts, float(t0), self.y)

    def to_csv(self, path: str, meta: Optional[dict] = None) -> None:
        with open(path, "w", newline="") as fh:
            if meta:
                fh.write("# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
                         + "\n")
            writer = csv.writer(fh)
            writer.writerow(["p", "t_p"])
            for p in sorted(self.shifts):
                writer.writerow([p, repr(self.shifts[p])])

    @staticmethod
    def from_csv(path: str, fill_value: float = 0.0) -> "PhaseAssignment":
        shifts = {}
        with open(path) as fh:
            for ln in fh:
                if ln.startswith("#") or ln.strip() == "" or ln.startswith("p,"):
                    continue
                p_s, t_s = ln.strip().split(",")
                shifts[int(p_s)] = float(t_s)
        return PhaseAssignment(shifts, fill_value)


@dataclass(frozen=True)
class SteeringResult:
    assignment: PhaseAssignment
    achieved: tuple[complex, ...]
    residuals: tuple[float, ...]
    iterations: int
    converged: bool
    branch_offsets: tuple[int, ...]
    budget: float
    budgets_per_target: tuple[float, ...]
    seed: int


@dataclass(frozen=True)
class SteerOptions:
    tol: float = 1e-3
    max_iter: int = 80
    restarts: int = 4
    seed: int = 0
    init_noise: float = 0.3
    branch_tries: int = 9


def _model(A: np.ndarray, pf: np.ndarray, sigma: float, thetas: np.ndarray,
           exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """Local log terms and their theta-derivatives, rows per target.

    The linear stage keeps only the first-order term a(p) p^-sigma e^(-i theta);
    the exact stage uses the closed-form local log.
    """
    x = A * (pf ** (-sigma))[None, :] * np.exp(-1j * thetas)[None, :]
    if exact:
        logs = -np.log1p(-x)
        derivs = -1j * x / (1.0 - x)
    else:
        logs = x
        derivs = -1j * x
    return logs, derivs


def _gauss_newton(A, pf, sigma, w, theta0, exact, max_iter, tol_log):
    theta = theta0.copy()
    lam = 1e-8
    n_t = 2 * len(w)
    r = None
    for it in range(1, max_iter + 1):
        logs, derivs = _model(A, pf, sigma, theta, exact)
        r = logs.sum(axis=1) - w
        rnorm = float(np.max(np.abs(r)))
        if rnorm <= tol_log:
            return theta, it, True
        J = np.vstack([derivs.real, derivs.imag])  # 2N x n_p
        rv = np.concatenate([r.real, r.imag])
        M = J @ J.T
        improved = False
        for _ in range(12):
            try:
                u = np.linalg.solve(M + lam * np.eye(n_t), -rv)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            step = J.T @ u
            cand = theta + step
            logs2, _ = _model(A, pf, sigma, cand, exact)
            r2 = logs2.sum(axis=1) - w
            if float(np.max(np.abs(r2))) < rnorm:
                theta = cand
                lam = max(lam * 0.3, 1e-12)
                improved = True
                break
            lam *= 10
        if not improved:
            return theta, it, False
    return theta, max_iter, False


def _branch_candidates(n: int, tries: int):
    """Branch integer vectors ordered by total offset, zero vector first."""
    from itertools import product
    cands = sorted(product(range(-2, 3), repeat=n),
                   key=lambda k: (sum(abs(x) for x in k), k))
    return cands[:tries]


def solve_phases(specs: Sequence[EulerProductSpec], target: SteeringTarget,
                 K: Optional[int] = None,
                 options: SteerOptions = SteerOptions()) -> SteeringResult:
    """Find shifts t_p for y < p <= P putting the partial tail products on the
    targets.

    Works in the log domain with explicit branch integers: stage A runs
    Gauss-Newton on the first-order phase model, stage B re-runs it on the
    closed-form local logs.  Raises ``Infeasible`` when the first-order
    reachability budget cannot cover the demanded log norms, and
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
    A = A_full[:, active]
    pf = psa.astype(np.float64)
    if len(psa) == 0:
        raise DomainError("no active primes in (y, P]")

    absA = np.abs(A)
    psig = pf ** (-sigma)
    budget = float(np.sum(np.min(absA, axis=0) * psig))
    # per-target reach: largest attainable |sum of local logs| along one ray
    budgets = tuple(float(np.sum(-np.log1p(-np.minimum(absA[j] * psig, 0.999999))))
                    for j in range(N))

    z = np.array(target.targets, dtype=np.complex128)
    w_base = np.log(z)  # principal branch
    demand = float(np.max(np.abs(w_base)))
    for j in range(N):
        if abs(w_base[j]) > budgets[j] * (1.0 + 1e-9) + 1e-12:
            raise Infeasible(
                f"target {j} demands log norm {abs(w_base[j]):.4f} beyond its "
                f"reachability budget {budgets[j]:.4f} (joint budget {budget:.4f}); "
                f"increase P or move sigma toward 1",
                budget=budgets[j], demand=float(abs(w_base[j])))

    # identity steering: zero shifts already on target
    zero_theta = np.zeros(len(psa))
    logs0, _ = _model(A, pf, sigma, zero_theta, exact=True)
    achieved0 = np.exp(logs0.sum(axis=1))
    res0 = np.abs(achieved0 / z - 1.0)
    if float(np.max(res0)) <= min(options.tol, 1e-9):
        assignment = PhaseAssignment({int(p): 0.0 for p in ps}, y=target.y)
        return SteeringResult(assignment, tuple(achieved0), tuple(map(float, res0)),
                              0, True, (0,) * N, budget, budgets, options.seed)

    rng = np.random.default_rng(options.seed)
    tol_log = 0.5 * options.tol
    best = None  # (max_resid, theta, iters, branch)
    for branch in _branch_candidates(N, options.branch_tries):
        w = w_base + TWO_PI * 1j * np.array(branch)
        if float(np.max(np.abs(w))) > max(budgets) * 1.05:
            continue
        jstar_order = np.argsort(-np.abs(w))
        for restart in range(options.restarts):
            theta0 = np.zeros(len(psa))
            assigned = np.zeros(len(psa), dtype=bool)
            for jstar in jstar_order:
                rows = (absA[jstar] > 0) & ~assigned
                if not np.any(rows):
                    continue
                theta0[rows] = np.angle(A[jstar, rows]) - np.angle(w[jstar]) \
                    if abs(w[jstar]) > 0 else 0.0
                assigned |= rows
                break
            theta0 += rng.uniform(-options.init_noise, options.init_noise, len(psa))
            theta_a, it_a, _ = _gauss_newton(A, pf, sigma, w, theta0, False,
                                             options.max_iter, tol_log)
            theta_b, it_b, ok = _gauss_newton(A, pf, sigma, w, theta_a, True,
                                              options.max_iter, tol_log)
            logs, _ = _model(A, pf, sigma, theta_b, exact=True)
            achieved = np.exp(logs.sum(axis=1))
            resid = np.abs(achieved / z - 1.0)
            mres = float(np.max(resid))
            if best is None or mres < best[0]:
                best = (mres, theta_b, it_a + it_b, branch, achieved, resid)
            if mres <= options.tol:
                theta_mod = np.mod(theta_b, TWO_PI)
                shifts = {int(p): float(th / math.log(p))
                          for p, th in zip(psa, theta_mod)}
                for p in ps[~active]:
                    shifts[int(p)] = 0.0
                assignment = PhaseAssignment(shifts, y=target.y)
                return SteeringResult(assignment, tuple(achieved),
                                      tuple(map(float, resid)), it_a + it_b, True,
                                      tuple(branch), budget, budgets, options.seed)
    mres, theta_b, iters, branch, achieved, resid = best
    theta_mod = np.mod(theta_b, TWO_PI)
    shifts = {int(p): float(th / math.log(p)) for p, th in zip(psa, theta_mod)}
    for p in ps[~active]:
        shifts[int(p)] = 0.0
    result = SteeringResult(PhaseAssignment(shifts, y=target.y), tuple(achieved),
                            tuple(map(float, resid)), iters, False,
                            tuple(branch), budget, budgets, options.seed)
    raise NonConvergence(
        f"steering stalled at max residual {mres:.3e} (tol {options.tol:.1e})",
        result=result)


def recompute_achieved(specs: Sequence[EulerProductSpec],
                       assignment: PhaseAssignment, sigma: float, y: int, P: int,
                       K: Optional[int] = None) -> np.ndarray:
    """Independent recomputation of the steered tail products from the shifts."""
    ps_all = primes_up_to(P)
    ps = ps_all[ps_all > y]
    ts = np.array([assignment.shift_for(int(p), y) for p in ps])
    thetas = np.mod(ts * np.log(ps.astype(np.float64)), TWO_PI)
    out = np.empty(len(specs), dtype=np.complex128)
    for j, F in enumerate(specs):
        logs = local_logs(F, ps, sigma, thetas, K)
        out[j] = np.exp(complex(np.sum(logs)))
    return out


@dataclass(frozen=True)
class TrackedZero:
    """Witness zero re-solved at sigma > 1, with the drift budget that covers it."""

    z: np.ndarray
    sigma: float
    drift: float
    delta: float
    f_residual: float
    g_abs: float
    moved: float
    certificate: RoucheCertificate


def track_zero_in_sigma(aux: AuxiliaryCombination, x, R: float, sigma: float,
                        seed: int = 0) -> TrackedZero:
    """Move the boundary-line witness zero to sigma > 1 along its own line.

    Verifies that the coefficient drift between the two evaluation heights
    stays below the stability radius of the boundary pair, then re-solves the
    restricted polynomial seeded at the witness and checks the annulus and
    non-vanishing constraints.
    """
    if aux.t0 is None:
        raise DomainError("auxiliary combination has no t0 set")
    xs = np.asarray(x.x if isinstance(x, SeparatingZero) else x,
                    dtype=np.complex128)
    if R < 2:
        raise DomainError("R must be at least 2")
    mods = np.abs(xs)
    if np.min(mods) < 2.0 / R - 1e-12 or np.max(mods) > R / 2.0 + 1e-12:
        raise DomainError("witness coordinates must satisfy 2/R <= |x_n| <= R/2")
    s1 = complex(1.0, aux.t0)
    s2 = complex(sigma, aux.t0)
    f1, g1 = aux.f_poly_at(s1), aux.g_poly_at(s1)
    cert = rouche_delta(f1, g1, xs, eps=1.0 / R, seed=seed)
    drift = aux.coefficient_drift(s1, s2)
    if drift > cert.delta:
        raise DriftTooLarge(
            f"coefficient drift {drift:.3e} exceeds stability radius "
            f"{cert.delta:.3e}; reduce sigma - 1", drift=drift, delta=cert.delta)
    f2, g2 = aux.f_poly_at(s2), aux.g_poly_at(s2)
    if isinstance(x, SeparatingZero):
        base, direction = x.base, x.direction
        t_seed = x.line_parameter
    else:
        rng = np.random.default_rng(seed)
        direction = rng.normal(size=len(xs)) + 1j * rng.normal(size=len(xs))
        direction = direction / np.linalg.norm(direction)
        base, t_seed = xs, 0.0 + 0.0j
    coeffs = f2.restrict(base, direction)
    roots = univariate_roots(coeffs).roots
    if not roots:
        raise CertificateFailure("restriction of the shifted polynomial has no roots")
    t_new = min(roots, key=lambda t: abs(t - t_seed))
    z = base + t_new * direction
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
    gval = abs(g2.evaluate(z))
    if gval == 0.0:
        raise CertificateFailure("second combination vanishes at the tracked zero")
    return TrackedZero(z=z, sigma=sigma, drift=drift, delta=cert.delta,
                       f_residual=fres, g_abs=gval, moved=moved, certificate=cert)
