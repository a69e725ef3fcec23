"""Certified zero location for combinations of Euler products: twisted
evaluation at a steered shift table (a check on steering that the pipeline
does not run), Newton polishing with winding certification, non-coincidence
margins, and vertical replication windows.

The twisted, pointwise and anchored evaluators differ only in how they reduce
the per-prime phases; all three then run :meth:`CombEvaluator._evaluate`,
which applies the shared kernel: :func:`zerosep.euler.local_logs` and
:func:`zerosep.euler.truncated_exp` per spec, then
:func:`zerosep.combalg.combine`.

Zero certificates and strip counts both run on
:func:`zerosep.polyzero.winding_scan`, the one argument-principle routine:
``refine_zero`` scans circles and adds only the boundary minimum and the
evaluation budget over the scan's samples; ``count_zeros_in_strip`` scans
rectangles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import mpmath as mp
import numpy as np

from .combalg import CombPolynomial, combine
from .errors import ContourTooClose, DomainError, MarginFailure, NoZeroFound
from .euler import (EulerProductSpec, EvalResult, local_logs, log_tail_bound,
                    truncated_exp)
from .polyzero import (Circle, Rectangle, WindingParams, winding_number,
                       winding_scan)
from .precision import needed_bits, phases_for_ints
from .steering import PhaseAssignment
from .primes import factorize, primes_up_to

TWO_PI = 2.0 * math.pi


def _as_eval(v) -> EvalResult:
    if isinstance(v, EvalResult):
        return v
    return EvalResult(complex(v), 0.0)


# --- twisted evaluation -------------------------------------------------------


def twisted_eval(f: CombPolynomial, specs: Sequence[EulerProductSpec],
                 sigma: float, assignment: PhaseAssignment, P: int) -> EvalResult:
    """Combination value with an independent vertical shift at every prime.

    Primes at or below the fill boundary use the fill shift (which also fixes
    the height at which the prime-finite coefficients are read); primes in
    (y, P] take their assigned shifts.  The error bound covers the dropped
    primes beyond P exactly as in the pointwise evaluator.
    """
    if sigma <= 1:
        raise DomainError("twisted evaluation requires sigma > 1")
    ev = CombEvaluator(f, specs, P)
    ps = primes_up_to(P)
    thetas = assignment.phases(ps)
    s0 = complex(sigma, assignment.fill_value)
    return ev._evaluate(sigma, [thetas[F.support_mask(ps)] for F in ev.specs],
                        lambda c: c.value(s0))


# --- pointwise combination evaluator with optional anchored height -----------


class CombEvaluator:
    """Evaluates one combination at single points with truncation budgets.

    ``at(s)`` works for moderate heights; ``anchored(t)`` freezes an exact
    large height and returns a callable taking offsets relative to it, with
    all prime phases reduced once in extended precision.
    """

    def __init__(self, f: CombPolynomial, specs: Sequence[EulerProductSpec], P: int):
        if len(specs) != f.num_vars:
            raise DomainError("one spec per variable")
        self.f = f
        self.specs = list(specs)
        self.P = int(P)
        ps = primes_up_to(P)
        self._spec_primes = [ps[F.support_mask(ps)] for F in self.specs]

    def _evaluate(self, sigma: float, spec_thetas, coeff_value) -> EvalResult:
        """The combination with spec j's phases ``spec_thetas[j]`` on its primes."""
        evals = [truncated_exp(F, local_logs(F, ps, sigma, thetas), sigma, self.P)
                 for F, ps, thetas in zip(self.specs, self._spec_primes, spec_thetas)]
        return combine(self.f, evals, coeff_value)

    def at(self, s: complex) -> EvalResult:
        s = complex(s)
        if s.real <= 1:
            raise DomainError("evaluation requires Re(s) > 1")
        thetas = [phases_for_ints(s.imag, ps) for ps in self._spec_primes]
        return self._evaluate(s.real, thetas, lambda c: c.value(s))

    def anchored(self, t_anchor, bits: Optional[int] = None) -> "AnchoredCombEvaluator":
        return AnchoredCombEvaluator(self, t_anchor, bits)


class AnchoredCombEvaluator:
    """Combination evaluated at s = offset + i*(anchor + Im offset).

    The anchor is an exact extended-precision height; its phases at every
    relevant prime are reduced mod 2*pi once, so subsequent evaluations in a
    unit-size window run in plain float arithmetic.
    """

    def __init__(self, ev: CombEvaluator, t_anchor, bits: Optional[int] = None):
        self.ev = ev
        self.bits = bits or needed_bits(t_anchor)
        with mp.workprec(self.bits):
            self.t_anchor = mp.mpf(t_anchor)
        coeff_primes = sorted(set().union(*(c.support_primes for c, _ in ev.f.monomials)))
        allp = np.unique(np.concatenate(
            ev._spec_primes + [np.array(coeff_primes, dtype=np.int64)]))
        base = phases_for_ints(self.t_anchor, allp, bits=self.bits)
        # math.log, not np.log: the vectorized log may differ in the last bit,
        # which would move every anchored value and certificate
        logs = np.array([math.log(p) for p in allp.tolist()])
        spec_idx = [np.searchsorted(allp, ps) for ps in ev._spec_primes]
        self._spec_base = [base[i] for i in spec_idx]
        self._spec_logs = [logs[i] for i in spec_idx]
        coeff_idx = np.searchsorted(allp, coeff_primes)
        self._base = dict(zip(coeff_primes, base[coeff_idx].tolist()))
        self._logs = dict(zip(coeff_primes, logs[coeff_idx].tolist()))

    def phase_of(self, p: int, dt: float) -> float:
        """Phase of a coefficient prime at offset height dt from the anchor."""
        return self._base[int(p)] + dt * self._logs[int(p)]

    def __call__(self, offset: complex) -> EvalResult:
        offset = complex(offset)
        sigma = offset.real
        dt = offset.imag
        if sigma <= 1:
            raise DomainError("evaluation requires Re(s) > 1")
        if abs(dt) > 10.0:
            raise DomainError("anchored window is limited to |offset| <= 10")
        thetas = [np.mod(base + dt * lg, TWO_PI)
                  for base, lg in zip(self._spec_base, self._spec_logs)]
        return self.ev._evaluate(
            sigma, thetas,
            lambda c: c.value_anchored(sigma, lambda p: self.phase_of(p, dt)))


# --- zero certificates --------------------------------------------------------


@dataclass(frozen=True)
class ZeroCertificate:
    """Disk record for a claimed zero of the first combination.

    ``boundary_min`` is a certified lower bound for the combination modulus on
    the circle net of evaluation error; full certification additionally needs
    the non-coincidence margin ``g_min_on_disk`` from the partner combination.
    Heights beyond float range live in ``anchor`` (exact text form), with
    ``center`` holding the offset relative to it.
    """

    center: complex
    radius: float
    winding: int
    boundary_min: float
    tail_budget: float
    g_min_on_disk: Optional[float]
    status: str  # "certified" | "numeric-only"
    value_at_center: complex
    anchor: Optional[str] = None
    precision_bits: int = 53
    meta: dict = field(default_factory=dict)

    def consistent(self) -> bool:
        if self.status == "certified":
            ok = self.winding >= 1 and self.boundary_min > self.tail_budget
            if self.g_min_on_disk is not None:
                ok = ok and self.g_min_on_disk > self.tail_budget
            return ok
        return True

    def to_text(self) -> str:
        c, v = complex(self.center), complex(self.value_at_center)
        lines = ["zerosep-zero-certificate v1"]
        lines.append(f"status {self.status}")
        lines.append(f"center {float(c.real)!r} {float(c.imag)!r}")
        lines.append(f"radius {float(self.radius)!r}")
        lines.append(f"winding {int(self.winding)}")
        lines.append(f"boundary_min {float(self.boundary_min)!r}")
        lines.append(f"tail_budget {float(self.tail_budget)!r}")
        lines.append(f"g_min_on_disk "
                     f"{'none' if self.g_min_on_disk is None else repr(float(self.g_min_on_disk))}")
        lines.append(f"value_at_center {float(v.real)!r} {float(v.imag)!r}")
        lines.append(f"anchor {self.anchor if self.anchor else 'none'}")
        lines.append(f"precision_bits {int(self.precision_bits)}")
        for k in sorted(self.meta):
            lines.append(f"meta.{k} {self.meta[k]}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "ZeroCertificate":
        lines = text.strip().splitlines()
        if not lines or lines[0] != "zerosep-zero-certificate v1":
            raise DomainError("not a zero certificate record")
        rows = {}
        meta = {}
        for ln in lines[1:]:
            key, rest = ln.split(" ", 1)
            if key.startswith("meta."):
                meta[key[5:]] = rest
            else:
                rows[key] = rest
        cr, ci = (float(x) for x in rows["center"].split())
        vr, vi = (float(x) for x in rows["value_at_center"].split())
        return ZeroCertificate(
            center=complex(cr, ci), radius=float(rows["radius"]),
            winding=int(rows["winding"]), boundary_min=float(rows["boundary_min"]),
            tail_budget=float(rows["tail_budget"]),
            g_min_on_disk=None if rows["g_min_on_disk"] == "none"
            else float(rows["g_min_on_disk"]),
            status=rows["status"],
            value_at_center=complex(vr, vi),
            anchor=None if rows["anchor"] == "none" else rows["anchor"],
            precision_bits=int(rows["precision_bits"]), meta=meta)


@dataclass(frozen=True)
class RefineParams:
    newton_iters: int = 40
    fd_step: float = 1e-6
    numeric_tol: float = 1e-8
    initial_samples: int = 48
    max_samples: int = 4096
    shrink: tuple = (1.0, 0.6, 0.35, 0.2, 0.1)


def _circle_scan(H: Callable, circle: Circle, refinement: WindingParams):
    """Winding count from :func:`winding_scan`, then, over its samples, the
    certified boundary minimum net of evaluation error and the largest
    evaluation budget on the circle."""
    winding, samples = winding_scan(H, circle, refinement)
    radius = circle.radius
    ts = sorted(samples)
    vs = [_as_eval(samples[t]) for t in ts]
    tail_max = max(v.abs_error_bound for v in vs)
    # slope estimate between neighbors gives a Lipschitz margin for the gaps
    slopes = []
    gaps = []
    for i in range(len(ts) - 1):
        ds = abs(radius * (cmath.exp(2j * math.pi * ts[i + 1])
                           - cmath.exp(2j * math.pi * ts[i])))
        if ds > 0:
            slopes.append(abs(vs[i + 1].value - vs[i].value) / ds)
            gaps.append(ds)
    lip = 1.5 * max(slopes) if slopes else 0.0
    margin = lip * (max(gaps) / 2.0 if gaps else 0.0)
    boundary_min = min(abs(v.value) - v.abs_error_bound for v in vs) - margin
    return int(winding), float(boundary_min), float(tail_max)


def refine_zero(H: Callable, s0: complex, r0: float,
                params: RefineParams = RefineParams()) -> ZeroCertificate:
    """Newton-polish a zero of H near s0 and certify it by winding counts on
    shrinking circles; fall back to numeric-only status when the circles
    cannot be certified against the truncation budget."""
    s0 = complex(s0)
    if s0.real - r0 <= 1.0:
        raise DomainError("certification disk must stay inside Re(s) > 1")
    s = s0
    best_s, best_abs = s0, abs(_as_eval(H(s0)).value)
    scale0 = max(best_abs, 1.0)
    for _ in range(params.newton_iters):
        h = params.fd_step * max(1.0, abs(s.imag) if abs(s.imag) < 10 else 1.0)
        v0 = _as_eval(H(s)).value
        vp = _as_eval(H(s + h)).value
        vm = _as_eval(H(s - h)).value
        d = (vp - vm) / (2.0 * h)
        if abs(v0) < best_abs:
            best_s, best_abs = s, abs(v0)
        if d == 0:
            break
        step = -v0 / d
        if abs(step) > r0:
            step *= r0 / abs(step)
        s_new = s + step
        if s_new.real - 0.25 * r0 <= 1.0:
            s_new = complex(1.0 + 0.3 * r0, s_new.imag)
        s = s_new
        if abs(step) < 1e-14 * max(1.0, abs(s)):
            break
    v = _as_eval(H(s))
    if abs(v.value) < best_abs:
        best_s, best_abs = s, abs(v.value)
    center = best_s
    at_center = _as_eval(H(center))

    found = None
    for frac in params.shrink:
        r = r0 * frac
        if center.real - r <= 1.0:
            continue
        try:
            w, bmin, tmax = _circle_scan(H, Circle(center, r), WindingParams(
                params.initial_samples, params.max_samples))
        except ContourTooClose:
            continue
        if w >= 1:
            found = (r, w, bmin, tmax)
            if bmin > tmax:
                break
    numeric_ok = best_abs <= params.numeric_tol * scale0 or best_abs <= params.numeric_tol
    if found is None:
        if not numeric_ok:
            raise NoZeroFound(
                f"Newton stalled at |H| = {best_abs:.3e} and no circle wound")
        return ZeroCertificate(center=center, radius=r0 * params.shrink[-1],
                               winding=0, boundary_min=0.0,
                               tail_budget=at_center.abs_error_bound,
                               g_min_on_disk=None, status="numeric-only",
                               value_at_center=at_center.value)
    r, w, bmin, tmax = found
    return ZeroCertificate(center=center, radius=r, winding=w,
                           boundary_min=bmin, tail_budget=tmax,
                           g_min_on_disk=None,
                           status="certified" if bmin > tmax else "numeric-only",
                           value_at_center=at_center.value)


def certify_noncoincidence(cert: ZeroCertificate, g_comb: Callable,
                           rings: int = 6, samples: int = 48) -> ZeroCertificate:
    """Lower-bound the partner combination on the closed certificate disk.

    Dense ring sampling plus a finite-difference Lipschitz margin, minus the
    partner's own truncation budget; a non-positive margin raises with the
    achieved value.
    """
    if cert.winding < 1:
        raise DomainError("certificate must carry winding >= 1")
    pts = [cert.center]
    for i in range(1, rings + 1):
        r = cert.radius * i / rings
        for k in range(samples):
            pts.append(cert.center + r * cmath.exp(2j * math.pi * k / samples))
    vals = [_as_eval(g_comb(p)) for p in pts]
    g_tail = max(v.abs_error_bound for v in vals)
    mesh = max(cert.radius / rings,
               math.pi * cert.radius / samples)
    # slope estimate over consecutive ring points
    slopes = []
    for i in range(1, len(pts) - 1):
        ds = abs(pts[i + 1] - pts[i])
        if ds > 1e-15:
            slopes.append(abs(vals[i + 1].value - vals[i].value) / ds)
    lip = 1.5 * max(slopes) if slopes else 0.0
    gmin = min(abs(v.value) for v in vals) - lip * (mesh / 2.0) - g_tail
    if gmin <= 0:
        raise MarginFailure(
            f"non-coincidence margin {gmin:.3e} is not positive", margin=gmin)
    certified = (cert.winding >= 1 and cert.boundary_min > cert.tail_budget
                 and gmin > cert.tail_budget)
    return replace(cert, g_min_on_disk=float(gmin),
                   status="certified" if certified else "numeric-only")


# --- vertical replication ------------------------------------------------------


def vertical_drift_log_bound(F: EulerProductSpec, sigma: float, accuracy: float,
                             P_align: int, depth: int = 40) -> float:
    """Bound for |log F(s + i tau) - log F(s)| when tau*log(p) sits within
    ``accuracy`` of 0 mod 2*pi for every prime p <= P_align."""
    ps = primes_up_to(P_align)
    ps = ps[F.support_mask(ps)]
    total = 0.0
    if len(ps):
        pf = ps.astype(np.float64)
        absa = np.abs(F.a_values(ps))
        for k in range(1, depth + 1):
            total += float(np.sum((absa ** k / k) * pf ** (-k * sigma)
                                  * np.minimum(k * accuracy, 2.0)))
    total += 2.0 * log_tail_bound(F, P_align, sigma)
    return total


def combination_drift_bound(f: CombPolynomial, specs: Sequence[EulerProductSpec],
                            sigma: float, accuracy: float, P_align: int,
                            P: int) -> float:
    """Value-domain bound for |H(s + i tau) - H(s)| near the certificate.

    Combines per-spec log drifts with the coefficient drift of the
    prime-finite coefficients (each smooth index n moves by at most
    Omega(n) * accuracy in phase).  Each |F_j| on Re(s) = sigma is bounded by
    exp of its summed |local logs| up to P plus its log tail (drift inflates
    the bound by the log bound itself).  An exponent of 700 or more gives an
    infinite bound, never NaN.
    """
    spec_logs = [vertical_drift_log_bound(F, sigma, accuracy, P_align)
                 for F in specs]
    ps = primes_up_to(P)
    pw = ps.astype(np.float64) ** (-sigma)
    mags = [_exp(float(np.sum(-np.log1p(-np.abs(F.a_values(ps)) * pw)))
                 + log_tail_bound(F, P, sigma)) for F in specs]
    total = 0.0
    for coeff, exps in f.monomials:
        cval = abs(coeff.value(complex(sigma, 0.0)))
        coeff_drift = 0.0
        for n, a in (coeff.terms or ((1, 0.0),)):
            if n > 1:
                omega = sum(factorize(n).values())
                coeff_drift += abs(a) * n ** (-sigma) * min(omega * accuracy, 2.0)
        for p, _ in coeff.inverse_factors:
            # inverse factors are zero-free on the closed half-plane, so their
            # drift is controlled by the same phase accuracy at prime p
            coeff_drift += cval * min(accuracy, 2.0)
        prod_mag = 1.0
        log_drift = 0.0
        for j, a_j in enumerate(exps):
            if a_j:
                mag = mags[j] * _exp(spec_logs[j])
                prod_mag *= mag ** a_j if a_j * math.log(mag) < 700 else math.inf
                log_drift += a_j * spec_logs[j]
        growth = math.expm1(log_drift) if log_drift < 700 else math.inf
        total += _product(cval, prod_mag, growth) + _product(coeff_drift, prod_mag)
    return total


def _exp(x: float) -> float:
    """e^x, or inf from x = 700 on (as :func:`zerosep.euler.truncated_exp`)."""
    return math.exp(x) if x < 700 else math.inf


def _product(*factors: float) -> float:
    """Product of nonnegative factors; 0 when one is 0, also beside an inf."""
    return 0.0 if 0.0 in factors else math.prod(factors)


# --- strip counting -------------------------------------------------------------


@dataclass(frozen=True)
class StripCount:
    total: int
    flagged: tuple  # ((sigma_lo, sigma_hi, t_lo, t_hi), reason) pairs
    cells: int


def count_zeros_in_strip(H: Callable, sigma_range: tuple, t_range: tuple,
                         subdivision=4, initial_samples: int = 32,
                         max_samples: int = 8192, max_depth: int = 2) -> StripCount:
    """Sum of winding numbers over a subdivided rectangle in Re(s) > 1.

    Cells whose boundary cannot be resolved are split up to ``max_depth``
    times and flagged (not fatal) if still unresolved.
    """
    s_lo, s_hi = float(sigma_range[0]), float(sigma_range[1])
    if s_lo <= 1:
        raise DomainError("strip must sit inside Re(s) > 1")
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    if isinstance(subdivision, int):
        n_s = n_t = subdivision
    else:
        n_s, n_t = subdivision

    total = 0
    flagged = []
    cells = 0
    work = []
    for i in range(n_s):
        for j in range(n_t):
            work.append((s_lo + (s_hi - s_lo) * i / n_s,
                         s_lo + (s_hi - s_lo) * (i + 1) / n_s,
                         t_lo + (t_hi - t_lo) * j / n_t,
                         t_lo + (t_hi - t_lo) * (j + 1) / n_t, 0))
    while work:
        a, b, c, d, depth = work.pop()
        cells += 1
        try:
            total += winding_number(H, Rectangle(a, b, c, d),
                                    WindingParams(initial_samples, max_samples))
        except ContourTooClose as exc:
            if depth < max_depth:
                am, cm = 0.5 * (a + b), 0.5 * (c + d)
                work.extend([(a, am, c, cm, depth + 1), (am, b, c, cm, depth + 1),
                             (a, am, cm, d, depth + 1), (am, b, cm, d, depth + 1)])
            else:
                flagged.append(((a, b, c, d), str(exc)))
    return StripCount(total=total, flagged=tuple(flagged), cells=cells)
