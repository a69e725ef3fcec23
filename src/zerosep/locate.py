"""Certified zero location for combinations of Euler products: twisted
evaluation at a steered shift table (a check on steering that the pipeline
does not run), Newton polishing with winding certification and
non-coincidence margins.  The pipeline's locate and replicate stages share
one routine around ``refine_zero``; replicate runs it at each height
t + tau_k, for the almost periods tau_k of the aligned primes.

The twisted, pointwise and anchored evaluators differ only in how they reduce
the per-prime phases; all three then run :meth:`CombEvaluator._evaluate`,
which applies the shared kernel: :func:`zerosep.euler.local_logs` and
:func:`zerosep.euler.truncated_exp` per spec, then
:func:`zerosep.combalg.combine`.  The auxiliary rewrite of
:mod:`zerosep.combalg` enters the same kernel at
:func:`zerosep.euler.local_logs`, for the primes up to its cutoff only.

Locating reads an anchored evaluator through disk models.
:meth:`AnchoredCombEvaluator.disk` builds one Taylor model of each spec's
summed local logs around a centre (:func:`zerosep.euler.local_log_model`),
so a point on the disk costs a Horner step per spec instead of a sum over
every prime, and the model's bound joins the truncation budget.  Each Newton
iterate of ``refine_zero`` gets a model of radius ``FD_STEP`` for its three
evaluations, all its shrinking circles share one model at the centre, and
``certify_noncoincidence`` reads its ring points from one model of the
partner.  Newton's steps are clipped to the certificate radius r0, so it
stops as soon as a raw step exceeds what the clipped steps left can travel:
the zero it points at is out of reach.  Its one half-plane rule stops it
too when the next iterate would come within ``FD_STEP`` of Re s = 1.  Either
way, the circles around the best point found that fit inside Re s > 1 give
the verdict, down to the first circle that winds 0.  Only the start, the
last iterate and the centre are evaluated directly, each once; when Newton
stops at once they are one point and one evaluation.
:func:`_on_disk` is the one place that tells the two apart: any other
callable that returns an :class:`zerosep.euler.EvalResult` (a closed form,
``CombEvaluator.at``) is called at every point.

Zero certificates run on :func:`zerosep.polyzero.winding_scan`, the one
argument-principle routine: ``refine_zero`` scans circles and adds only the
boundary minimum and the evaluation budget over the scan's samples.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import mpmath as mp
import numpy as np

from .combalg import CombPolynomial, combine
from .errors import (ArityMismatch, ContourTooClose, DomainError, NoZeroFound,
                     ParseError)
from .euler import (EPS, EulerProductSpec, EvalResult, local_log_model,
                    local_logs, truncated_exp)
from .polyzero import Circle, winding_scan
from .precision import needed_bits, phases_for_ints
from .steering import PhaseAssignment
from .primes import log_primes, primes_up_to

TWO_PI = 2.0 * math.pi


# --- twisted evaluation -------------------------------------------------------


def twisted_eval(f: CombPolynomial, specs: Sequence[EulerProductSpec],
                 sigma: float, assignment: PhaseAssignment, P: int) -> EvalResult:
    """Combination value with an independent vertical shift at every prime.

    Primes at or below y are unshifted, and the prime-finite coefficients
    are read at Im s = 0; primes in (y, P] take their assigned shifts.  The
    error bound covers the dropped primes beyond P exactly as in the
    pointwise evaluator.
    """
    if sigma <= 1:
        raise DomainError("twisted evaluation requires sigma > 1")
    ev = CombEvaluator(f, specs, P)
    ps = primes_up_to(P)
    thetas = assignment.phases(ps)
    s0 = complex(sigma, 0.0)
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
            raise ArityMismatch(f"{f.num_vars} variables but {len(specs)} specs")
        self.f = f
        self.specs = list(specs)
        self.P = int(P)
        ps = primes_up_to(P)
        self._spec_primes = [ps[F.support_mask(ps)] for F in self.specs]

    def _evaluate(self, sigma: float, spec_thetas, coeff_value) -> EvalResult:
        """The combination with spec j's phases ``spec_thetas[j]`` on its primes."""
        evals = [truncated_exp(F, complex(np.sum(local_logs(F, ps, sigma, thetas))),
                               sigma, self.P, 0.0)
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


ANCHOR_WINDOW = 10.0  # largest |offset| an anchored evaluator accepts


class AnchoredCombEvaluator:
    """Combination evaluated at s = offset + i*(anchor + Im offset).

    The anchor is an exact extended-precision height; its phases at every
    relevant prime are reduced mod 2*pi once, so subsequent evaluations in a
    unit-size window run in plain float arithmetic.  :meth:`disk` builds a
    Taylor model of every spec on a disk of offsets.
    """

    def __init__(self, ev: CombEvaluator, t_anchor, bits: Optional[int] = None):
        self.ev = ev
        self.bits = bits or needed_bits(t_anchor)
        with mp.workprec(self.bits):
            self.t_anchor = mp.mpf(t_anchor)
        coeff_primes = _coeff_primes(ev)
        allp = np.unique(np.concatenate(
            ev._spec_primes + [np.array(coeff_primes, dtype=np.int64)]))
        base = phases_for_ints(self.t_anchor, allp, bits=self.bits)
        logs = log_primes(allp)
        spec_idx = [np.searchsorted(allp, ps) for ps in ev._spec_primes]
        self._spec_base = [base[i] for i in spec_idx]
        self._spec_logs = [logs[i] for i in spec_idx]
        coeff_idx = np.searchsorted(allp, coeff_primes)
        self._base = dict(zip(coeff_primes, base[coeff_idx].tolist()))
        self._logs = dict(zip(coeff_primes, logs[coeff_idx].tolist()))

    def phase_of(self, p: int, dt: float) -> float:
        """Phase of a coefficient prime at offset height dt from the anchor."""
        return self._base[int(p)] + dt * self._logs[int(p)]

    def _thetas(self, dt: float) -> list:
        """Each spec's reduced phases at offset height dt."""
        return [np.mod(base + dt * lg, TWO_PI)
                for base, lg in zip(self._spec_base, self._spec_logs)]

    def _coeff_value(self, sigma: float, dt: float):
        return lambda c: c.value_anchored(sigma, lambda p: self.phase_of(p, dt))

    def __call__(self, offset: complex) -> EvalResult:
        offset = complex(offset)
        sigma = offset.real
        dt = offset.imag
        if sigma <= 1:
            raise DomainError("evaluation requires Re(s) > 1")
        if abs(dt) > ANCHOR_WINDOW:
            raise DomainError("anchored window is limited to |offset| <= 10")
        return self.ev._evaluate(sigma, self._thetas(dt), self._coeff_value(sigma, dt))

    def disk(self, center: complex, radius: float) -> "_DiskModel":
        """The combination on the closed disk of offsets |s - center| <=
        radius, from one :class:`zerosep.euler.LocalLogModel` per spec."""
        return _DiskModel(self, complex(center), float(radius))


def _coeff_primes(ev: CombEvaluator) -> list:
    return sorted(set().union(*(c.support_primes for c, _ in ev.f.monomials)))


class _DiskModel:
    """An anchored combination on one disk of offsets.

    Per spec, one Taylor model of the summed local logs around the centre
    (:func:`zerosep.euler.local_log_model`); a point then costs a Horner
    step per spec, the truncation bound and the coefficient series.  The
    model's bound joins the prime tail in the log-domain budget, so every
    value carries both; the value at the centre is the anchored evaluator's
    bit for bit.  The disk is widened by a few units in the last place of
    the centre, so the float points of a circle of the given radius fall
    inside; any point beyond that is refused.
    """

    def __init__(self, anchored: AnchoredCombEvaluator, center: complex, radius: float):
        sigma, dt = center.real, center.imag
        if sigma - radius <= 1:
            raise DomainError("the disk must stay inside Re(s) > 1")
        if abs(dt) + radius > ANCHOR_WINDOW:
            raise DomainError("anchored window is limited to |offset| <= 10")
        self.anchored = anchored
        self.center = center
        radius += 4.0 * EPS * (abs(center) + radius)
        ev = anchored.ev
        # phase error of np.mod(base + dt * lg, TWO_PI) against the exact
        # base + dt * lg: the rounded product and sum, and the rounding of
        # 2*pi, subtracted up to |dt * lg| / 2*pi + 2 times
        self.models = [
            local_log_model(F, ps, sigma, thetas, lg, radius,
                            4.0 * EPS * (TWO_PI + abs(dt) * (lg[-1] if len(lg) else 0.0)))
            for F, ps, thetas, lg in zip(ev.specs, ev._spec_primes,
                                         anchored._thetas(dt), anchored._spec_logs)]

    def __call__(self, s: complex) -> EvalResult:
        s = complex(s)
        w = s - self.center
        ev = self.anchored.ev
        evals = [truncated_exp(F, m.value(w), s.real, ev.P, m.bound)
                 for F, m in zip(ev.specs, self.models)]
        return combine(ev.f, evals, self.anchored._coeff_value(s.real, s.imag))


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

    def gap(self) -> Optional[str]:
        """None when the record's own numbers make the zero ``certified``,
        else the first condition it misses: a circle that winds, then a
        boundary minimum above the tail budget, then, when recorded, a
        partner minimum above the tail budget.

        This is the one statement of the rule in the package.  It subtracts
        the evaluation budget twice: ``boundary_min`` and ``g_min_on_disk``
        are already net of each sample's error bound.  ``zsbench``'s
        ``margins_certify`` holds a copy of the rule, so moving to a single
        subtraction waits for a change that may edit the benchmark.
        """
        if self.winding < 1:
            return f"no circle wound (best |H| = {abs(self.value_at_center):.3e})"
        if not self.boundary_min > self.tail_budget:
            return (f"boundary minimum {self.boundary_min:.3e} does not exceed "
                    f"tail budget {self.tail_budget:.3e}")
        if self.g_min_on_disk is not None and \
                not self.g_min_on_disk > self.tail_budget:
            return (f"partner minimum on the disk {self.g_min_on_disk:.3e} does "
                    f"not exceed tail budget {self.tail_budget:.3e}")
        return None

    def consistent(self) -> bool:
        return self.status != "certified" or self.gap() is None

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
        """The certificate :meth:`to_text` wrote, or ``ParseError`` naming a
        missing, repeated or unknown row, a line without a value or a value
        that does not parse (a status other than ``certified`` or
        ``numeric-only`` among them).  A ``.cert`` file is exactly this text."""
        lines = text.strip().splitlines()
        if not lines or lines[0] != "zerosep-zero-certificate v1":
            raise ParseError("not a zero certificate record")
        rows = {}
        for ln in lines[1:]:
            key, sep, rest = ln.partition(" ")
            if not sep:
                raise ParseError(f"certificate line {ln!r} has no value")
            if key in rows:
                raise ParseError(f"certificate has a repeated row {key!r}")
            rows[key] = rest
        meta = {key[5:]: rows.pop(key) for key in list(rows) if key.startswith("meta.")}

        def status(value: str) -> str:
            if value not in ("certified", "numeric-only"):
                raise ValueError(value)
            return value

        def row(key: str, kind: Callable = float, optional: bool = False):
            if key not in rows:
                raise ParseError(f"certificate has no {key!r} row")
            value = rows.pop(key)
            if optional and value == "none":
                return None
            try:
                if kind is complex:
                    re_part, im_part = (float(x) for x in value.split())
                    return complex(re_part, im_part)
                return kind(value)
            except ValueError:
                raise ParseError(f"certificate row {key!r} does not parse: "
                                 f"{value!r}") from None

        cert = ZeroCertificate(
            center=row("center", complex), radius=row("radius"),
            winding=row("winding", int), boundary_min=row("boundary_min"),
            tail_budget=row("tail_budget"),
            g_min_on_disk=row("g_min_on_disk", optional=True),
            status=row("status", status),
            value_at_center=row("value_at_center", complex),
            anchor=row("anchor", str, optional=True),
            precision_bits=row("precision_bits", int), meta=meta)
        if rows:  # every row the certificate reads is popped
            raise ParseError(f"certificate has an unknown row {next(iter(rows))!r}")
        return cert


NEWTON_ITERS = 40  # Newton iterations refine_zero takes at most
FD_STEP = 1e-6  # Newton's central-difference step; iterates keep this far from Re s = 1
SHRINK = (1.0, 0.6, 0.35, 0.2, 0.1)  # circle radii of refine_zero, as fractions of r0


def _circle_scan(H: Callable, circle: Circle):
    """Winding count from :func:`winding_scan`, then, over its samples, the
    boundary minimum net of evaluation error and of a margin from sampled
    slopes, and the largest evaluation budget on the circle."""
    winding, samples = winding_scan(H, circle)
    radius = circle.radius
    ts = sorted(samples)
    vs = [samples[t] for t in ts]
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


def _on_disk(H: Callable, center: complex, radius: float) -> Callable:
    """H on the closed disk around center: one Taylor model per spec for an
    anchored evaluator, H itself (called at every point) for any other
    callable."""
    if isinstance(H, AnchoredCombEvaluator):
        return H.disk(center, radius)
    return H


def refine_zero(H: Callable, s0: complex, r0: float) -> ZeroCertificate:
    """Newton-polish a zero of H near s0 and certify it by winding counts on
    shrinking circles.  A circle that winds but whose margins miss the
    truncation budget gives a ``numeric-only`` certificate; when no circle
    winds, ``NoZeroFound`` is raised.  H maps a point to an
    :class:`zerosep.euler.EvalResult`.

    Each Newton step is clipped to r0, so the steps left at iteration ``it``
    travel at most ``(NEWTON_ITERS - it) * r0``; a raw step beyond that
    points at a zero out of reach, and Newton stops there.  The one
    half-plane rule: Newton also stops when the clipped step would bring the
    next iterate within ``FD_STEP`` of Re s = 1, where its differences would
    leave the half-plane.  The circles then scan around the best point found,
    each one only if it stays inside Re s > 1, and decide the verdict
    (:meth:`ZeroCertificate.gap`).  H is analytic in Re(s) > 1, so a circle
    that winds 0 holds no zero, and neither does any smaller one: the ladder
    ends there.
    """
    s0 = complex(s0)
    if s0.real - r0 <= 1.0:
        raise DomainError("certification disk must stay inside Re(s) > 1")
    start = H(s0)
    s = s0
    best_s, best_abs = s0, abs(start.value)
    stop = None
    for it in range(NEWTON_ITERS):
        Hs = _on_disk(H, s, FD_STEP)
        v0 = Hs(s).value
        d = (Hs(s + FD_STEP).value - Hs(s - FD_STEP).value) / (2.0 * FD_STEP)
        if abs(v0) < best_abs:
            best_s, best_abs = s, abs(v0)
        if d == 0:
            break
        step = -v0 / d
        left = NEWTON_ITERS - it
        if abs(step) > left * r0:
            stop = (
                f"Newton's step {abs(step):.2g} at |H| = {abs(v0):.1e} exceeds the "
                f"{left * r0:.2g} that {left} step{'s' if left > 1 else ''} of at "
                f"most r0 = {r0:g} can travel")
            break
        clipped = step * (r0 / abs(step)) if abs(step) > r0 else step
        if (s + clipped).real - FD_STEP <= 1.0:
            stop = (f"Newton's step {abs(step):.2g} at |H| = {abs(v0):.1e} would "
                    f"bring the next iterate within {FD_STEP:g} of the half-plane "
                    f"boundary Re s = 1")
            break
        s += clipped
        if abs(clipped) < 1e-14 * max(1.0, abs(s)):
            break
    # each point is evaluated directly once: the start, the last iterate and
    # the centre coincide when Newton stops at once
    v = start if s == s0 else H(s)
    if abs(v.value) < best_abs:
        best_s, best_abs = s, abs(v.value)
    center = best_s
    at_center = v if center == s else start if center == s0 else H(center)

    found = None
    radii = [r0 * frac for frac in SHRINK if center.real - r0 * frac > 1.0]
    Hc = _on_disk(H, center, max(radii)) if radii else H
    for r in radii:
        try:
            w, bmin, tmax = _circle_scan(Hc, Circle(center, r))
        except ContourTooClose:
            continue
        if w < 1:
            break
        found = ZeroCertificate(center=center, radius=r, winding=w,
                                boundary_min=bmin, tail_budget=tmax,
                                g_min_on_disk=None, status="numeric-only",
                                value_at_center=at_center.value)
        if found.gap() is None:
            return replace(found, status="certified")
    if found is not None:
        return found
    raise NoZeroFound(
        f"{stop}, and no circle wound" if stop else
        f"Newton stalled at |H| = {best_abs:.3e} and no circle wound")


NONCOINCIDENCE_RINGS = 6  # concentric rings certify_noncoincidence samples
NONCOINCIDENCE_SAMPLES = 48  # points on each ring


def certify_noncoincidence(cert: ZeroCertificate, g_comb: Callable) -> ZeroCertificate:
    """Lower-bound the partner combination on the closed certificate disk.

    Dense ring sampling, less a Lipschitz margin taken from the slopes
    between sampled points and less the partner's own truncation budget.
    The bound is recorded as ``g_min_on_disk``, and
    :meth:`ZeroCertificate.gap` decides the status: a bound that does not
    clear the tail budget, a non-positive one included, gives
    ``numeric-only``.  g_comb maps a point to an
    :class:`zerosep.euler.EvalResult`.
    """
    if cert.winding < 1:
        raise DomainError("certificate must carry winding >= 1")
    rings, samples = NONCOINCIDENCE_RINGS, NONCOINCIDENCE_SAMPLES
    pts = [cert.center]
    for i in range(1, rings + 1):
        r = cert.radius * i / rings
        for k in range(samples):
            pts.append(cert.center + r * cmath.exp(2j * math.pi * k / samples))
    g_disk = _on_disk(g_comb, cert.center, cert.radius)
    vals = [g_disk(p) for p in pts]
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
    out = replace(cert, g_min_on_disk=float(gmin))
    return replace(out, status="numeric-only" if out.gap() else "certified")

