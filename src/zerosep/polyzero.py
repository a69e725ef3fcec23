"""Complex multivariate polynomial machinery: witness zeros off the coordinate
hyperplanes, coefficient-stability radii, and winding numbers around circles.

:func:`winding_scan` is the package's one argument-principle routine, and
``locate`` certifies zeros on the samples it takes around a :class:`Circle`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (CertificateFailure, ContourTooClose, DegenerateInput,
                     DomainError, MonomialDegenerate, RefinementExhausted,
                     SearchExhausted)


@dataclass(frozen=True)
class ComplexPolynomial:
    """Multivariate polynomial with plain complex coefficients."""

    num_vars: int
    monomials: tuple[tuple[complex, tuple[int, ...]], ...]

    def __post_init__(self):
        seen = set()
        for c, exps in self.monomials:
            if len(exps) != self.num_vars:
                raise DomainError("exponent vector length must equal num_vars")
            if any(e < 0 for e in exps):
                raise DomainError("exponents must be nonnegative")
            if c == 0:
                raise DomainError("zero coefficients are not stored")
            if exps in seen:
                raise DomainError(f"duplicate exponent vector {exps}")
            seen.add(exps)

    @staticmethod
    def from_dict(num_vars: int, coeffs: dict) -> "ComplexPolynomial":
        mono = tuple(sorted(((complex(c), tuple(e)) for e, c in coeffs.items()
                             if complex(c) != 0), key=lambda m: m[1]))
        return ComplexPolynomial(num_vars, mono)

    @property
    def is_zero(self) -> bool:
        return len(self.monomials) == 0

    @property
    def is_monomial(self) -> bool:
        return len(self.monomials) == 1

    @property
    def degree(self) -> int:
        return max((sum(e) for _, e in self.monomials), default=0)

    @property
    def nonzero_coeff_count(self) -> int:
        return len(self.monomials)

    @property
    def coeff_scale(self) -> float:
        return max((abs(c) for c, _ in self.monomials), default=0.0)

    def evaluate(self, x: Sequence[complex]) -> complex:
        if len(x) != self.num_vars:
            raise DomainError("point dimension mismatch")
        total = 0.0 + 0.0j
        for c, exps in self.monomials:
            term = c
            for xi, e in zip(x, exps):
                if e:
                    term *= xi ** e
            total += term
        return total

    def restrict(self, y: Sequence[complex], u: Sequence[complex]) -> np.ndarray:
        """Coefficients (ascending in t) of the univariate p(t) = self(y + t u)."""
        out = np.zeros(self.degree + 1, dtype=np.complex128)
        for c, exps in self.monomials:
            term = np.array([c], dtype=np.complex128)
            for yj, uj, e in zip(y, u, exps):
                for _ in range(e):
                    term = np.convolve(term, np.array([yj, uj]))
            out[: len(term)] += term
        return out

    def perturbed(self, deltas: Sequence[complex]) -> "ComplexPolynomial":
        """New polynomial with delta[i] added to the i-th stored coefficient."""
        if len(deltas) != len(self.monomials):
            raise DomainError("one delta per nonzero coefficient")
        mono = tuple((c + d, exps) for (c, exps), d in zip(self.monomials, deltas))
        return ComplexPolynomial(self.num_vars, tuple(m for m in mono if m[0] != 0))


# --- univariate roots ----------------------------------------------------------


def univariate_roots(coeffs) -> tuple[complex, ...]:
    """All complex roots, with multiplicity, of the polynomial whose
    coefficients are ascending in the variable.

    Roots at the origin are stripped first.  Degrees 1 and 2 are solved in
    closed form, higher degrees by ``np.roots`` (companion-matrix
    eigenvalues).  A multiple root comes back as that many nearby roots.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if len(c) == 0 or not np.any(c != 0):
        raise DegenerateInput("zero polynomial")
    scale = float(np.max(np.abs(c)))
    c = np.trim_zeros(c / scale, "b")
    nzero = 0
    while len(c) > 0 and abs(c[0]) < 1e-300:
        c = c[1:]
        nzero += 1
    deg = len(c) - 1
    if deg + nzero == 0:
        raise DegenerateInput("degree zero polynomial has no roots")

    roots: list[complex] = [0.0 + 0.0j] * nzero
    if deg == 1:
        roots.append(-c[0] / c[1])
    elif deg == 2:
        a2, a1, a0 = c[2], c[1], c[0]
        disc = cmath.sqrt(a1 * a1 - 4 * a2 * a0)
        # stable quadratic: avoid cancellation in the small root
        qq = -(a1 + disc) / 2 if abs(a1 + disc) >= abs(a1 - disc) else -(a1 - disc) / 2
        roots.extend([qq / a2, a0 / qq] if qq != 0 else [0.0, 0.0])
    elif deg >= 3:
        roots.extend(np.roots(c[::-1]).tolist())
    return tuple(roots)


# --- separating zeros --------------------------------------------------------


@dataclass(frozen=True)
class SeparatingZero:
    """Witness x with f(x) = 0, coordinates off zero, and g(x) away from zero."""

    x: np.ndarray
    base: np.ndarray
    direction: np.ndarray
    line_parameter: complex


def _random_annulus(rng: np.random.Generator, n: int) -> np.ndarray:
    """n random points with modulus uniform in [1/2, 2]."""
    radii = rng.uniform(0.5, 2.0, n)
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    return radii * np.exp(1j * angles)


ZERO_FLOOR = 1e-6  # smallest |x_j| a separating zero may have
MAX_RETRIES = 200  # random lines find_separating_zero tries


def find_separating_zero(f: ComplexPolynomial, g: ComplexPolynomial,
                         g_margin: float = 1e-6, seed: int = 0) -> SeparatingZero:
    """Zero of f with all |x_j| >= ``ZERO_FLOOR`` and |g| >= ``g_margin``.

    Restricts f to random complex lines and solves the univariate restriction;
    candidate roots are filtered by the floor and margin constraints and the
    search retries with fresh randomness.
    """
    if f.is_zero or g.is_zero:
        raise DegenerateInput("f and g must be nonzero")
    if f.is_monomial:
        raise MonomialDegenerate(
            "f is a monomial; each of its zeros has a vanishing coordinate")
    rng = np.random.default_rng(seed)
    n = f.num_vars
    diag = {"attempts": 0, "degenerate_lines": 0, "rejected_floor": 0,
            "rejected_margin": 0, "rejected_residual": 0, "no_roots": 0}
    for attempt in range(1, MAX_RETRIES + 1):
        diag["attempts"] = attempt
        y = _random_annulus(rng, n)
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        u = u / np.linalg.norm(u)
        coeffs = f.restrict(y, u)
        if not np.any(np.abs(coeffs) > 1e-12 * max(f.coeff_scale, 1e-300)):
            diag["degenerate_lines"] += 1
            continue
        if len(np.trim_zeros(coeffs, "b")) <= 1:
            diag["no_roots"] += 1
            continue
        for t in univariate_roots(coeffs):
            x = y + t * u
            scale = max(f.coeff_scale, 1e-300) * max(1.0, float(np.max(np.abs(x)))) ** f.degree
            fres = abs(f.evaluate(x))
            if fres > 1e-10 * scale:
                diag["rejected_residual"] += 1
                continue
            if float(np.min(np.abs(x))) < ZERO_FLOOR:
                diag["rejected_floor"] += 1
                continue
            gval = abs(g.evaluate(x))
            if gval < g_margin:
                diag["rejected_margin"] += 1
                continue
            return SeparatingZero(x=x, base=y, direction=u, line_parameter=t)
    raise SearchExhausted(
        f"no separating zero found in {MAX_RETRIES} attempts", diagnostics=diag)


# --- coefficient stability radius --------------------------------------------


@dataclass(frozen=True)
class RoucheCertificate:
    """Admissible coefficient perturbation keeping a zero of f inside a disk
    while g stays zero-free there.

    gamma1 and gamma2 are certified circle minima (sampled minima minus a
    derivative margin); delta satisfies both admissibility inequalities with a
    10 percent safety factor.
    """

    base_point: tuple[complex, ...]
    direction: tuple[complex, ...]
    inner_radius: float
    gamma1: float
    gamma2: float
    delta: float


def _circle_lipschitz(coeffs: np.ndarray, radius: float) -> float:
    """Bound for |d/dt p(t)| on |t| <= radius from the coefficient norms."""
    ks = np.arange(1, len(coeffs))
    if len(ks) == 0:
        return 0.0
    return float(np.sum(ks * np.abs(coeffs[1:]) * radius ** (ks - 1)))


ROUCHE_SAMPLES = 1024  # circle samples behind each certified minimum
ROUCHE_RINGS = 8  # concentric rings of samples behind each certified disk minimum
ROUCHE_ZERO_TOL = 1e-8  # relative |f(y)| under which y counts as a zero of f
_ROUCHE_RING = np.exp(2j * math.pi * np.arange(ROUCHE_SAMPLES) / ROUCHE_SAMPLES)


def _certified_circle_min(coeffs: np.ndarray, radius: float) -> float:
    ts = radius * _ROUCHE_RING
    vals = np.abs(np.polyval(coeffs[::-1], ts))
    lip = _circle_lipschitz(coeffs, radius)
    # adjacent samples are 2 r sin(pi/m) apart; the min between samples can
    # undershoot by at most lip * half-arc
    margin = lip * (math.pi * radius / ROUCHE_SAMPLES)
    return float(np.min(vals) - margin)


def _certified_disk_min(coeffs: np.ndarray, radius: float) -> float:
    lip = _circle_lipschitz(coeffs, radius)
    radii = radius * np.arange(1, ROUCHE_RINGS + 1) / ROUCHE_RINGS
    pts = np.concatenate([[0.0 + 0.0j],
                          (radii[:, None] * _ROUCHE_RING[None, :]).ravel()])
    vals = np.abs(np.polyval(coeffs[::-1], pts))
    # the sample mesh of the ring/angle grid is at most this wide
    mesh = max(radius / ROUCHE_RINGS, math.pi * radius / ROUCHE_SAMPLES)
    return float(np.min(vals) - lip * mesh)


def rouche_delta(f: ComplexPolynomial, g: ComplexPolynomial, y: Sequence[complex],
                 eps: float, seed: int = 0) -> RoucheCertificate:
    """Coefficient perturbation radius under which the zero of f at y survives
    inside a disk on a generic line while g stays zero-free on that disk.

    Follows the circle-minimum construction: pick a random direction whose
    restrictions of f and g are not identically zero, scan inner radii below
    eps until both restricted minima certify positive, then solve the two
    admissibility inequalities for delta and keep 90 percent of it.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    y = np.asarray(y, dtype=np.complex128)
    scale_f = max(f.coeff_scale, 1e-300) * max(1.0, float(np.max(np.abs(y)))) ** f.degree
    if abs(f.evaluate(y)) > ROUCHE_ZERO_TOL * scale_f:
        raise DomainError("y is not a zero of f at the required tolerance")
    if abs(g.evaluate(y)) == 0.0:
        raise DomainError("g vanishes at y")
    rng = np.random.default_rng(seed)

    fr = gr = None
    for _ in range(20):
        u = rng.normal(size=f.num_vars) + 1j * rng.normal(size=f.num_vars)
        u = u / np.linalg.norm(u)
        fr = f.restrict(y, u)
        gr = g.restrict(y, u)
        if (np.any(np.abs(fr) > 1e-12 * max(f.coeff_scale, 1e-300))
                and np.any(np.abs(gr) > 1e-12 * max(g.coeff_scale, 1e-300))):
            break
    else:
        raise CertificateFailure("no direction with nondegenerate restrictions")

    norm_y = float(np.linalg.norm(y))
    growth_f = (1.0 + eps + norm_y) ** f.degree
    growth_g = (1.0 + eps + norm_y) ** g.degree

    for frac in (0.8, 0.6, 0.45, 0.3, 0.2, 0.12, 0.07, 0.04, 0.02):
        rad = frac * eps
        gamma1 = _certified_circle_min(fr, rad)
        if gamma1 <= 0:
            continue
        gamma2 = _certified_circle_min(gr, rad)
        disk_min_g = _certified_disk_min(gr, rad)
        if gamma2 <= 0 or disk_min_g <= 0:
            continue
        delta = 0.9 * min(
            gamma1 / (f.nonzero_coeff_count * growth_f),
            min(gamma1, gamma2) / (g.nonzero_coeff_count * growth_g),
        )
        if delta <= 0:
            continue
        return RoucheCertificate(
            base_point=tuple(map(complex, y)), direction=tuple(map(complex, u)),
            inner_radius=float(rad), gamma1=float(gamma1),
            gamma2=float(gamma2), delta=float(delta))
    raise CertificateFailure(
        f"no radius below eps={eps} certified positive minima at "
        f"{ROUCHE_SAMPLES} samples")


# --- winding numbers ----------------------------------------------------------


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float

    def point(self, t: float) -> complex:
        return self.center + self.radius * cmath.exp(2j * math.pi * t)


WINDING_SAMPLES = 48  # evenly spaced samples a winding scan starts from
WINDING_MAX_SAMPLES = 4096  # samples after which a winding scan gives up


def winding_scan(h: Callable, contour) -> tuple[int, dict]:
    """Winding number of h around the contour, with every sample it took as
    ``{t: h(contour.point(t))}`` (h may return anything ``complex()`` accepts).

    The one adaptive argument-principle scan: it bisects until every
    successive phase step is under pi/2, so the integer count is
    unambiguous, and raises if h is exactly 0 at a sample or the sample cap
    is hit first.  It starts from ``WINDING_SAMPLES`` samples and stops at
    ``WINDING_MAX_SAMPLES``.
    """
    params = [i / WINDING_SAMPLES for i in range(WINDING_SAMPLES)] + [1.0]
    samples = {}

    def val(t: float) -> complex:
        if t in samples:
            return complex(samples[t])
        samples[t] = h(contour.point(t))
        v = complex(samples[t])
        if v == 0:
            raise ContourTooClose(
                f"h = 0 at contour parameter {t:.6f}: the contour passes "
                "through a zero")
        return v

    for t in params:
        val(t)
    # bisect intervals until phase steps are small
    work = [(params[i], params[i + 1]) for i in range(len(params) - 1)]
    safe: list[tuple[float, float]] = []
    while work:
        a, b = work.pop()
        ratio = val(b) / val(a)
        if abs(cmath.phase(ratio)) < math.pi / 2:
            safe.append((a, b))
            continue
        if len(samples) >= WINDING_MAX_SAMPLES:
            raise RefinementExhausted(
                f"phase step at [{a:.6f},{b:.6f}] unresolved at "
                f"{WINDING_MAX_SAMPLES} samples")
        mid = 0.5 * (a + b)
        val(mid)
        work.append((a, mid))
        work.append((mid, b))
    total = sum(cmath.phase(val(b) / val(a)) for a, b in safe)
    n = total / (2.0 * math.pi)
    k = round(n)
    if abs(n - k) > 0.25:
        raise RefinementExhausted(f"argument sum {n:.4f} is not close to an integer")
    return int(k), samples
