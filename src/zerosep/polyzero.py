"""Complex multivariate polynomial machinery: witness zeros off the coordinate
hyperplanes, coefficient-stability radii, and winding-number counts.

:func:`winding_scan` is the package's one argument-principle routine:
``locate`` certifies zeros on its circle samples and counts zeros in strips
with it on rectangles.
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


# --- univariate roots (simultaneous iteration) ------------------------------


@dataclass(frozen=True)
class RootCluster:
    center: complex
    multiplicity: int
    residual: float
    members: tuple[complex, ...]


@dataclass(frozen=True)
class RootResult:
    roots: tuple[complex, ...]          # all roots with multiplicity, flat
    clusters: tuple[RootCluster, ...]
    residuals: tuple[float, ...]
    iterations: int


def _polyval(coeffs: np.ndarray, z: complex) -> complex:
    acc = 0.0 + 0.0j
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def univariate_roots(coeffs, tol: float = 1e-14, max_iter: int = 400,
                     cluster_eps: float = 1e-7) -> RootResult:
    """All complex roots by simultaneous (Ehrlich-Aberth) iteration.

    Coefficients are ascending in the variable.  Roots at the origin are
    stripped first; the remaining roots are polished jointly with no
    deflation, then merged into clusters when closer than ``cluster_eps``.
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
    iterations = 0
    if deg == 1:
        roots.append(-c[0] / c[1])
    elif deg == 2:
        a2, a1, a0 = c[2], c[1], c[0]
        disc = cmath.sqrt(a1 * a1 - 4 * a2 * a0)
        # stable quadratic: avoid cancellation in the small root
        qq = -(a1 + disc) / 2 if abs(a1 + disc) >= abs(a1 - disc) else -(a1 - disc) / 2
        roots.extend([qq / a2, a0 / qq] if qq != 0 else [0.0, 0.0])
    elif deg >= 3:
        cn = c / c[-1]
        r_cauchy = 1.0 + float(np.max(np.abs(cn[:-1])))
        r0 = min(r_cauchy, 2.0 * max(float(np.max(np.abs(cn[:-1])) ** (1.0 / deg)), 0.5))
        angles = 2.0 * math.pi * np.arange(deg) / deg + 0.4
        z = r0 * np.exp(1j * angles) * (1.0 + 0.05 * np.cos(3 * angles))
        dc = cn[1:] * np.arange(1, deg + 1)
        for iterations in range(1, max_iter + 1):
            pv = np.polyval(cn[::-1], z)
            dv = np.polyval(dc[::-1], z)
            w = np.where(dv != 0, pv / np.where(dv == 0, 1, dv), 0.1)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            sums = np.sum(1.0 / diff, axis=1)
            denom = 1.0 - w * sums
            step = np.where(np.abs(denom) > 1e-300, w / denom, w)
            z = z - step
            if np.max(np.abs(step) / (1.0 + np.abs(z))) < tol:
                break
        # deflation-free polish on the original (scaled) coefficients
        for _ in range(3):
            pv = np.polyval(c[::-1], z)
            dv = np.polyval((c[1:] * np.arange(1, deg + 1))[::-1], z)
            upd = np.where(np.abs(dv) > 1e-300, pv / np.where(dv == 0, 1, dv), 0)
            znew = z - upd
            keep = np.abs(np.polyval(c[::-1], znew)) <= np.abs(pv)
            z = np.where(keep, znew, z)
        roots.extend(z.tolist())

    flat = tuple(roots)

    def _orig_residual(r: complex) -> float:
        # original polynomial is scale * t^nzero * (stripped poly)
        return float(abs(r) ** nzero * abs(_polyval(c, r)) * scale)

    residuals = tuple(_orig_residual(r) for r in flat)

    # cluster merge: two roots belong to one multiple-root blob when the
    # polynomial and its derivative are both numerically zero at their
    # midpoint (backward-error test), or when they sit within cluster_eps
    dcoeffs = c[1:] * np.arange(1, len(c)) if len(c) > 1 else np.array([0j])

    def _noise(z: complex) -> float:
        az = abs(z)
        return 8e-16 * float(np.sum(np.abs(c) * az ** np.arange(len(c))))

    def _same_blob(zi: complex, zj: complex) -> bool:
        dist = abs(zi - zj)
        if dist < cluster_eps * max(1.0, abs(zi)):
            return True
        mid = 0.5 * (zi + zj)
        noise = _noise(mid)
        return (abs(_polyval(c, mid)) <= 4.0 * noise
                and abs(_polyval(dcoeffs, mid)) * dist <= 16.0 * noise)

    nz_roots = list(flat[nzero:])
    parent = list(range(len(nz_roots)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(nz_roots)):
        for j in range(i + 1, len(nz_roots)):
            if find(i) != find(j) and _same_blob(nz_roots[i], nz_roots[j]):
                parent[find(j)] = find(i)

    groups: dict[int, list[complex]] = {}
    for i, r in enumerate(nz_roots):
        groups.setdefault(find(i), []).append(r)
    clusters = []
    if nzero:
        clusters.append(RootCluster(0.0 + 0.0j, nzero, 0.0, (0.0 + 0.0j,) * nzero))
    for members in groups.values():
        center = sum(members) / len(members)
        clusters.append(RootCluster(center, len(members),
                                    _orig_residual(center), tuple(members)))
    clusters.sort(key=lambda cl: (cl.center.real, cl.center.imag))
    return RootResult(flat, tuple(clusters), residuals, iterations)


# --- separating zeros --------------------------------------------------------


@dataclass(frozen=True)
class SeparatingZero:
    """Witness x with f(x) = 0, coordinates off zero, and g(x) away from zero."""

    x: np.ndarray
    base: np.ndarray
    direction: np.ndarray
    line_parameter: complex
    f_residual: float
    g_abs: float
    attempts: int
    seed: int

    def __iter__(self):
        return iter(self.x)

    def __len__(self):
        return len(self.x)


def _random_annulus(rng: np.random.Generator, n: int,
                    rmin: float = 0.5, rmax: float = 2.0) -> np.ndarray:
    radii = rng.uniform(rmin, rmax, n)
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    return radii * np.exp(1j * angles)


def find_separating_zero(f: ComplexPolynomial, g: ComplexPolynomial,
                         floor: float = 1e-6, g_margin: float = 1e-6,
                         max_retries: int = 200, seed: int = 0) -> SeparatingZero:
    """Zero of f with all coordinates at least ``floor`` and |g| >= ``g_margin``.

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
    for attempt in range(1, max_retries + 1):
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
        result = univariate_roots(coeffs)
        for t in result.roots:
            x = y + t * u
            scale = max(f.coeff_scale, 1e-300) * max(1.0, float(np.max(np.abs(x)))) ** f.degree
            fres = abs(f.evaluate(x))
            if fres > 1e-10 * scale:
                diag["rejected_residual"] += 1
                continue
            if float(np.min(np.abs(x))) < floor:
                diag["rejected_floor"] += 1
                continue
            gval = abs(g.evaluate(x))
            if gval < g_margin:
                diag["rejected_margin"] += 1
                continue
            return SeparatingZero(x=x, base=y, direction=u, line_parameter=t,
                                  f_residual=fres, g_abs=gval,
                                  attempts=attempt, seed=seed)
    raise SearchExhausted(
        f"no separating zero found in {max_retries} attempts", diagnostics=diag)


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
    eps: float
    inner_radius: float
    gamma1: float
    gamma2: float
    delta: float
    sample_count: int
    seed: int
    f_coeff_count: int
    g_coeff_count: int
    f_degree: int
    g_degree: int


def _circle_lipschitz(coeffs: np.ndarray, radius: float) -> float:
    """Bound for |d/dt p(t)| on |t| <= radius from the coefficient norms."""
    ks = np.arange(1, len(coeffs))
    if len(ks) == 0:
        return 0.0
    return float(np.sum(ks * np.abs(coeffs[1:]) * radius ** (ks - 1)))


def _certified_circle_min(coeffs: np.ndarray, radius: float, samples: int) -> float:
    ts = radius * np.exp(2j * math.pi * np.arange(samples) / samples)
    vals = np.abs(np.polyval(coeffs[::-1], ts))
    lip = _circle_lipschitz(coeffs, radius)
    # adjacent samples are 2 r sin(pi/m) apart; the min between samples can
    # undershoot by at most lip * half-arc
    margin = lip * (math.pi * radius / samples)
    return float(np.min(vals) - margin)


def _certified_disk_min(coeffs: np.ndarray, radius: float, rings: int,
                        samples: int) -> float:
    best = math.inf
    lip = _circle_lipschitz(coeffs, radius)
    pts = [0.0 + 0.0j]
    for i in range(1, rings + 1):
        r = radius * i / rings
        pts.extend((r * np.exp(2j * math.pi * np.arange(samples) / samples)).tolist())
    vals = np.abs(np.polyval(coeffs[::-1], np.array(pts)))
    # the sample mesh of the ring/angle grid is at most this wide
    mesh = max(radius / rings, math.pi * radius / samples)
    best = float(np.min(vals) - lip * mesh)
    return best


def rouche_delta(f: ComplexPolynomial, g: ComplexPolynomial, y: Sequence[complex],
                 eps: float, seed: int = 0, samples: int = 1024,
                 zero_tol: float = 1e-8) -> RoucheCertificate:
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
    if abs(f.evaluate(y)) > zero_tol * scale_f:
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
        gamma1 = _certified_circle_min(fr, rad, samples)
        if gamma1 <= 0:
            continue
        gamma2 = _certified_circle_min(gr, rad, samples)
        disk_min_g = _certified_disk_min(gr, rad, 8, samples)
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
            eps=float(eps), inner_radius=float(rad), gamma1=float(gamma1),
            gamma2=float(gamma2), delta=float(delta), sample_count=int(samples),
            seed=seed, f_coeff_count=f.nonzero_coeff_count,
            g_coeff_count=g.nonzero_coeff_count, f_degree=f.degree,
            g_degree=g.degree)
    raise CertificateFailure(
        f"no radius below eps={eps} certified positive minima at {samples} samples")


# --- winding numbers ----------------------------------------------------------


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float

    def point(self, t: float) -> complex:
        return self.center + self.radius * cmath.exp(2j * math.pi * t)


@dataclass(frozen=True)
class Rectangle:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def point(self, t: float) -> complex:
        w, h = self.re_max - self.re_min, self.im_max - self.im_min
        per = 2.0 * (w + h)
        d = (t % 1.0) * per
        if d < w:
            return complex(self.re_min + d, self.im_min)
        d -= w
        if d < h:
            return complex(self.re_max, self.im_min + d)
        d -= h
        if d < w:
            return complex(self.re_max - d, self.im_max)
        d -= w
        return complex(self.re_min, self.im_max - d)


@dataclass(frozen=True)
class WindingParams:
    initial_samples: int = 64
    max_samples: int = 65536
    min_edge_modulus: float = 0.0


def winding_scan(h: Callable, contour,
                 refinement: WindingParams = WindingParams()) -> tuple[int, dict]:
    """Winding number of h around the contour, with every sample it took as
    ``{t: h(contour.point(t))}`` (h may return anything ``complex()`` accepts).

    The one adaptive argument-principle scan: it bisects until every
    successive phase step is under pi/2, so the integer count is
    unambiguous, and raises if the modulus dips below the edge threshold or
    the sample cap is hit first.
    """
    m0 = max(refinement.initial_samples, 8)
    params = [i / m0 for i in range(m0)] + [1.0]
    samples = {}

    def val(t: float) -> complex:
        if t in samples:
            return complex(samples[t])
        samples[t] = h(contour.point(t))
        v = complex(samples[t])
        if abs(v) <= refinement.min_edge_modulus or v == 0:
            raise ContourTooClose(
                f"|h| = {abs(v):.3e} at contour parameter {t:.6f} is at or below "
                f"the edge threshold {refinement.min_edge_modulus:.3e}")
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
        if len(samples) >= refinement.max_samples:
            raise RefinementExhausted(
                f"phase step at [{a:.6f},{b:.6f}] unresolved at "
                f"{refinement.max_samples} samples")
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


def winding_number(h: Callable, contour,
                   refinement: WindingParams = WindingParams()) -> int:
    """Total argument change of h around the contour, divided by 2*pi
    (see :func:`winding_scan`)."""
    return winding_scan(h, contour, refinement)[0]
