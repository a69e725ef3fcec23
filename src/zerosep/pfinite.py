"""Prime-finite Dirichlet series: finite sums over smooth integers, optionally
divided by finite Euler factors that never vanish on Re(s) >= 1.

These are the coefficient objects for polynomial combinations.  They evaluate
in closed form anywhere in Re(s) >= 1, so they carry no truncation budget.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .primes import factorize


@dataclass(frozen=True)
class PFiniteSeries:
    """Finite Dirichlet sum times inverses of nonvanishing finite Euler factors.

    ``terms`` holds (n, a(n)) pairs; ``inverse_factors`` holds (p, (c_1..c_d))
    entries standing for the reciprocal of 1 + c_1 p^-s + ... + c_d p^-ds.
    Each factor is checked at construction to be zero-free on Re(s) >= 1.
    """

    terms: tuple[tuple[int, complex], ...] = ()
    inverse_factors: tuple[tuple[int, tuple[complex, ...]], ...] = ()
    description: str = field(default="", compare=False)

    def __post_init__(self):
        for n, _ in self.terms:
            if not isinstance(n, int) or n < 1:
                raise DomainError(f"term index must be a positive integer, got {n!r}")
        seen = [n for n, _ in self.terms]
        if len(seen) != len(set(seen)):
            raise DomainError("duplicate term indices")
        for p, coeffs in self.inverse_factors:
            if not isinstance(p, int) or p < 2:
                raise DomainError(f"inverse factor prime must be >= 2, got {p!r}")
            if len(coeffs) == 0:
                raise DomainError("inverse factor needs at least one coefficient")
            # roots of c_d x^d + ... + c_1 x + 1 in x = p^-s; zero-free on
            # Re(s) >= 1 means no root with |x| <= 1/p
            roots = np.roots(list(coeffs[::-1]) + [1.0])
            if len(roots) and np.min(np.abs(roots)) <= 1.0 / p + 1e-12:
                raise DomainError(
                    f"inverse Euler factor at p={p} vanishes somewhere on Re(s) >= 1")

    # --- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: complex, description: str = "") -> "PFiniteSeries":
        c = complex(c)
        if c == 0:
            return PFiniteSeries((), (), description or "0")
        return PFiniteSeries(((1, c),), (), description)

    @staticmethod
    def from_terms(terms: dict[int, complex], description: str = "") -> "PFiniteSeries":
        items = tuple(sorted((int(n), complex(a)) for n, a in terms.items()
                             if complex(a) != 0))
        return PFiniteSeries(items, (), description)

    def times_inverse_factor(self, p: int, coeffs) -> "PFiniteSeries":
        base = self.terms if self.terms else ((1, 1.0 + 0.0j),)
        return PFiniteSeries(base,
                             self.inverse_factors + ((int(p), tuple(map(complex, coeffs))),),
                             self.description)

    # --- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return len(self.terms) == 0 and len(self.inverse_factors) == 0

    @property
    def support_primes(self) -> frozenset:
        ps: set[int] = set()
        for n, _ in self.terms:
            ps.update(factorize(n))
        for p, _ in self.inverse_factors:
            ps.add(p)
        return frozenset(ps)

    def scaled(self, lam: complex) -> "PFiniteSeries":
        lam = complex(lam)
        if lam == 0:
            return PFiniteSeries((), (), self.description)
        return PFiniteSeries(tuple((n, a * lam) for n, a in self.terms),
                             self.inverse_factors, self.description)

    # --- evaluation --------------------------------------------------------

    def value(self, s: complex) -> complex:
        """Closed-form value; valid for Re(s) >= 1."""
        if self.is_zero:
            return 0.0 + 0.0j
        s = complex(s)
        total = 0.0 + 0.0j
        for n, a in (self.terms or ((1, 1.0 + 0.0j),)):
            total += a * cmath.exp(-s * math.log(n)) if n > 1 else a
        for p, coeffs in self.inverse_factors:
            x = cmath.exp(-s * math.log(p))
            fac = 1.0 + 0.0j
            xe = 1.0 + 0.0j
            for c in coeffs:
                xe *= x
                fac += c * xe
            total /= fac
        return total

    def value_anchored(self, sigma: float, phase_of) -> complex:
        """Value at s = sigma + i t with per-prime reduced phases.

        ``phase_of(p)`` must return t*log(p) mod 2*pi; smooth indices are
        factored so huge t never multiplies a float log directly.
        """
        if self.is_zero:
            return 0.0 + 0.0j
        total = 0.0 + 0.0j
        for n, a in (self.terms or ((1, 1.0 + 0.0j),)):
            if n == 1:
                total += a
                continue
            phase = 0.0
            for p, e in factorize(n).items():
                phase += e * phase_of(p)
            total += a * n ** (-sigma) * cmath.exp(-1j * phase)
        for p, coeffs in self.inverse_factors:
            x = p ** (-sigma) * cmath.exp(-1j * phase_of(p))
            fac = 1.0 + 0.0j
            xe = 1.0 + 0.0j
            for c in coeffs:
                xe *= x
                fac += c * xe
            total /= fac
        return total

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = [f"({a:.6g})/{n}^s" if n > 1 else f"({a:.6g})"
                 for n, a in self.terms]
        body = " + ".join(parts) if parts else "1"
        for p, coeffs in self.inverse_factors:
            cs = " + ".join(f"({c:.6g})*{p}^-{k + 1}s" for k, c in enumerate(coeffs))
            body += f" / (1 + {cs})"
        return body
