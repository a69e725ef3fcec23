"""Prime-finite Dirichlet series: finite sums over smooth integers, optionally
divided by finite Euler factors that never vanish on Re(s) >= 1.

These are the coefficient objects for polynomial combinations.  They evaluate
in closed form anywhere in Re(s) >= 1, so they carry no truncation budget.
``value`` and ``value_anchored`` share one series loop.  The kernel's
monomial combine (:func:`zerosep.combalg.combine`) and the auxiliary rewrite
read coefficients through them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from mpmath.libmp import isprime

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
            # the anchored evaluator reads log p from the prime table
            if not isinstance(p, int) or p < 2 or not isprime(p):
                raise DomainError(f"inverse factor modulus must be a prime, got {p!r}")
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
    def from_terms(terms: dict[int, complex]) -> "PFiniteSeries":
        items = tuple(sorted((int(n), complex(a)) for n, a in terms.items()
                             if complex(a) != 0))
        return PFiniteSeries(items)

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

    # --- evaluation --------------------------------------------------------

    def value(self, s: complex) -> complex:
        """Closed-form value; valid for Re(s) >= 1."""
        return self._value(_direct_term, complex(s))

    def value_anchored(self, sigma: float, phase_of) -> complex:
        """Value at s = sigma + i t with per-prime reduced phases.

        ``phase_of(p)`` must return t*log(p) mod 2*pi; smooth indices are
        factored so huge t never multiplies a float log directly.
        """
        return self._value(_anchored_term, sigma, phase_of)

    def _value(self, term, *point) -> complex:
        """The one series loop; ``term(n, a, *point)`` returns a n^-s, taking
        a so that each form keeps the product order its last bits depend on."""
        if self.is_zero:
            return 0.0 + 0.0j
        total = 0.0 + 0.0j
        for n, a in (self.terms or ((1, 1.0 + 0.0j),)):
            total += term(n, a, *point) if n > 1 else a
        for p, coeffs in self.inverse_factors:
            x = term(p, 1.0, *point)
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


def _direct_term(n: int, a: complex, s: complex) -> complex:
    return a * cmath.exp(-s * math.log(n))


def _anchored_term(n: int, a: complex, sigma: float, phase_of) -> complex:
    phase = 0.0
    for p, e in factorize(n).items():
        phase += e * phase_of(p)
    return a * n ** (-sigma) * cmath.exp(-1j * phase)
