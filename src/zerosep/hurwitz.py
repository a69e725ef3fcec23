"""Shifted zeta sums over rational offsets and their character decompositions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import dirichlet_characters, euler_phi
from .combalg import CombPolynomial
from .errors import DomainError
from .euler import EulerProductSpec, EvalResult, lfunction_spec
from .pfinite import PFiniteSeries

_CHUNK = 1 << 20


def hurwitz_eval(a: int, q: int, s: complex, N: int = 100_000) -> EvalResult:
    """Direct sum of (n + a/q)^-s for 0 <= n <= N with an integral tail bound.

    Serves as the independent oracle against the character-combination route.
    """
    a, q, N = int(a), int(q), int(N)
    if not (1 <= a <= q):
        raise DomainError("need 1 <= a <= q")
    if math.gcd(a, q) != 1:
        raise DomainError("a and q must be coprime")
    s = complex(s)
    sigma = s.real
    if sigma <= 1:
        raise DomainError("direct sum requires Re(s) > 1")
    alpha = a / q
    total = 0.0 + 0.0j
    for start in range(0, N + 1, _CHUNK):
        n = np.arange(start, min(start + _CHUNK, N + 1), dtype=np.float64)
        total += complex(np.sum(np.exp(-s * np.log(n + alpha))))
    tail = (N + alpha) ** (1.0 - sigma) / (sigma - 1.0)
    return EvalResult(total, tail)


@dataclass(frozen=True)
class DroppedPrefactor:
    """Record of the zero-free factor (base^s / scale) removed from a combination."""

    base: int
    scale: int

    def value(self, s: complex) -> complex:
        return complex(self.base) ** complex(s) / self.scale

    def describe(self) -> str:
        return f"{self.base}^s / {self.scale} (zero-free in Re(s) > 1)"


def hurwitz_as_combination(a: int, q: int) -> tuple[CombPolynomial,
                                                    list[EulerProductSpec],
                                                    DroppedPrefactor]:
    """Linear combination over the characters mod q matching the shifted zeta sum.

    Returns the polynomial sum over chi of conj(chi(a)) x_chi, the character
    Euler products, and the dropped prefactor q^s / phi(q); dropping it keeps
    the zero set intact in Re(s) > 1.
    """
    a, q = int(a), int(q)
    if not (1 <= a <= q):
        raise DomainError("need 1 <= a <= q")
    if math.gcd(a, q) != 1:
        raise DomainError("a and q must be coprime")
    chars = dirichlet_characters(q)
    specs = [lfunction_spec(chi) for chi in chars]
    n = len(chars)
    mono = []
    for j, chi in enumerate(chars):
        c = complex(chi.value(a)).conjugate()
        # character values are exact roots of unity; snap tiny float dust
        if abs(c.real) < 1e-15:
            c = complex(0.0, c.imag)
        if abs(c.imag) < 1e-15:
            c = complex(c.real, 0.0)
        exps = tuple(1 if i == j else 0 for i in range(n))
        mono.append((PFiniteSeries.constant(c), exps))
    poly = CombPolynomial(n, tuple(mono))
    return poly, specs, DroppedPrefactor(base=q, scale=euler_phi(q))
