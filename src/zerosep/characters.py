"""Dirichlet characters built on unit-group generators with exact root-of-unity data.

A character mod q is stored as an integer exponent on each generator of
(Z/qZ)*, so its identity is exact integer data and its values only touch
floating point in the final exp(2*pi*i*k/e) call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import DomainError
from .primes import factorize


def _primitive_root_prime_power(p: int, e: int) -> int:
    """Primitive root of (Z/p^e Z)* for odd prime p."""
    phi_p = p - 1
    factors = list(factorize(phi_p))
    g = 2
    while True:
        if all(pow(g, phi_p // f, p) != 1 for f in factors):
            break
        g += 1
    if e == 1:
        return g
    # g or g+p generates mod p^2, and then mod every higher power
    if pow(g, phi_p, p * p) == 1:
        g += p
    return g


def _crt_lift(residue: int, modulus: int, q: int) -> int:
    """x = residue mod modulus, x = 1 mod q/modulus."""
    other = q // modulus
    if other == 1:
        return residue % q
    inv = pow(modulus, -1, other)
    # x = residue + modulus * k with k = (1 - residue)/modulus mod other
    k = ((1 - residue) * inv) % other
    return (residue + modulus * k) % q


@lru_cache(maxsize=None)
def unit_group(q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Generators of (Z/qZ)* lifted mod q, with their orders.

    The 2-part uses -1 and 5 when 8 | q; odd prime powers contribute one
    primitive root each. q = 1 and q = 2 give the trivial group.
    """
    if q < 1:
        raise DomainError("modulus must be positive")
    gens: list[int] = []
    orders: list[int] = []
    for p, e in factorize(q).items():
        pe = p ** e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                gens.append(_crt_lift(3, 4, q))
                orders.append(2)
            else:
                gens.append(_crt_lift(pe - 1, pe, q))
                orders.append(2)
                gens.append(_crt_lift(5, pe, q))
                orders.append(2 ** (e - 2))
        else:
            g = _primitive_root_prime_power(p, e)
            gens.append(_crt_lift(g, pe, q))
            orders.append(pe - pe // p)
    return tuple(gens), tuple(orders)


def euler_phi(q: int) -> int:
    phi = 1
    for p, e in factorize(q).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


@lru_cache(maxsize=None)
def _dlog_table(q: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Per-residue discrete logs w.r.t. the generator basis.

    Returns an array of shape (q, num_gens) with row a holding the exponent
    vector of a, or -1 rows for residues sharing a factor with q.
    """
    gens, orders = unit_group(q)
    table = -np.ones((q if q > 0 else 1, max(len(gens), 1)), dtype=np.int64)
    if q == 1:
        table[0, :] = 0
        return table, orders
    for ks in product(*(range(d) for d in orders)):
        a = 1
        for g, k in zip(gens, ks):
            a = (a * pow(g, k, q)) % q
        table[a, : len(gens)] = ks
    if not gens:
        table[1 % q, :] = 0
    return table, orders


@dataclass(frozen=True)
class Character:
    """Dirichlet character mod q defined by exponents on unit-group generators.

    ``exponents[i]`` sets the value on generator i to exp(2*pi*i*m/d_i).
    """

    modulus: int
    orders: tuple[int, ...]
    exponents: tuple[int, ...]
    _values: np.ndarray = field(repr=False, compare=False, default=None)

    @property
    def is_principal(self) -> bool:
        return all(m == 0 for m in self.exponents)

    @property
    def label(self) -> str:
        exps = ",".join(str(m) for m in self.exponents)
        return f"L(q={self.modulus};chi=[{exps}])"

    def _table(self) -> np.ndarray:
        tbl = object.__getattribute__(self, "_values")
        if tbl is None:
            q = self.modulus
            dlogs, _ = _dlog_table(q)
            coprime = dlogs[:, 0] >= 0
            # angle = 2*pi * sum_i k_i * m_i / d_i
            angle = np.zeros(max(q, 1), dtype=np.float64)
            for i, (m, d) in enumerate(zip(self.exponents, self.orders)):
                angle += np.where(coprime, dlogs[:, i], 0) * (2.0 * math.pi * m / d)
            tbl = np.where(coprime, np.exp(1j * angle), 0.0)
            object.__setattr__(self, "_values", tbl)
        return tbl

    def value(self, n: int) -> complex:
        q = self.modulus
        if q == 1:
            return 1.0 + 0.0j
        return complex(self._table()[int(n) % q])

    def values(self, ns: np.ndarray) -> np.ndarray:
        q = self.modulus
        if q == 1:
            return np.ones(len(ns), dtype=np.complex128)
        return self._table()[np.mod(np.asarray(ns, dtype=np.int64), q)]

    def __hash__(self):
        return hash((self.modulus, self.exponents))


def dirichlet_characters(q: int) -> list[Character]:
    """All phi(q) characters mod q, principal character first."""
    if q < 1:
        raise DomainError("modulus must be positive")
    _, orders = unit_group(q)
    chars = [Character(q, orders, exps)
             for exps in product(*(range(d) for d in orders))]
    chars.sort(key=lambda c: (not c.is_principal,) + c.exponents)
    return chars

