import math

import numpy as np
import pytest

from zerosep.characters import dirichlet_characters, euler_phi, unit_group
from zerosep.errors import DomainError


def test_q1_trivial():
    chars = dirichlet_characters(1)
    assert len(chars) == 1
    assert all(chars[0].value(n) == 1 for n in range(1, 10))


def test_q3_two_characters():
    chars = dirichlet_characters(3)
    assert len(chars) == 2
    assert chars[0].is_principal
    chi = chars[1]
    assert abs(chi.value(2) - (-1)) < 1e-14
    assert chi.value(3) == 0
    assert abs(chi.value(4) - 1) < 1e-14


def test_q5_generator_powers():
    chars = dirichlet_characters(5)
    assert len(chars) == 4
    vals = sorted((chars[k].value(2) for k in range(4)),
                  key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    expect = sorted([1, 1j, -1, -1j], key=lambda z: (round(z.real, 9),
                                                     round(z.imag, 9)))
    assert all(abs(a - b) < 1e-12 for a, b in zip(vals, expect))


def test_counts_match_phi():
    for q in range(1, 50):
        assert len(dirichlet_characters(q)) == euler_phi(q)


def test_complete_multiplicativity():
    for q in (5, 8, 12, 15):
        for chi in dirichlet_characters(q):
            for m in range(1, 2 * q):
                for n in range(1, 2 * q, 3):
                    assert abs(chi.value(m * n) - chi.value(m) * chi.value(n)) < 1e-12


def test_values_zero_iff_common_factor():
    for q in (6, 9, 10):
        for chi in dirichlet_characters(q):
            for n in range(2 * q):
                if math.gcd(n, q) > 1:
                    assert chi.value(n) == 0
                else:
                    assert abs(abs(chi.value(n)) - 1) < 1e-12


def test_orthogonality_exact_to_1e12():
    for q in (3, 4, 5, 8, 16, 24, 60, 200):
        chars = dirichlet_characters(q)
        V = np.array([[c.value(n) for n in range(q)] for c in chars])
        G = V @ V.conj().T
        assert np.max(np.abs(G - euler_phi(q) * np.eye(len(chars)))) < 1e-12


def test_vectorized_matches_scalar():
    for q in (7, 8):
        for chi in dirichlet_characters(q):
            ns = np.arange(1, 100)
            vv = chi.values(ns)
            sv = np.array([chi.value(int(n)) for n in ns])
            assert np.max(np.abs(vv - sv)) == 0.0


def test_unit_group_structure():
    gens, orders = unit_group(8)
    assert sorted(orders) == [2, 2]
    gens, orders = unit_group(5)
    assert orders == (4,)
    with pytest.raises(DomainError):
        unit_group(0)
