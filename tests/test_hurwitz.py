import numpy as np
import pytest

from zerosep.errors import DomainError
from zerosep.hurwitz import hurwitz_as_combination, hurwitz_eval
from zerosep.locate import CombEvaluator


def test_hurwitz_equals_zeta_at_a_equals_q():
    # zeta(s, 1/1) is the plain zeta sum shifted by one index
    r = hurwitz_eval(1, 1, 2.0 + 0j, 200_000)
    n = np.arange(1, 200_002, dtype=float)
    direct = float(np.sum(n ** -2.0))
    assert abs(r.value - direct) <= r.abs_error_bound + 1e-12


def test_hurwitz_half_rearrangement():
    # sum over (n + 1/2)^-2 equals 4 * sum over odd m of m^-2
    r = hurwitz_eval(1, 2, 2.0 + 0j, 500_000)
    m = np.arange(1, 1_000_002, 2, dtype=float)
    oracle = 4.0 * float(np.sum(m ** -2.0))
    oracle_tail = 4.0 * (1_000_000.0) ** (-1.0)
    assert abs(r.value - oracle) <= r.abs_error_bound + oracle_tail


def test_hurwitz_domain_checks():
    with pytest.raises(DomainError):
        hurwitz_eval(2, 4, 2.0, 100)  # gcd(2,4) != 1
    with pytest.raises(DomainError):
        hurwitz_eval(1, 3, 1.0, 100)  # sigma <= 1
    with pytest.raises(DomainError):
        hurwitz_eval(4, 3, 2.0, 100)  # a > q


def test_combination_structure_q3():
    poly, specs, pref = hurwitz_as_combination(1, 3)
    assert poly.num_vars == 2 and len(specs) == 2
    coeffs = [c.value(2.0) for c, _ in poly.monomials]
    assert all(abs(c - 1) < 1e-14 for c in coeffs)  # x_chi0 + x_chi1
    poly2, _, _ = hurwitz_as_combination(2, 3)
    vals2 = sorted(c.value(2.0).real for c, _ in poly2.monomials)
    assert abs(vals2[0] + 1) < 1e-14 and abs(vals2[1] - 1) < 1e-14  # x0 - x1
    assert pref.base == 3 and pref.scale == 2


def test_combination_structure_q4():
    poly, specs, _ = hurwitz_as_combination(1, 4)
    assert poly.num_vars == 2
    assert all(abs(c.value(2.0) - 1) < 1e-14 for c, _ in poly.monomials)


def test_combination_matches_direct_eval():
    # cross-validation of the two routes at s = 3
    poly, specs, pref = hurwitz_as_combination(1, 3)
    s = 3.0 + 0j
    comb = CombEvaluator(poly, specs, 50_000).at(s)
    direct = hurwitz_eval(1, 3, s, 500_000)
    adjusted = comb.value * pref.value(s)
    budget = comb.abs_error_bound * abs(pref.value(s)) + direct.abs_error_bound
    assert abs(adjusted - direct.value) <= budget
