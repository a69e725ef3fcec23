import cmath
import math

import pytest

from zerosep.errors import DomainError
from zerosep.pfinite import PFiniteSeries


def test_constant_and_zero():
    c = PFiniteSeries.constant(2 - 1j)
    assert c.value(2.0) == 2 - 1j
    assert c.support_primes == frozenset()
    z = PFiniteSeries.constant(0)
    assert z.is_zero and z.value(2.0) == 0


def test_finite_sum_value():
    # 1 - 2^(1-s) = 1 - 2 * 2^-s
    ser = PFiniteSeries.from_terms({1: 1.0, 2: -2.0})
    s = 1.7 + 0.4j
    expect = 1.0 - 2.0 * cmath.exp(-(s - 1) * math.log(2)) / 2 ** 1
    assert abs(ser.value(s) - (1 - 2 ** (1 - s))) < 1e-14
    assert ser.support_primes == frozenset({2})


def test_boundary_line_values():
    # vanishes on sigma = 1 exactly at t = 2 pi k / log 2
    ser = PFiniteSeries.from_terms({1: 1.0, 2: -2.0})
    t_zero = 2 * math.pi / math.log(2)
    assert abs(ser.value(complex(1.0, t_zero))) < 1e-12
    t_max = math.pi / math.log(2)
    assert abs(abs(ser.value(complex(1.0, t_max))) - 2.0) < 1e-12


def test_smoothness_of_support():
    ser = PFiniteSeries.from_terms({12: 1.0, 5: 2.0})
    assert ser.support_primes == frozenset({2, 3, 5})


def test_inverse_factor_value_and_check():
    # 1/(1 - 2^-s): zero-free on Re(s) >= 1 since the root sits at |x| = 1
    ser = PFiniteSeries.constant(1.0).times_inverse_factor(2, [-1.0])
    s = 1.5 + 0.7j
    assert abs(ser.value(s) - 1.0 / (1.0 - 2.0 ** (-s))) < 1e-14
    assert 2 in ser.support_primes
    # a factor vanishing inside Re(s) > 1 must be rejected: 1 - 3 * 2^-s has
    # its root at 2^-s = 1/3, i.e. |x| = 1/3 > 1/2? no: 1/3 < 1/2, rejected
    with pytest.raises(DomainError):
        PFiniteSeries.constant(1.0).times_inverse_factor(2, [-3.0])
    # an inverse factor stands at a prime: 4 is refused
    with pytest.raises(DomainError, match="must be a prime, got 4"):
        PFiniteSeries.constant(1.0).times_inverse_factor(4, [-0.5])


def test_anchored_value_matches_direct():
    ser = PFiniteSeries.from_terms({1: 0.5, 6: 2.0, 8: -1.0})
    ser = ser.times_inverse_factor(3, [-0.5])
    sigma, t = 1.2, 7.3
    direct = ser.value(complex(sigma, t))
    anchored = ser.value_anchored(sigma, lambda p: (t * math.log(p)) % (2 * math.pi))
    assert abs(direct - anchored) < 1e-12


def test_validation_rejects_bad_terms():
    with pytest.raises(DomainError):
        PFiniteSeries(((0, 1.0),), ())
    with pytest.raises(DomainError):
        PFiniteSeries(((2, 1.0), (2, 2.0)), ())
