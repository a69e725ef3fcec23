import cmath
import math

import numpy as np
import pytest

from zerosep import combalg
from zerosep.characters import dirichlet_characters
from zerosep.combalg import (CombPolynomial, SeparationProblem, build_auxiliary,
                             coprimality_sanity, find_nonvanishing_t0,
                             support_prime)
from zerosep.errors import ArityMismatch, DomainError, SearchFailure
from zerosep.euler import (eval_partial_euler, finite_euler_spec,
                           lfunction_spec, local_logs, zeta_spec)
from zerosep.hurwitz import hurwitz_as_combination, hurwitz_eval
from zerosep.locate import CombEvaluator
from zerosep.pfinite import PFiniteSeries
from zerosep.pipeline import builtin_problem


def c(x):
    return PFiniteSeries.constant(x)


def test_identity_polynomial_matches_spec_eval():
    f = CombPolynomial(1, ((c(1.0), (1,)),))
    z = zeta_spec()
    s = 1.8 + 0.5j
    r = CombEvaluator(f, [z], 10_000).at(s)
    direct = eval_partial_euler(z, s, 10_000)
    assert abs(r.value - direct.value) < 1e-14
    assert r.abs_error_bound >= direct.abs_error_bound * 0.99


def test_hurwitz_combination_at_2():
    poly, specs, pref = hurwitz_as_combination(1, 3)
    s = 2.0 + 0j
    r = CombEvaluator(poly, specs, 100_000).at(s)
    direct = hurwitz_eval(1, 3, s, 2_000_000)
    budget = r.abs_error_bound * abs(pref.value(s)) + direct.abs_error_bound
    assert abs(r.value * pref.value(s) - direct.value) <= budget


def test_coefficient_series_enters_product():
    ser = PFiniteSeries.from_terms({1: 1.0, 2: -2.0})  # 1 - 2^(1-s)
    f = CombPolynomial(1, ((ser, (0,)), (c(1.0), (1,))))
    z = zeta_spec()
    s = 2.0 + 0j
    r = CombEvaluator(f, [z], 10_000).at(s)
    # coefficient value at s=2 is 1 - 2^-1 = 1/2
    direct = eval_partial_euler(z, s, 10_000).value + 0.5
    assert abs(r.value - direct) < 1e-12


def test_linearity_in_coefficients():
    ser = c(1.0 + 2.0j)
    five_ser = PFiniteSeries.from_terms({1: 5.0 * (1.0 + 2.0j)})
    f1 = CombPolynomial(1, ((ser, (1,)), (c(3.0), (0,))))
    f2 = CombPolynomial(1, ((five_ser, (1,)), (c(3.0), (0,))))
    z = zeta_spec()
    s = 1.5 + 1j
    v1 = CombEvaluator(f1, [z], 1000).at(s).value - 3.0
    v2 = CombEvaluator(f2, [z], 1000).at(s).value - 3.0
    assert abs(v2 - 5.0 * v1) < 1e-12 * abs(v2)


def test_arity_mismatch():
    f = CombPolynomial(2, ((c(1.0), (1, 0)),))
    with pytest.raises(ArityMismatch):
        CombEvaluator(f, [zeta_spec()], 100)


def test_support_prime():
    f = CombPolynomial(1, ((PFiniteSeries.from_terms({6: 1.0}), (1,)),))
    g = CombPolynomial(1, ((PFiniteSeries.from_terms({5: 1.0}), (1,)),))
    assert support_prime(f, g) == 5
    assert support_prime(f, g) == support_prime(g, f)
    h1 = CombPolynomial(1, ((c(2.0), (1,)), (c(1.0), (0,))))
    assert support_prime(h1, h1) == 1
    pf, _, _ = hurwitz_as_combination(1, 3)
    pg, _, _ = hurwitz_as_combination(2, 3)
    assert support_prime(pf, pg) == 1


def _toy_problem():
    F1 = finite_euler_spec("tA", {2: 1.0})
    F2 = finite_euler_spec("tB", {5: 1.0})
    f = CombPolynomial(2, ((c(1.0), (1, 1)), (c(-1.1), (0, 0))))
    g = CombPolynomial(2, ((c(1.0), (1, 0)), (c(-1.0), (0, 1))))
    return SeparationProblem(f, g, (F1, F2), (F1, F2))


def test_separation_problem_structure():
    prob = _toy_problem()
    assert prob.shared_count == 2
    assert prob.total_vars == 2
    labels = [F.label for F in prob.variable_order]
    assert labels == ["tA", "tB"]


def test_separation_problem_disjoint_specs():
    F1 = finite_euler_spec("a1", {2: 1.0})
    F2 = finite_euler_spec("a2", {3: 1.0})
    G1 = finite_euler_spec("a1", {2: 1.0})  # shared by label
    G2 = finite_euler_spec("b2", {5: 1.0})
    f = CombPolynomial(2, ((c(1.0), (1, 0)), (c(1.0), (0, 1))))
    g = CombPolynomial(2, ((c(1.0), (1, 0)), (c(-1.0), (0, 1))))
    prob = SeparationProblem(f, g, (F1, F2), (G1, G2))
    assert prob.shared_count == 1
    assert prob.total_vars == 3
    assert [F.label for F in prob.variable_order] == ["a1", "a2", "b2"]
    # structural separation: g never reads the f-only slot and vice versa
    g_full = prob.g_on_full_vars()
    for _, exps in g_full.monomials:
        assert exps[1] == 0
    f_full = prob.f_on_full_vars()
    for _, exps in f_full.monomials:
        assert exps[2] == 0


def test_monomials_rejected():
    F1 = finite_euler_spec("tA", {2: 1.0})
    F2 = finite_euler_spec("tB", {5: 1.0})
    mono = CombPolynomial(2, ((c(1.0), (2, 1)),))
    ok = CombPolynomial(2, ((c(1.0), (1, 0)), (c(1.0), (0, 1))))
    with pytest.raises(DomainError):
        SeparationProblem(mono, ok, (F1, F2), (F1, F2))


def test_build_auxiliary_empty_cutoff():
    prob = _toy_problem()
    aux = build_auxiliary(prob)
    assert aux.cutoff_prime == 1
    s = 1.4 + 0.6j
    # with no absorbed local product the coefficients equal the originals
    vals = aux.coefficient_values(s)
    assert abs(vals[0] - 1.0) < 1e-14 and abs(vals[1] + 1.1) < 1e-14


def test_build_auxiliary_single_factor():
    # coefficient support {2} forces the cutoff to 2; the x1 monomial picks up
    # the absorbed local factor (1 - 2^-s)^(-1)
    z = zeta_spec()
    other = finite_euler_spec("oth", {3: 1.0})
    ser = PFiniteSeries.from_terms({2: 1.0})
    f = CombPolynomial(2, ((ser, (1, 0)), (c(1.0), (0, 1))))
    g = CombPolynomial(2, ((c(1.0), (1, 0)), (c(1.0), (0, 0))))
    prob = SeparationProblem(f, g, (z, other), (z, other))
    aux = build_auxiliary(prob)
    assert aux.cutoff_prime == 2
    s = 1.5 + 0.2j
    vals = aux.coefficient_values(s)
    expect = (2.0 ** (-s)) / (1.0 - 2.0 ** (-s))
    assert abs(vals[0] - expect) < 1e-10


def test_auxiliary_reproduces_comb_eval():
    # evaluating the rewritten polynomial at the tail products equals the
    # plain combination evaluation
    z = zeta_spec()
    chi = dirichlet_characters(3)[1]
    L = lfunction_spec(chi)
    ser = PFiniteSeries.from_terms({2: 0.5})
    f = CombPolynomial(2, ((ser, (1, 1)), (c(-0.7), (0, 1))))
    g = CombPolynomial(2, ((c(1.0), (1, 0)), (c(1.0), (0, 1))))
    prob = SeparationProblem(f, g, (z, L), (z, L))
    aux = build_auxiliary(prob)
    s = 1.6 + 0.9j
    P = 5000
    full = CombEvaluator(f, [z, L], P).at(s)
    # tail products over p > cutoff
    from zerosep.primes import primes_up_to
    ps = primes_up_to(P)
    tail_ps = ps[ps > aux.cutoff_prime]
    tails = []
    for F in (z, L):
        th = np.mod(s.imag * np.log(tail_ps.astype(float)), 2 * math.pi)
        tails.append(cmath.exp(complex(np.sum(local_logs(F, tail_ps, s.real, th)))))
    # f's coefficients come first in coefficient_values
    rebuilt = sum(v * tails[0] ** exps[0] * tails[1] ** exps[1]
                  for v, (_, exps) in zip(aux.coefficient_values(s), aux.f.monomials))
    assert abs(rebuilt - full.value) < 1e-8 * max(1.0, abs(full.value))


def test_auxiliary_sums_each_spec_head_once(monkeypatch):
    # charpair-mod5 absorbs p = 2 into five monomials over two specs; the
    # head log-sum of each spec is shared by every monomial of f and g
    aux = build_auxiliary(builtin_problem("charpair-mod5").build_problem())
    assert aux.cutoff_prime == 2
    calls = []

    def counting(*args):
        calls.append(args[0])
        return local_logs(*args)

    monkeypatch.setattr(combalg, "local_logs", counting)
    aux.coefficient_values(complex(1.0, 3.7))
    assert len(calls) == 2


def test_charpair_t0_search_is_pinned():
    # the only builtin whose auxiliary cutoff is 2: its t0 and coefficient
    # margin as the separation pipeline records them
    aux = build_auxiliary(builtin_problem("charpair-mod5").build_problem())
    t0 = find_nonvanishing_t0(aux)
    margin = min(abs(v) for v in aux.coefficient_values(complex(1.0, t0)))
    assert t0 == pytest.approx(0.10025062656641603, rel=1e-12)
    assert margin == pytest.approx(0.06947445937780052, rel=1e-12)


def _t0_search(monkeypatch, t_max, grid, margin):
    """Search [0, t_max] on a grid of this many heights for this margin."""
    for name, value in (("T0_MAX", t_max), ("T0_GRID", grid), ("T0_MARGIN", margin)):
        monkeypatch.setattr(combalg, name, value)


def test_find_t0_constant_coefficients(monkeypatch):
    prob = _toy_problem()
    aux = build_auxiliary(prob)
    _t0_search(monkeypatch, 10.0, 50, 0.5)
    t0 = find_nonvanishing_t0(aux)
    assert t0 == 0.0


def test_find_t0_avoids_coefficient_zeros(monkeypatch):
    # coefficient 1 - 2^(1-s) vanishes on the boundary line at 2*pi*k/log 2
    z = zeta_spec()
    oth = finite_euler_spec("oth", {3: 1.0})
    ser = PFiniteSeries.from_terms({1: 1.0, 2: -2.0})
    f = CombPolynomial(2, ((ser, (1, 0)), (c(1.0), (0, 1))))
    g = CombPolynomial(2, ((c(1.0), (1, 0)), (c(-2.0), (0, 1))))
    prob = SeparationProblem(f, g, (z, oth), (z, oth))
    aux = build_auxiliary(prob)
    _t0_search(monkeypatch, 12.0, 300, 0.4)
    t0 = find_nonvanishing_t0(aux)
    zeros = [2 * math.pi * k / math.log(2) for k in (0, 1)]
    assert all(abs(t0 - tz) > 0.2 for tz in zeros)
    vals = aux.coefficient_values(complex(1.0, t0))
    assert min(abs(v) for v in vals) >= 0.4


def test_find_t0_failure_reports_best(monkeypatch):
    z = zeta_spec()
    oth = finite_euler_spec("oth", {3: 1.0})
    tiny = PFiniteSeries.constant(1e-6)
    f = CombPolynomial(2, ((tiny, (1, 0)), (c(1.0), (0, 1))))
    g = CombPolynomial(2, ((c(1.0), (1, 0)), (c(1.0), (0, 0))))
    prob = SeparationProblem(f, g, (z, oth), (z, oth))
    aux = build_auxiliary(prob)
    _t0_search(monkeypatch, 1.0, 10, 0.5)
    with pytest.raises(SearchFailure) as err:
        find_nonvanishing_t0(aux)
    assert err.value.best_margin is not None
    assert err.value.best_margin < 0.5


def test_coprimality_sanity():
    f = CombPolynomial(2, ((c(1.0), (1, 0)), (c(1.0), (0, 1))))
    g_same = CombPolynomial(2, ((c(1.0), (1, 0)), (c(1.0), (0, 1))))
    g_prop = CombPolynomial(2, ((c(2.0), (1, 0)), (c(2.0), (0, 1))))
    g_ok = CombPolynomial(2, ((c(1.0), (1, 0)), (c(-1.0), (0, 1))))
    assert not coprimality_sanity(f, g_same)
    assert not coprimality_sanity(f, g_prop)
    assert coprimality_sanity(f, g_ok)
