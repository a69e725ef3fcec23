import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zerosep.characters import dirichlet_characters
from zerosep.combfile import SpecDecl
from zerosep.errors import DomainError, ValidationFailure
from zerosep.euler import (EPS, EulerProductSpec, dirichlet_coefficients,
                           eval_dirichlet_sum, eval_partial_euler,
                           finite_euler_spec, lfunction_spec, local_log_model,
                           local_logs, sparse_zeta_spec, validate_axioms,
                           zeta_spec)
from zerosep.precision import phases_for_ints
from zerosep.primes import factorize, log_primes, primes_up_to


def zeta_direct_oracle(s: complex, N: int = 2_000_000):
    """Independent oracle: plain partial sum with its integral tail bound."""
    n = np.arange(1, N + 1, dtype=np.float64)
    val = complex(np.sum(np.exp(-s * np.log(n))))
    tail = N ** (1 - s.real) / (s.real - 1)
    return val, tail


def test_partial_euler_matches_direct_zeta_sum():
    z = zeta_spec()
    r = eval_partial_euler(z, 2.0 + 0j, 100_000)
    oracle, oracle_tail = zeta_direct_oracle(2.0 + 0j)
    assert abs(r.value - oracle) <= r.abs_error_bound + oracle_tail
    # frozen reference: zeta(2) = pi^2/6
    assert abs(r.value - math.pi ** 2 / 6) <= r.abs_error_bound


def test_partial_euler_single_factor():
    z = zeta_spec()
    s = 1.7 + 0.3j
    r = eval_partial_euler(z, s, 2)
    # closed-form local factor (1 - 2^-s)^(-1)
    assert abs(r.value - 1.0 / (1.0 - 2.0 ** (-s))) < 1e-12


def test_partial_euler_character_vs_direct_sum():
    chi = dirichlet_characters(4)[1]
    F = lfunction_spec(chi)
    s = 2.0 + 0j
    r = eval_partial_euler(F, s, 1_000_000)
    n = np.arange(1, 4_000_001)
    vals = chi.values(n)
    direct = complex(np.sum(vals * np.exp(-s * np.log(n))))
    direct_tail = 4_000_000 ** (1 - s.real) / (s.real - 1)
    assert abs(r.value - direct) <= r.abs_error_bound + direct_tail


def test_domain_errors():
    z = zeta_spec()
    with pytest.raises(DomainError):
        eval_partial_euler(z, 1.0 + 2j, 100)
    with pytest.raises(DomainError):
        eval_dirichlet_sum(z, 0.9, 100)


def test_dirichlet_coefficients_zeta_all_ones():
    a = dirichlet_coefficients(zeta_spec(), 1000)
    assert np.max(np.abs(a[1:] - 1.0)) < 1e-12


def test_dirichlet_coefficients_character():
    chi = dirichlet_characters(5)[1]
    F = lfunction_spec(chi)
    a = dirichlet_coefficients(F, 1000)
    expect = chi.values(np.arange(0, 1001))
    assert np.max(np.abs(a[1:] - expect[1:])) < 1e-10


def test_sparse_spec_prime_values():
    F = sparse_zeta_spec()
    # a(p) = 1 exactly at every second prime: p_2 = 3, p_4 = 7, p_6 = 13
    assert np.all(F.a_values(np.array([3, 7, 13])) == 1)
    assert np.all(F.a_values(np.array([2, 5, 11])) == 0)
    a = dirichlet_coefficients(F, 100)
    assert a[3] == 1 and a[9] == 1 and a[21] == 1  # 3*7 smooth over the support
    assert a[2] == 0 and a[6] == 0


def test_cross_validation_grid_small():
    specs = [zeta_spec(), lfunction_spec(dirichlet_characters(5)[1]),
             sparse_zeta_spec()]
    for F in specs:
        for sigma in (1.5, 2.0):
            for t in (0.0, 3.0):
                s = complex(sigma, t)
                a = eval_partial_euler(F, s, 20_000)
                b = eval_dirichlet_sum(F, s, 20_000)
                assert abs(a.value - b.value) <= a.abs_error_bound + b.abs_error_bound


def test_bound_monotone_in_cutoffs():
    z = zeta_spec()
    s = 1.5 + 1j
    eb = [eval_partial_euler(z, s, P).abs_error_bound
          for P in (100, 1000, 10_000)]
    assert eb[0] > eb[1] > eb[2]
    db = [eval_dirichlet_sum(z, s, N).abs_error_bound
          for N in (100, 1000, 10_000)]
    assert db[0] > db[1] > db[2]


def test_conjugate_symmetry_real_coefficients():
    chi = dirichlet_characters(3)[1]  # real character
    F = lfunction_spec(chi)
    s = 1.4 + 2.7j
    a = eval_partial_euler(F, s, 5000)
    b = eval_partial_euler(F, s.conjugate(), 5000)
    assert abs(a.value.conjugate() - b.value) < 1e-13 * abs(a.value)


def test_validate_axioms_zeta():
    rep = validate_axioms(zeta_spec(), 100_000, depth=20)
    assert rep.passed
    assert abs(rep.max_ap - 1.0) < 1e-12
    # oracle: sum_p sum_{k>=2} 1/(k p^k) = sum_p (-log(1-1/p) - 1/p)
    ps = primes_up_to(100_000).astype(float)
    oracle = float(np.sum(-np.log1p(-1.0 / ps) - 1.0 / ps))
    final = rep.higher_sum_checkpoints[-1][1]
    assert abs(final - oracle) < 1e-3


def test_validate_axioms_sparse_passes():
    rep = validate_axioms(sparse_zeta_spec(), 10_000)
    assert rep.passed and rep.max_ap == 1.0


def test_validate_axioms_detects_violation():
    bad = EulerProductSpec(label="bad", a_vec=lambda ps: ps ** 0.1, K_F=1.0)
    rep = validate_axioms(bad, 1000)
    assert not rep.prime_bound_ok
    assert rep.first_violation_prime == 2
    with pytest.raises(ValidationFailure) as err:
        rep.raise_if_failed()
    assert err.value.prime == 2


def test_finite_spec_exact_eval():
    F = finite_euler_spec("toy", {2: 1.0, 3: 0.5})
    s = 1.3 + 0.2j
    r = eval_partial_euler(F, s, 100)
    expect = 1.0 / (1.0 - 2.0 ** (-s)) / (1.0 - 0.5 * 3.0 ** (-s))
    assert abs(r.value - expect) < 1e-12
    assert r.abs_error_bound == 0.0


def test_local_logs_match_series():
    z = zeta_spec()
    ps = primes_up_to(50)
    thetas = np.linspace(0, 2, len(ps))
    logs = local_logs(z, ps, 1.5, thetas)
    # reference: direct series to depth 60
    ref = np.zeros(len(ps), dtype=complex)
    for k in range(1, 61):
        ref += (1.0 / k) * ps.astype(float) ** (-1.5 * k) * np.exp(-1j * k * thetas)
    assert np.max(np.abs(logs - ref)) < 1e-14


def test_specs_are_identified_by_content_not_label():
    s = 2.0 + 0.5j

    def check(F):
        d = eval_dirichlet_sum(F, s, 2000)
        e = eval_partial_euler(F, s, 2000)
        assert abs(d.value - e.value) <= d.abs_error_bound + e.abs_error_bound

    for order in ((2, 3), (3, 2)):
        specs = [finite_euler_spec("T", {p: 0.5}) for p in order]
        assert specs[0] != specs[1]
        for F in specs:
            check(F)
    assert finite_euler_spec("A", {2: 0.5}) == finite_euler_spec("B", {2: 0.5})


def test_spec_without_key_compares_by_identity_and_is_not_cached():
    def direct(ap):
        return EulerProductSpec(label="D", a_vec=lambda ps: np.full(len(ps), ap),
                                K_F=0.5)

    F, G = direct(0.5), direct(-0.5)
    assert F != G and F == F
    assert len({F, G}) == 2
    a_f = dirichlet_coefficients(F, 20)
    a_g = dirichlet_coefficients(G, 20)
    assert a_f[2] == 0.5 and a_g[2] == -0.5


GRAMMAR_KINDS = [
    SpecDecl("Z", "riemann_zeta", ()),
    SpecDecl("S", "sparse_Z", ()),
    SpecDecl("L", "dirichlet_L", (5, 1)),
    SpecDecl("E", "finite_euler", ((2, 0.5 + 0.25j), (3, -0.75 + 0j), (7, 1j))),
]


@pytest.mark.parametrize("decl", GRAMMAR_KINDS, ids=lambda d: d.kind)
def test_partial_product_is_the_closed_form_local_factor(decl):
    F = decl.build()
    s = 1.3 + 2j
    ps = primes_up_to(500)
    expect = 1.0 + 0j
    for p, ap in zip(ps.tolist(), F.a_values(ps).tolist()):
        expect /= 1.0 - ap * p ** (-s)
    r = eval_partial_euler(F, s, 500)
    assert abs(r.value - expect) <= 1e-12 * abs(expect)


@pytest.mark.parametrize("decl", GRAMMAR_KINDS, ids=lambda d: d.kind)
def test_dirichlet_coefficients_multiply_prime_power_values(decl):
    F = decl.build()
    a = dirichlet_coefficients(F, 200)
    assert a[1] == 1
    for n in range(2, 201):
        expect = 1.0 + 0j
        for p, k in factorize(n).items():
            expect *= complex(F.a_values(np.array([p]))[0]) ** k
        assert abs(a[n] - expect) <= 1e-12


# --- disk Taylor models of the summed local logs ---------------------------

MODEL_SPECS = [zeta_spec()] + [lfunction_spec(chi) for q in (3, 5)
                               for chi in dirichlet_characters(q)]


@st.composite
def model_specs(draw):
    """zeta, a character mod 3 or 5, or a finite product with |a| <= 1.5."""
    if draw(st.booleans()):
        return draw(st.sampled_from(MODEL_SPECS))
    ps = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 29]), min_size=1,
                       max_size=4, unique=True))
    return finite_euler_spec("h", {
        p: draw(st.floats(0.0, 1.5)) * cmath.exp(2j * math.pi * draw(st.floats(0.0, 1.0)))
        for p in ps})


def _local_log_reference(a, ps, sigma, thetas, lam, w):
    """The summed local logs at offset w, in 120-bit arithmetic from the
    float data: sigma + Re w exactly through p^-s, the phase theta_p +
    Im(w) lam_p."""
    with mp.workprec(120):
        return mp.fsum(
            -mp.log(1 - mp.mpc(ap) * mp.power(int(p), -(mp.mpf(sigma) + mp.mpf(w.real)))
                    * mp.expj(-(mp.mpf(th) + mp.mpf(w.imag) * mp.mpf(lg))))
            for ap, p, th, lg in zip(a.tolist(), ps.tolist(), thetas.tolist(),
                                     lam.tolist()))


@settings(max_examples=40, deadline=None)
@given(F=model_specs(), sigma=st.floats(1.001, 2.0), frac=st.floats(0.01, 1.0),
       t=st.floats(0.0, 1e12), P=st.sampled_from([30, 500]),
       points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                       min_size=1, max_size=3))
# radius * exp(2 pi i phi) lands 1 ulp outside the disk of radius `radius`
@example(F=MODEL_SPECS[0], sigma=1.001, frac=0.01171875, t=0.0, P=30,
         points=[(1.0, 0.15625)])
def test_local_log_model_stays_within_its_bound(F, sigma, frac, t, P, points):
    radius = frac * (sigma - 1.0) / 2.0
    ps = primes_up_to(P)
    ps = ps[F.support_mask(ps)]
    thetas = phases_for_ints(t, ps)
    lam = log_primes(ps)
    # widened by the few ulps _DiskModel adds, so the float points of the
    # circle of radius `radius` lie inside the model's disk
    model = local_log_model(F, ps, sigma, thetas, lam, radius * (1 + 4 * EPS), 0.0)
    a = F.a_values(ps)
    # the centre is the direct sum, bit for bit
    assert model.value(0j) == complex(np.sum(local_logs(F, ps, sigma, thetas)))
    for rho, phi in points + [(1.0, 0.5)]:
        w = radius * rho * cmath.exp(2j * math.pi * phi)
        ref = _local_log_reference(a, ps, sigma, thetas, lam, w)
        with mp.workprec(120):
            err = abs(ref - mp.mpc(model.value(w)))
        assert err <= model.bound, (float(err), model.bound, len(model.coeffs))


def test_local_log_model_refuses_points_off_its_disk_and_disks_past_the_radius():
    F = finite_euler_spec("big", {2: 1.5})
    ps = np.array([2])
    model = local_log_model(F, ps, 1.2, np.zeros(1), log_primes(ps), 0.1, 0.0)
    assert model.value(0.1j) == model.value(0.1j)
    with pytest.raises(DomainError, match="outside the model's disk"):
        model.value(0.1 + 1e-6j)
    # 1.5 * 2^-(1.2 - 0.65) >= 1: the disk reaches the local-factor radius
    with pytest.raises(DomainError, match="local-factor radius"):
        local_log_model(F, ps, 1.2, np.zeros(1), log_primes(ps), 0.65, 0.0)
    # zeta's local variable at p = 2 reaches 1 on the line sigma = 0
    z = zeta_spec()
    with pytest.raises(DomainError, match="local-factor radius"):
        local_log_model(z, ps, 1.2, np.zeros(1), log_primes(ps), 1.2, 0.0)
