import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from zerosep import locate
from zerosep.combalg import CombPolynomial
from zerosep.errors import DomainError, MissingPhase, NoZeroFound
from zerosep.euler import (EvalResult, eval_partial_euler, finite_euler_spec,
                           zeta_spec)
from zerosep.locate import (CombEvaluator, ZeroCertificate,
                            certify_noncoincidence, refine_zero, twisted_eval)
from zerosep.pfinite import PFiniteSeries
from zerosep.pipeline import builtin_problem
from zerosep.primes import primes_up_to
from zerosep.steering import PhaseAssignment


def c(x):
    return PFiniteSeries.constant(x)


def test_twisted_equals_pointwise_when_all_shifts_equal():
    z = zeta_spec()
    f = CombPolynomial(1, ((c(1.0), (1,)), (c(-0.4), (0,))))
    sigma, t0, P = 1.4, 2.3, 2000
    ps = primes_up_to(P)
    asg = PhaseAssignment(ps, np.full(len(ps), t0), y=0)
    tw = twisted_eval(f, [z], sigma, asg, P)
    pointwise = CombEvaluator(f, [z], P).at(complex(sigma, t0))
    assert abs(tw.value - pointwise.value) < 1e-10 * abs(pointwise.value)
    assert tw.abs_error_bound <= pointwise.abs_error_bound * 1.01


def test_twisted_identity_two_ways():
    # single-variable identity: the twisted product recomputed from logs
    # matches the direct per-prime product
    z = zeta_spec()
    f = CombPolynomial(1, ((c(1.0), (1,)),))
    sigma, P, y = 1.5, 200, 0
    rng = np.random.default_rng(2)
    ps = primes_up_to(P)
    asg = PhaseAssignment(ps, rng.uniform(0, 3, len(ps)), y=y)
    tw = twisted_eval(f, [z], sigma, asg, P)
    direct = 1.0 + 0.0j
    for p, t in zip(ps, asg.shifts):
        x = float(p) ** (-sigma) * cmath.exp(-1j * t * math.log(p))
        direct *= 1.0 / (1.0 - x)
    assert abs(tw.value - direct) < 1e-12 * abs(direct)


def test_twisted_missing_phase():
    z = zeta_spec()
    f = CombPolynomial(1, ((c(1.0), (1,)),))
    asg = PhaseAssignment(np.array([2]), np.array([0.1]), y=0)
    with pytest.raises(MissingPhase):
        twisted_eval(f, [z], 1.5, asg, 10)


def _toy_evaluator(mu=None, sigma=1.05):
    F1 = finite_euler_spec("lA", {2: 1.0, 3: 1.0})
    F2 = finite_euler_spec("lB", {5: 1.0, 7: 1.0})
    if mu is None:
        v1 = eval_partial_euler(F1, sigma + 0j, 10).value
        v2 = eval_partial_euler(F2, sigma + 0j, 10).value
        mu = 0.95 * v1 * v2
    f = CombPolynomial(2, ((c(1.0), (1, 1)), (c(-mu), (0, 0))))
    g = CombPolynomial(2, ((c(1.0), (1, 0)), (c(-0.5), (0, 1))))
    return f, g, (F1, F2), mu


def test_comb_evaluator_anchored_matches_direct():
    f, g, specs, _ = _toy_evaluator()
    ev = CombEvaluator(f, specs, P=10)
    t = 12345.678
    direct = ev.at(complex(1.2, t))
    anch = ev.anchored(t)
    via_anchor = anch(complex(1.2, 0.0))
    assert abs(direct.value - via_anchor.value) < 1e-9 * max(1, abs(direct.value))


def test_refine_zero_affine():
    target = 1.05 + 3.0j
    H = lambda s: EvalResult(s - target, 0.0)
    cert = refine_zero(H, 1.06 + 2.99j, 0.01)
    assert cert.status == "certified"
    assert cert.winding == 1
    assert abs(cert.center - target) < 1e-12
    assert cert.boundary_min > 0
    assert cert.consistent()


def test_refine_zero_no_zero_on_euler_product():
    # a pure Euler product never vanishes in the half-plane
    z = zeta_spec()
    f = CombPolynomial(1, ((c(1.0), (1,)),))
    ev = CombEvaluator(f, [z], P=2000)
    with pytest.raises(NoZeroFound):
        refine_zero(ev.at, 1.5 + 10.0j, 0.05)


def test_refine_zero_refuses_a_tiny_value_no_circle_winds_around():
    # a small |H| is no zero: without a winding circle there is no certificate
    with pytest.raises(NoZeroFound, match=r"^Newton stalled at \|H\| = 1\.000e-12 "
                       r"and no circle wound$"):
        refine_zero(lambda s: EvalResult(1e-12 + 0j, 0.0), 1.5, 0.01)


def test_refine_zero_domain():
    H = lambda s: EvalResult(s - 1.05, 0.0)
    with pytest.raises(DomainError):
        refine_zero(H, 1.05, 0.2)  # disk would cross Re(s) = 1


def test_refine_zero_stops_newton_when_the_zero_is_out_of_reach():
    # the zero is 5 away, the 40 steps of at most r0 = 0.005 travel 0.2
    s0, target = complex(1.5, 0.0), complex(1.5, 5.0)
    calls = []

    def H(s):
        calls.append(complex(s))
        return EvalResult(s - target, 0.0)

    with pytest.raises(NoZeroFound, match=r"^Newton's step 5 at \|H\| = 5\.0e\+00 "
                       r"exceeds the 0\.2 that 40 steps of at most r0 = 0\.005 "
                       r"can travel, and no circle wound$"):
        refine_zero(H, s0, 0.005)
    # the start once, then one Newton iteration: s0 and s0 +- FD_STEP; every
    # other call is on a scan circle of radius at least r0 / 10
    newton = [z for z in calls if abs(z - s0) < 1e-4]
    assert newton == [s0, s0, s0 + 1e-6, s0 - 1e-6]


def test_refine_zero_stops_before_an_iterate_comes_within_fd_step_of_re_s_1():
    # the zero at Re s = 0.99 lies outside the half-plane; two clipped steps
    # reach Re s = 1.01, and the next would cross Re s = 1 + FD_STEP
    s0, r0, target = complex(1.05, 0.0), 0.02, complex(0.99, 0.0)
    calls = []

    def H(s):
        calls.append(complex(s))
        return EvalResult(s - target, 0.0)

    with pytest.raises(NoZeroFound, match=r"^Newton's step 0\.02 at \|H\| = "
                       r"2\.0e-02 would bring the next iterate within 1e-06 of the "
                       r"half-plane boundary Re s = 1, and no circle wound$"):
        refine_zero(H, s0, r0)
    # one Newton iteration at the last iterate, then that point once; every
    # other call is on a scan circle of radius at least r0 / 10
    last = complex(1.01, 0.0)
    near = [z for z in calls if abs(z - last) < 1e-4]
    assert near == pytest.approx([last, last + 1e-6, last - 1e-6, last], abs=1e-15)


def test_refine_zero_centres_its_disk_on_a_zero_near_re_s_1():
    # Newton walks onto the zero 0.003 right of Re s = 1; only the circle of
    # radius r0 / 10 fits inside the half-plane there, and it certifies
    target = complex(1.003, 0.01)
    cert = refine_zero(lambda s: EvalResult(s - target, 0.0), 1.05, 0.02)
    assert cert.status == "certified" and cert.winding == 1
    assert abs(cert.center - target) < 1e-12
    assert cert.radius == pytest.approx(0.002)


def test_refine_zero_stops_its_circles_at_the_first_that_winds_0(monkeypatch):
    # H is analytic, so no circle inside one that winds 0 can wind either
    target = complex(1.5, 5.0)
    scans = []
    real = locate._circle_scan

    def spy(H, circle):
        scans.append(circle.radius)
        return real(H, circle)

    monkeypatch.setattr(locate, "_circle_scan", spy)
    with pytest.raises(NoZeroFound, match="no circle wound"):
        refine_zero(lambda s: EvalResult(s - target, 0.0), complex(1.5, 0.0), 0.005)
    assert scans == [0.005]


def test_refine_zero_still_crawls_to_a_zero_within_reach():
    s0, r0 = complex(1.5, 0.0), 0.005
    target = s0 + 30j * r0
    cert = refine_zero(lambda s: EvalResult(s - target, 0.0), s0, r0)
    assert cert.status == "certified" and cert.winding == 1
    assert abs(cert.center - target) < 1e-12


def test_certify_noncoincidence_constant_partner():
    target = 1.2 + 1.0j
    Hf = lambda s: EvalResult(s - target, 0.0)
    cert = refine_zero(Hf, 1.2 + 1.01j, 0.05)
    const_g = lambda s: EvalResult(1.0 + 0.0j, 0.0)
    upgraded = certify_noncoincidence(cert, const_g)
    assert upgraded.g_min_on_disk == pytest.approx(1.0, abs=1e-9)
    assert upgraded.status == "certified"


def test_certify_noncoincidence_same_function_fails():
    # the partner vanishes at the zero, so the zero stays numeric-only and
    # ZeroCertificate.gap names the partner minimum
    target = 1.2 + 1.0j
    Hf = lambda s: EvalResult(s - target, 0.0)
    cert = refine_zero(Hf, 1.2 + 1.01j, 0.05)
    out = certify_noncoincidence(cert, Hf)
    assert out.status == "numeric-only" and out.g_min_on_disk <= 0
    assert out.gap() == (f"partner minimum on the disk {out.g_min_on_disk:.3e} "
                         f"does not exceed tail budget {out.tail_budget:.3e}")
    assert out.consistent()


@pytest.mark.parametrize("changes, gap", [
    ({}, None),
    ({"winding": 0}, "no circle wound (best |H| = 1.000e-15)"),
    ({"boundary_min": 1e-7},
     "boundary minimum 1.000e-07 does not exceed tail budget 1.000e-07"),
    ({"g_min_on_disk": None}, None),
    ({"g_min_on_disk": 0.0},
     "partner minimum on the disk 0.000e+00 does not exceed tail budget 1.000e-07"),
    ({"winding": 0, "boundary_min": 0.0, "g_min_on_disk": 0.0},
     "no circle wound (best |H| = 1.000e-15)"),
])
def test_certificate_gap_names_the_first_condition_it_misses(changes, gap):
    cert = ZeroCertificate(center=1.05 + 0.25j, radius=0.01, winding=1,
                           boundary_min=1e-3, tail_budget=1e-7,
                           g_min_on_disk=0.2, status="certified",
                           value_at_center=1e-15 + 0j)
    cert = replace(cert, **changes)
    assert cert.gap() == gap
    assert cert.consistent() == (gap is None)
    assert replace(cert, status="numeric-only").consistent()


def test_certificate_text_round_trip():
    cert = ZeroCertificate(center=1.05 + 0.25j, radius=0.01, winding=1,
                           boundary_min=1e-3, tail_budget=1e-7,
                           g_min_on_disk=0.2, status="certified",
                           value_at_center=1e-15 + 0j,
                           anchor="123*2^-7", precision_bits=256,
                           meta={"problem": "builtin:toy-finite-pair"})
    again = ZeroCertificate.from_text(cert.to_text())
    assert again == cert
    # byte stability
    assert cert.to_text() == again.to_text()


def test_evaluators_near_the_boundary_give_an_infinite_bound():
    # at Re(s) = 1.0001 the prime tail beyond P = 5000 exceeds the overflow
    # guard: every evaluator returns a finite value with an infinite bound
    problem = builtin_problem("hurwitz-1-3-vs-2-3").build_problem()
    f, order = problem.f, problem.variable_order
    sigma, t, P = 1.0001, 3.0, 5000
    ps = primes_up_to(P)
    asg = PhaseAssignment(ps, np.full(len(ps), t), y=0)
    ev = CombEvaluator(f, order, P=P)
    results = [ev.at(complex(sigma, t)),
               ev.anchored(t)(complex(sigma, 0.0)),
               twisted_eval(f, order, sigma, asg, P)]
    for r in results:
        assert cmath.isfinite(r.value)
        assert r.abs_error_bound == math.inf
    for r in results[1:]:
        assert abs(r.value - results[0].value) < 1e-9 * abs(results[0].value)


def test_every_evaluator_refuses_a_spec_at_its_local_factor_radius():
    # 3 * 2^-sigma >= 1 left of the pole at sigma = log2(3): the local log
    # series at p = 2 diverges, so no evaluator may return a value
    F = finite_euler_spec("big", {2: 3.0})
    f = CombPolynomial(1, ((c(1.0), (1,)), (c(-1.0), (0,))))
    sigma, P = math.log2(3.0) - 1e-9, 10
    ev = CombEvaluator(f, [F], P)
    asg = PhaseAssignment(primes_up_to(P), np.zeros(4), y=0)
    calls = [lambda: eval_partial_euler(F, complex(sigma, 0.0), P),
             lambda: ev.at(complex(sigma, 0.0)),
             lambda: ev.anchored(100.0)(complex(sigma, 0.0)),
             lambda: twisted_eval(f, [F], sigma, asg, P)]
    for call in calls:
        with pytest.raises(DomainError, match="local-factor radius"):
            call()
    # right of the pole the local logs converge again
    assert abs(ev.at(complex(2.0, 0.0)).value - (1 / (1 - 0.75) - 1)) < 1e-12


# --- disk models of an anchored evaluator ------------------------------------


def _hurwitz_pair_with_a_zero(t, zero, P=500):
    """f = L_0 - mu L_1 over the two characters mod 3, anchored at t, with
    mu set so that f vanishes at the offset ``zero``."""
    order = builtin_problem("hurwitz-1-3-vs-2-3").build_problem().variable_order
    probe = CombEvaluator(CombPolynomial(2, ((c(1.0), (1, 0)),)), order, P).anchored(t)
    ratio = CombEvaluator(CombPolynomial(2, ((c(1.0), (0, 1)),)), order, P).anchored(t)
    mu = probe(zero).value / ratio(zero).value
    f = CombPolynomial(2, ((c(1.0), (1, 0)), (c(-mu), (0, 1))))
    return CombEvaluator(f, order, P).anchored(t), order


def test_disk_model_agrees_with_the_anchored_evaluator():
    anchored, _ = _hurwitz_pair_with_a_zero(1e12, complex(1.05, 0.3))
    center, radius = complex(1.04, 0.31), 0.02
    disk = anchored.disk(center, radius)
    direct = anchored(center)
    at_center = disk(center)
    assert at_center.value == direct.value
    assert direct.abs_error_bound < at_center.abs_error_bound
    assert at_center.abs_error_bound < direct.abs_error_bound * (1 + 1e-9)
    for k in range(16):
        s = center + radius * cmath.exp(2j * math.pi * k / 16)
        a, b = disk(s), anchored(s)
        assert abs(a.value - b.value) <= 1e-12 * abs(b.value)
        assert b.abs_error_bound <= a.abs_error_bound <= b.abs_error_bound * (1 + 1e-9)


def test_disk_model_refuses_points_off_the_disk_and_disks_it_cannot_model():
    anchored, _ = _hurwitz_pair_with_a_zero(1e12, complex(1.05, 0.3))
    disk = anchored.disk(complex(1.05, 0.3), 0.01)
    with pytest.raises(DomainError, match="outside the model's disk"):
        disk(complex(1.05, 0.3 + 0.0101))
    with pytest.raises(DomainError, match="Re\\(s\\) > 1"):
        anchored.disk(complex(1.05, 0.0), 0.05)
    with pytest.raises(DomainError, match="anchored window"):
        anchored.disk(complex(1.5, 9.99), 0.02)
    F = finite_euler_spec("big", {2: 3.0})
    f = CombPolynomial(1, ((c(1.0), (1,)), (c(-1.0), (0,))))
    with pytest.raises(DomainError, match="local-factor radius"):
        CombEvaluator(f, [F], 10).anchored(100.0).disk(complex(1.7, 0.0), 0.2)


def test_refine_zero_from_disk_models_matches_the_direct_path():
    # at sigma = 2 the prime tail beyond 500 leaves room to certify
    anchored, order = _hurwitz_pair_with_a_zero(1e12, complex(2.0, 0.3))
    s0, r0 = complex(2.001, 0.302), 0.02
    model = refine_zero(anchored, s0, r0)
    direct = refine_zero(lambda s: anchored(s), s0, r0)
    assert model.winding == direct.winding == 1
    assert model.status == direct.status == "certified"
    assert abs(model.center - direct.center) <= 1e-9 * abs(direct.center)
    for name in ("radius", "boundary_min", "tail_budget"):
        a, b = getattr(model, name), getattr(direct, name)
        assert abs(a - b) <= 1e-9 * abs(b), name
    assert model.tail_budget >= direct.tail_budget
    g = CombEvaluator(CombPolynomial(2, ((c(1.0), (1, 0)), (c(-1.0), (0, 1)))),
                      order, 500)
    g_anchored = g.anchored(anchored.t_anchor, bits=anchored.bits)
    m_nc = certify_noncoincidence(model, g_anchored)
    d_nc = certify_noncoincidence(model, lambda s: g_anchored(s))
    assert abs(m_nc.g_min_on_disk - d_nc.g_min_on_disk) <= 1e-9 * d_nc.g_min_on_disk
    assert m_nc.status == d_nc.status
    # without a zero nearby both paths refuse with the same text
    problem = builtin_problem("hurwitz-1-3-vs-2-3").build_problem()
    bare = CombEvaluator(problem.f, problem.variable_order,
                         500).anchored(123456789012.5)
    texts = []
    for H in (bare, lambda s: bare(s)):
        with pytest.raises(NoZeroFound) as exc:
            refine_zero(H, complex(1.01, 0.0), 0.005)
        texts.append(str(exc.value))
    assert texts[0] == texts[1]
    assert "can travel, and no circle wound" in texts[0]


def test_refine_zero_evaluates_a_start_it_never_leaves_once(monkeypatch):
    problem = builtin_problem("hurwitz-1-3-vs-2-3").build_problem()
    bare = CombEvaluator(problem.f, problem.variable_order,
                         500).anchored(123456789012.5)
    points = []
    direct = locate.AnchoredCombEvaluator.__call__

    def counted(self, offset):
        points.append(offset)
        return direct(self, offset)

    monkeypatch.setattr(locate.AnchoredCombEvaluator, "__call__", counted)
    with pytest.raises(NoZeroFound, match="can travel"):
        refine_zero(bare, complex(1.01, 0.0), 0.005)
    assert points == [complex(1.01, 0.0)]
