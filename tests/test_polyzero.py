import cmath
import math

import numpy as np
import pytest

from zerosep import polyzero
from zerosep.errors import (ContourTooClose, DegenerateInput,
                            MonomialDegenerate, RefinementExhausted,
                            SearchExhausted)
from zerosep.euler import EvalResult
from zerosep.polyzero import (Circle, ComplexPolynomial, find_separating_zero,
                              rouche_delta, univariate_roots, winding_scan)


# --- univariate roots ---------------------------------------------------------


def test_roots_quadratic():
    r = univariate_roots([1, 0, 1])  # 1 + z^2
    got = sorted(r, key=lambda z: z.imag)
    assert abs(got[0] + 1j) < 1e-12 and abs(got[1] - 1j) < 1e-12


def test_roots_triple_cluster():
    r = univariate_roots([-1, 3, -3, 1])  # (z-1)^3
    assert len(r) == 3
    assert all(abs(z - 1) < 1e-4 for z in r)


def test_roots_constructed_degree_12():
    rng = np.random.default_rng(7)
    true = rng.normal(size=12) + 1j * rng.normal(size=12)
    coeffs = np.array([1.0 + 0j])
    for t in true:
        coeffs = np.convolve(coeffs, [-t, 1.0])
    r = univariate_roots(coeffs)
    rec = sorted(r, key=lambda z: (z.real, z.imag))
    exp = sorted(true, key=lambda z: (z.real, z.imag))
    assert max(abs(a - b) for a, b in zip(rec, exp)) < 1e-8


def test_roots_vieta():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = rng.integers(3, 9)
        coeffs = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        coeffs[-1] += 2.0  # keep the leading coefficient away from zero
        r = univariate_roots(coeffs)
        ssum = sum(r)
        sprod = 1.0 + 0.0j
        for z in r:
            sprod *= z
        assert abs(ssum - (-coeffs[-2] / coeffs[-1])) < 1e-8 * (1 + abs(ssum))
        expect_prod = (-1) ** d * coeffs[0] / coeffs[-1]
        assert abs(sprod - expect_prod) < 1e-8 * (1 + abs(sprod))


def test_roots_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        univariate_roots([0, 0, 0])
    with pytest.raises(DegenerateInput):
        univariate_roots([5.0])


def test_roots_residuals_reported():
    coeffs = [6, -5, 1]  # (z-2)(z-3)
    r = univariate_roots(coeffs)
    assert len(r) == 2
    assert all(abs(np.polyval(coeffs[::-1], z)) < 1e-10 for z in r)


# --- separating zeros -----------------------------------------------------------


def test_separating_zero_linear_pair():
    f = ComplexPolynomial.from_dict(2, {(1, 0): 1, (0, 1): 1})
    g = ComplexPolynomial.from_dict(2, {(1, 0): 1, (0, 1): -1})
    sz = find_separating_zero(f, g, seed=0)
    x = sz.x
    assert abs(x[1] + x[0]) < 1e-9  # zero set x2 = -x1
    assert min(abs(x[0]), abs(x[1])) >= 1e-6
    assert abs(g.evaluate(x) - 2 * x[0]) < 1e-9
    assert abs(g.evaluate(x)) >= 1e-6


def test_separating_zero_product_pair():
    f = ComplexPolynomial.from_dict(2, {(1, 1): 1, (0, 0): -1})
    g = ComplexPolynomial.from_dict(2, {(1, 0): 1, (0, 1): -1})
    sz = find_separating_zero(f, g, seed=1)
    w = sz.x[0]
    assert abs(sz.x[1] - 1 / w) < 1e-8 * max(1, abs(1 / w))
    assert abs(w - 1) > 1e-6 and abs(w + 1) > 1e-6


def test_separating_zero_monomial_rejected():
    f = ComplexPolynomial.from_dict(2, {(2, 1): 1})
    g = ComplexPolynomial.from_dict(2, {(1, 0): 1, (0, 0): 1})
    with pytest.raises(MonomialDegenerate):
        find_separating_zero(f, g)


def test_separating_zero_exhaustion_diagnostics(monkeypatch):
    # f's zero set lies entirely on a coordinate hyperplane: x1 * (x1 + 1)
    # has zeros only at x1 = 0 and x1 = -1; forbid both via floor and margin
    f = ComplexPolynomial.from_dict(1, {(2,): 1, (1,): 1})
    g = ComplexPolynomial.from_dict(1, {(0,): 1, (1,): 1})  # 1 + x1
    monkeypatch.setattr(polyzero, "MAX_RETRIES", 10)
    with pytest.raises(SearchExhausted) as err:
        find_separating_zero(f, g, seed=0)
    diag = err.value.diagnostics
    assert diag["attempts"] == 10
    assert diag["rejected_floor"] + diag["rejected_margin"] > 0


def _random_coprime_pair(rng):
    """Random non-monomial pair; random supports, degree <= 3, N <= 4,
    coefficients on the unit annulus."""
    n = int(rng.integers(2, 5))
    while True:
        def rand_poly():
            m = int(rng.integers(2, 5))
            coeffs = {}
            for _ in range(m):
                exps = tuple(int(e) for e in rng.integers(0, 2, size=n))
                if sum(exps) > 3:
                    continue
                mag = rng.uniform(0.5, 1.5)
                coeffs[exps] = mag * cmath.exp(2j * math.pi * rng.uniform())
            if len(coeffs) < 2:
                return None
            return ComplexPolynomial.from_dict(n, coeffs)

        f, g = rand_poly(), rand_poly()
        if f is None or g is None or f.is_monomial or g.is_monomial:
            continue
        return f, g


def test_separating_zero_property_random_pairs():
    rng = np.random.default_rng(2024)
    ok = 0
    for trial in range(40):
        f, g = _random_coprime_pair(rng)
        try:
            sz = find_separating_zero(f, g, seed=trial)
        except (SearchExhausted, MonomialDegenerate):
            continue
        scale = f.coeff_scale * max(1.0, float(np.max(np.abs(sz.x)))) ** f.degree
        assert abs(f.evaluate(sz.x)) <= 1e-10 * scale
        assert float(np.min(np.abs(sz.x))) >= 1e-6
        assert abs(g.evaluate(sz.x)) >= 1e-6
        ok += 1
    assert ok >= 36


# --- stability radii -------------------------------------------------------------


def test_rouche_delta_linear_pair():
    f = ComplexPolynomial.from_dict(2, {(1, 0): 1, (0, 1): 1})
    g = ComplexPolynomial.from_dict(2, {(1, 0): 1, (0, 1): -1})
    y = np.array([1.0, -1.0], dtype=complex)
    cert = rouche_delta(f, g, y, eps=0.5, seed=2)
    assert cert.delta > 0
    assert cert.gamma1 > 0 and cert.gamma2 > 0
    assert 0 < cert.inner_radius < 0.5
    # admissibility inequalities hold with the safety factor
    grow_f = (1 + 0.5 + np.linalg.norm(y)) ** f.degree
    grow_g = (1 + 0.5 + np.linalg.norm(y)) ** g.degree
    assert cert.delta * f.nonzero_coeff_count * grow_f < cert.gamma1
    assert cert.delta * g.nonzero_coeff_count * grow_g < min(cert.gamma1, cert.gamma2)


def test_rouche_constant_partner():
    f = ComplexPolynomial.from_dict(1, {(1,): 1, (0,): -1})  # x - 1
    g = ComplexPolynomial.from_dict(1, {(0,): 1})            # 1
    cert = rouche_delta(f, g, [1.0 + 0j], eps=0.3, seed=0)
    assert abs(cert.gamma2 - 1.0) < 1e-9


def test_rouche_scaling_homogeneity():
    f = ComplexPolynomial.from_dict(2, {(1, 0): 1, (0, 1): 1})
    g = ComplexPolynomial.from_dict(2, {(1, 0): 1, (0, 1): -1})
    y = np.array([1.0, -1.0], dtype=complex)
    lam = 7.0
    f_scaled = ComplexPolynomial.from_dict(2, {(1, 0): lam, (0, 1): lam})
    c1 = rouche_delta(f, g, y, eps=0.5, seed=4)
    c2 = rouche_delta(f_scaled, g, y, eps=0.5, seed=4)
    # gamma1 scales linearly; the f-side delta scales linearly, and the g-side
    # constraint min(gamma1, gamma2) saturates at gamma2 for large lam
    assert abs(c2.gamma1 - lam * c1.gamma1) < 1e-9 * lam


def test_rouche_perturbation_trials():
    f = ComplexPolynomial.from_dict(2, {(1, 0): 1, (0, 1): 1})
    g = ComplexPolynomial.from_dict(2, {(1, 0): 1, (0, 1): -1})
    y = np.array([1.0, -1.0], dtype=complex)
    cert = rouche_delta(f, g, y, eps=0.5, seed=5)
    rng = np.random.default_rng(99)
    yv = np.array(cert.base_point)
    uv = np.array(cert.direction)
    for _ in range(100):
        df = cert.delta / 2 * np.exp(2j * math.pi * rng.uniform(size=2)) \
            * rng.uniform(size=2)
        dg = cert.delta / 2 * np.exp(2j * math.pi * rng.uniform(size=2)) \
            * rng.uniform(size=2)
        ft = f.perturbed(df)
        gt = g.perturbed(dg)
        w = winding_scan(lambda t: ft.evaluate(yv + t * uv),
                         Circle(0.0, cert.inner_radius))[0]
        assert w >= 1
        # perturbed partner nonvanishing on the sampled disk
        for rr in np.linspace(0, cert.inner_radius, 6):
            for ang in np.linspace(0, 2 * math.pi, 16, endpoint=False):
                assert abs(gt.evaluate(yv + rr * cmath.exp(1j * ang) * uv)) > 0


# --- winding numbers --------------------------------------------------------------


def test_winding_basic():
    assert winding_scan(lambda z: z * z, Circle(0, 1))[0] == 2
    assert winding_scan(lambda z: (z - 0.5) * (z + 2), Circle(0, 1))[0] == 1
    assert winding_scan(lambda z: cmath.exp(z), Circle(0, 1))[0] == 0


@pytest.mark.parametrize("initial_samples", [16, 32, 512])
def test_winding_refinement_invariance(monkeypatch, initial_samples):
    monkeypatch.setattr(polyzero, "WINDING_SAMPLES", initial_samples)
    h = lambda z: (z - 0.3) ** 2 * (z + 0.4 + 0.1j)
    assert winding_scan(h, Circle(0, 1))[0] == 3


def test_winding_scan_returns_its_samples():
    # values that convert with complex(), such as EvalResult, come back as is
    circle = Circle(0.1j, 1.0)
    w, samples = winding_scan(lambda z: EvalResult(z * z, 0.5), circle)
    assert w == 2
    assert len(samples) >= 49 and 0.0 in samples and 1.0 in samples
    for t, v in samples.items():
        assert v.value == circle.point(t) ** 2 and v.abs_error_bound == 0.5


def test_winding_scan_bisects_large_phase_steps_up_to_its_cap(monkeypatch):
    # z^6 turns by 3 pi / 4 between 16 evenly spaced samples, so the scan
    # bisects every step once
    monkeypatch.setattr(polyzero, "WINDING_SAMPLES", 16)
    w, samples = winding_scan(lambda z: z ** 6, Circle(0, 1))
    assert w == 6 and len(samples) == 33
    monkeypatch.setattr(polyzero, "WINDING_MAX_SAMPLES", 24)
    with pytest.raises(RefinementExhausted, match="unresolved at 24 samples"):
        winding_scan(lambda z: z ** 6, Circle(0, 1))


def test_winding_too_close():
    with pytest.raises(ContourTooClose, match="the contour passes through a zero"):
        winding_scan(lambda z: z - 1.0, Circle(0, 1))
