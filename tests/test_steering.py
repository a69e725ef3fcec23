import math

import numpy as np
import pytest

from zerosep import steering
from zerosep.characters import dirichlet_characters
from zerosep.combalg import CombPolynomial, SeparationProblem, build_auxiliary
from zerosep.errors import (DomainError, DriftTooLarge, Infeasible,
                            MissingPhase, NonConvergence)
from zerosep.euler import finite_euler_spec, lfunction_spec, zeta_spec
from zerosep.pfinite import PFiniteSeries
from zerosep.polyzero import SeparatingZero, find_separating_zero
from zerosep.primes import primes_up_to
from zerosep.steering import (PhaseAssignment, SteerOptions, SteeringTarget,
                              recompute_achieved, solve_phases,
                              track_zero_in_sigma)

SIGMA = 1.01  # the Hurwitz builtins' working abscissa


def test_target_validation():
    with pytest.raises(DomainError):
        SteeringTarget((3.0 + 0j,), R=2.0, sigma=1.01, eta=0.02, y=5, P=100)
    with pytest.raises(DomainError):
        SteeringTarget((1.0 + 0j,), R=1.5, sigma=1.01, eta=0.02, y=5, P=100)
    with pytest.raises(DomainError):
        SteeringTarget((1.0 + 0j,), R=2.0, sigma=1.5, eta=0.02, y=5, P=100)


def test_assignment_fill_and_missing():
    # primes at or below y are unshifted
    asg = PhaseAssignment(np.array([7, 11]), np.array([0.5, -0.2]), y=5)
    expected = [(t * math.log(p)) % (2 * math.pi)
                for p, t in [(3, 0.0), (7, 0.5), (11, -0.2)]]
    assert np.allclose(asg.phases(np.array([3, 7, 11])), expected,
                       rtol=0, atol=1e-14)
    with pytest.raises(MissingPhase, match="prime 13"):
        asg.phases(np.array([3, 13, 17]))
    with pytest.raises(DomainError, match="p=11"):
        PhaseAssignment(np.array([7, 11]), np.array([0.5, np.nan]), y=5)


def test_assignment_csv_round_trip(tmp_path):
    asg = PhaseAssignment(np.array([7, 11]), np.array([0.5, -0.25]), y=5)
    path = tmp_path / "phases.csv"
    asg.to_csv(str(path), meta={"sigma": 1.05, "y": 5, "P": 12,
                                "seed": 0, "residuals": "1e-9"})
    text = path.read_text()
    assert text.startswith("#") and "sigma=1.05" in text
    rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert rows == ["p,t_p", "7,0.5", "11,-0.25"]


def test_identity_steering():
    # targets set to the untwisted tail products are hit with zero shifts
    z = zeta_spec()
    sigma, y, P = 1.3, 5, 500
    ps = primes_up_to(P)
    tail = ps[ps > y].astype(float)
    val = np.exp(np.sum(-np.log1p(-tail ** -sigma)))
    target = SteeringTarget((complex(val),), R=2.0, sigma=sigma, eta=0.5, y=y, P=P)
    res = solve_phases([z], target, options=SteerOptions(seed=0))
    assert res.converged and res.iterations == 0
    assert np.all(res.assignment.shifts == 0.0)
    assert max(res.residuals) <= 1e-9


@pytest.mark.parametrize("field,value", [("tol", 0.0), ("tol", -1.0),
                                         ("max_iter", 0), ("restarts", 0)])
def test_steer_options_refuse_values_outside_their_domain(field, value):
    with pytest.raises(DomainError, match=field):
        SteerOptions(**{field: value})


def _reference_model(A, pf, sigma, thetas, exact):
    """Local log terms and their theta-derivatives, rows per target, as the
    kernel computed them when every point was evaluated afresh."""
    x = A * (pf ** (-sigma))[None, :] * np.exp(-1j * thetas)[None, :]
    if exact:
        logs = -np.log1p(-x)
        derivs = -1j * x / (1.0 - x)
    else:
        logs = x
        derivs = -1j * x
    return logs, derivs


def _reference_gauss_newton(A, pf, sigma, w, theta0, exact, max_iter, tol_log):
    """Gauss-Newton that evaluates each accepted point a second time, at the
    head of the next iteration: the reference for ``steering._gauss_newton``."""
    theta = theta0.copy()
    lam = 1e-8
    n_t = 2 * len(w)
    for it in range(1, max_iter + 1):
        logs, derivs = _reference_model(A, pf, sigma, theta, exact)
        r = logs.sum(axis=1) - w
        rnorm = float(np.max(np.abs(r)))
        if rnorm <= tol_log:
            return theta, it
        J = np.vstack([derivs.real, derivs.imag])
        rv = np.concatenate([r.real, r.imag])
        M = J @ J.T
        for _ in range(12):
            try:
                u = np.linalg.solve(M + lam * np.eye(n_t), -rv)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            step = J.T @ u
            cand = theta + step
            logs2, _ = _reference_model(A, pf, sigma, cand, exact)
            r2 = logs2.sum(axis=1) - w
            if float(np.max(np.abs(r2))) < rnorm:
                theta = cand
                lam = max(lam * 0.3, 1e-12)
                break
            lam *= 10
        else:
            return theta, it
    return theta, max_iter


def _hurwitz_mod3_specs():
    return [lfunction_spec(chi) for chi in dirichlet_characters(3)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_matches_the_reference_kernel_bit_for_bit(seed):
    ps = primes_up_to(20_000)
    A_full = np.vstack([F.a_values(ps) for F in _hurwitz_mod3_specs()])
    active = np.any(A_full != 0, axis=0)
    A = np.ascontiguousarray(A_full[:, active])
    pf = ps[active].astype(np.float64)
    C = A * (pf ** (-SIGMA))[None, :]
    rng = np.random.default_rng([seed, 3])
    w = rng.uniform(0.0, 0.6, 2) * np.exp(1j * rng.uniform(-math.pi, math.pi, 2))
    theta0 = (np.angle(A[0]) - np.angle(w[0])
              + rng.uniform(-steering.INIT_NOISE, steering.INIT_NOISE, len(pf)))
    tol_log = 0.5e-8
    ref_a = _reference_gauss_newton(A, pf, SIGMA, w, theta0, False, 120, tol_log)
    got_a = steering._gauss_newton(C, w, theta0, False, 120, tol_log)
    ref_b = _reference_gauss_newton(A, pf, SIGMA, w, ref_a[0], True, 120, tol_log)
    got_b = steering._gauss_newton(C, w, got_a[0], True, 120, tol_log)
    for (ref_theta, ref_it), (theta, it, total), exact in ((ref_a, got_a, False),
                                                          (ref_b, got_b, True)):
        assert it == ref_it and 1 < it < 120
        assert np.array_equal(theta, ref_theta)
        # the returned sums are those of a fresh evaluation at theta
        logs, _ = _reference_model(A, pf, SIGMA, theta, exact)
        assert np.array_equal(total, logs.sum(axis=1))


def test_kernel_sums_c_contiguous_rows(monkeypatch):
    # the active primes are a boolean column selection, which leaves strided
    # rows; summing strided rows is a sequential reduction ~20x slower
    seen = []
    local_terms = steering._local_terms

    def spy(C, theta, exact):
        x, logs = local_terms(C, theta, exact)
        seen.append((C.flags.c_contiguous and logs.flags.c_contiguous,
                     C.shape[1]))
        return x, logs

    monkeypatch.setattr(steering, "_local_terms", spy)
    y, P = 1, 2000
    target = SteeringTarget((complex(math.exp(0.3)), complex(math.exp(-0.3))),
                            R=2.0, sigma=SIGMA, eta=SIGMA - 1.0, y=y, P=P)
    res = solve_phases(_hurwitz_mod3_specs(), target,
                       options=SteerOptions(tol=1e-8, seed=0))
    assert res.converged
    assert len(seen) > 2
    assert all(contiguous for contiguous, _ in seen)
    # p = 3 (a(3) = 0 for both characters) was dropped from the columns
    assert {cols for _, cols in seen} == {len(res.assignment.primes) - 1}


def test_two_prime_grid_oracle():
    # single spec, two active primes; compare against a brute grid scan
    z = zeta_spec()
    sigma, y, P = 1.2, 100, 104
    ps = primes_up_to(P)
    act = ps[ps > y]
    assert act.tolist() == [101, 103]
    rng = np.random.default_rng(8)
    th = rng.uniform(0, 2 * math.pi, 2)
    x = act.astype(float) ** (-sigma) * np.exp(-1j * th)
    goal = complex(np.exp(np.sum(-np.log1p(-x))))
    target = SteeringTarget((goal,), R=2.0, sigma=sigma, eta=0.5, y=y, P=P)
    res = solve_phases([z], target, options=SteerOptions(tol=1e-6, seed=1))
    assert res.converged
    # brute grid oracle on the two phases
    grid = np.linspace(0, 2 * math.pi, 400, endpoint=False)
    t1, t2 = np.meshgrid(grid, grid, indexing="ij")
    v = (-np.log1p(-(101.0 ** -sigma) * np.exp(-1j * t1))
         - np.log1p(-(103.0 ** -sigma) * np.exp(-1j * t2)))
    best = np.min(np.abs(np.exp(v) / goal - 1.0))
    assert max(res.residuals) <= best + 1e-3


def test_reachability_gate():
    z = zeta_spec()
    # demand far beyond what the thin prime range can move
    target = SteeringTarget((0.5 + 0j,), R=2.0, sigma=1.5, eta=0.6,
                            y=1000, P=1100)
    with pytest.raises(Infeasible) as err:
        solve_phases([z], target)
    assert err.value.budget < err.value.demand


def test_steering_runs_each_restart_on_the_principal_branch_only(monkeypatch):
    # arg 3 lies beyond the reach of p = 2, 3, so steering stalls; it runs
    # stage A and stage B once per restart, on log z alone
    calls = []
    gauss_newton = steering._gauss_newton

    def counting(C, w, theta0, exact, max_iter, tol_log):
        calls.append((w.copy(), exact))
        return gauss_newton(C, w, theta0, exact, max_iter, tol_log)

    monkeypatch.setattr(steering, "_gauss_newton", counting)
    F = finite_euler_spec("sq", {2: 1.9, 3: 1.9})
    goal = complex(np.exp(0.5 + 3j))
    target = SteeringTarget((goal,), R=2.0, sigma=1.01, eta=0.01, y=1, P=3)
    with pytest.raises(NonConvergence, match=r"max residual 1\.230e\+00"):
        solve_phases([F], target)
    assert [exact for _, exact in calls] == [False, True] * SteerOptions().restarts
    assert all(np.array_equal(w, [np.log(goal)]) for w, _ in calls)


def test_periodicity_of_achieved():
    z = zeta_spec()
    sigma, y, P = 1.2, 5, 100
    ps = primes_up_to(P)
    act = ps[ps > y]
    rng = np.random.default_rng(5)
    shifts = rng.uniform(0, 1, len(act))
    asg = PhaseAssignment(act, shifts, y=y)
    a1 = recompute_achieved([z], asg, sigma, y, P)
    shifted = shifts + 2 * math.pi / np.log(act.astype(float))
    a2 = recompute_achieved([z], PhaseAssignment(act, shifted, y=y), sigma, y, P)
    assert np.max(np.abs(a1 - a2)) < 1e-12


def test_achieved_recompute_agreement():
    chars = dirichlet_characters(5)
    specs = [lfunction_spec(chars[1]), lfunction_spec(chars[3])]
    sigma, y, P = 1.05, 5, 2000
    # forward-sample a reachable target, then steer to it
    ps = primes_up_to(P)
    act = ps[ps > y]
    rng = np.random.default_rng(17)
    th = rng.uniform(0, 2 * math.pi, len(act))
    goals = []
    for F in specs:
        x = F.a_values(act) * act.astype(float) ** (-sigma) * np.exp(-1j * th)
        goals.append(complex(np.exp(np.sum(-np.log1p(-x)))))
    target = SteeringTarget(tuple(goals), R=4.0, sigma=sigma, eta=0.1, y=y, P=P)
    res = solve_phases(specs, target, options=SteerOptions(tol=1e-6, seed=2,
                                                           restarts=4))
    assert res.converged
    again = recompute_achieved(specs, res.assignment, sigma, y, P)
    rel = np.abs(again - np.array(res.achieved)) / np.abs(again)
    assert np.max(rel) < 1e-12


def test_monotone_feasibility_in_P():
    # the final residual is non-increasing as P grows, for a fixed target
    z = zeta_spec()
    sigma, y = 1.2, 5
    goal = 1.18 + 0.21j
    resids = []
    for P in (1000, 10_000, 100_000):
        target = SteeringTarget((goal,), R=2.0, sigma=sigma, eta=0.5, y=y, P=P)
        try:
            res = solve_phases([z], target,
                               options=SteerOptions(tol=1e-10, seed=3))
            resids.append(max(res.residuals))
        except NonConvergence as err:
            resids.append(max(err.result.residuals))
    assert resids[0] >= resids[1] - 1e-9 and resids[1] >= resids[2] - 1e-9


def _tracked_setup():
    """The toy pair's auxiliary combination, which has constant coefficients."""
    F1 = finite_euler_spec("sA", {2: 1.0, 3: 1.0})
    F2 = finite_euler_spec("sB", {5: 1.0, 7: 1.0})
    mu = 1.2349469153094004
    f = CombPolynomial(2, ((PFiniteSeries.constant(1.0), (1, 1)),
                           (PFiniteSeries.constant(-mu), (0, 0))))
    g = CombPolynomial(2, ((PFiniteSeries.constant(1.0), (1, 0)),
                           (PFiniteSeries.constant(-1.0), (0, 1))))
    prob = SeparationProblem(f, g, (F1, F2), (F1, F2))
    return build_auxiliary(prob)


def _track(aux, x, R, t0, sigma, seed=0):
    """``track_zero_in_sigma`` from the auxiliary pair at 1 + i t0 and at
    sigma + i t0, as the stability-steering stage calls it."""
    s1, s2 = complex(1.0, t0), complex(sigma, t0)
    return track_zero_in_sigma(aux.pair_at(s1), aux.pair_at(s2),
                               aux.coefficient_drift(s1, s2), x, R, seed=seed)


def test_track_zero_constant_coefficients_is_identity():
    aux = _tracked_setup()
    fp, gp = aux.pair_at(complex(1.0, 0.0))
    sz = find_separating_zero(fp, gp, seed=5, g_margin=1e-3)
    mods = np.abs(sz.x)
    R = max(2.0, 2 * float(np.max(mods)), 2 / float(np.min(mods)))
    tz = _track(aux, sz, R, 0.0, 1.05)
    assert tz.drift == 0.0
    assert np.max(np.abs(tz.z - sz.x)) < 1e-9


def test_track_zero_annulus_precondition():
    aux = _tracked_setup()
    x = np.array([10.0 + 0j, 0.1 + 0j])
    bad = SeparatingZero(x=x, base=x, direction=np.array([1.0 + 0j, 0j]),
                         line_parameter=0j)
    with pytest.raises(DomainError, match="witness coordinates must satisfy"):
        _track(aux, bad, 2.0, 0.0, 1.05)


def test_track_zero_drift_shrinks_with_sigma():
    # s-dependent coefficient: drift grows with sigma - 1 and the tracked
    # zero stays within the shrinking Rouche window
    z = zeta_spec()
    oth = finite_euler_spec("oth2", {3: 1.0})
    ser = PFiniteSeries.from_terms({1: 1.0, 2: -2.0})  # 1 - 2^(1-s)
    f = CombPolynomial(2, ((ser, (0, 0)), (PFiniteSeries.constant(1.0), (1, 1))))
    g = CombPolynomial(2, ((PFiniteSeries.constant(1.0), (1, 0)),
                           (PFiniteSeries.constant(1.0), (0, 1))))
    prob = SeparationProblem(f, g, (z, oth), (z, oth))
    aux = build_auxiliary(prob)
    t0 = math.pi / math.log(2)
    fp, gp = aux.pair_at(complex(1.0, t0))
    sz = None
    for seed in range(60):
        try:
            cand = find_separating_zero(fp, gp, seed=seed, g_margin=1e-2)
            mods = np.abs(cand.x)
            if 0.55 < mods.min() and mods.max() < 1.8:
                sz = cand
                break
        except Exception:
            continue
    assert sz is not None
    mods = np.abs(sz.x)
    R = max(2.0, 2 * float(np.max(mods)), 2 / float(np.min(mods)))
    moves = []
    for sigma in (1.1, 1.01, 1.001):
        try:
            tz = _track(aux, sz, R, t0, sigma, seed=1)
            moves.append(tz.moved)
            assert tz.moved < 1.0 / R
            assert tz.drift <= tz.delta
        except DriftTooLarge:
            moves.append(float("inf"))
    assert moves[0] >= moves[1] >= moves[2]
