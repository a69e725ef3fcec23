import math
import random
import re
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosep import lattice
from zerosep.errors import ApproxFailure, DomainError, NonConvergence
from zerosep.lattice import (almost_periods, babai_nearest_plane,
                             exact_phase_errors, lll_reduce,
                             simultaneous_approx)
from zerosep.precision import circle_distances, needed_bits, phases_for_ints
from zerosep.primes import primes_up_to

TWO_PI = 2.0 * math.pi


# --- reference: LLL and nearest-plane decode over a full float Gram-Schmidt
# rebuilt with numpy after every row operation (the implementation the lazy
# row-wise one replaced; it must give the same rows and coefficients)


def _reference_gram_schmidt(F):
    n = F.shape[0]
    Q = np.zeros_like(F)
    mu = np.eye(n)
    for i in range(n):
        v = F[i].copy()
        for j in range(i):
            denom = float(np.dot(Q[j], Q[j]))
            mu[i, j] = float(np.dot(F[i], Q[j])) / denom if denom > 0 else 0.0
            v = v - mu[i, j] * Q[j]
        Q[i] = v
    return Q, mu


def _reference_lll(rows, delta=0.99):
    b = [[int(x) for x in row] for row in rows]
    n = len(b)
    if n <= 1:
        return b
    F = np.array(b, dtype=np.float64)
    Q, mu = _reference_gram_schmidt(F)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = int(round(mu[k, j]))
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                F[k] = np.array(b[k], dtype=np.float64)
                Q, mu = _reference_gram_schmidt(F)
        lhs = float(np.dot(Q[k], Q[k]))
        rhs = (delta - mu[k, k - 1] ** 2) * float(np.dot(Q[k - 1], Q[k - 1]))
        if lhs >= rhs:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            F = np.array(b, dtype=np.float64)
            Q, mu = _reference_gram_schmidt(F)
            k = max(k - 1, 1)
    return b


def _reference_babai(rows, target):
    n = len(rows)
    F = np.array([[float(x) for x in r] for r in rows], dtype=np.float64)
    Q, _ = _reference_gram_schmidt(F)
    w = [int(x) for x in target]
    coeffs = [0] * n
    for i in range(n - 1, -1, -1):
        denom = float(np.dot(Q[i], Q[i]))
        wf = np.array([float(x) for x in w])
        c = int(round(float(np.dot(wf, Q[i])) / denom)) if denom > 0 else 0
        coeffs[i] = c
        if c != 0:
            w = [x - c * y for x, y in zip(w, rows[i])]
    return coeffs


def _random_basis(rng, n, bits):
    """Full-rank n x n integer basis with entries below 2^bits in size."""
    while True:
        rows = [[rng.randrange(-(1 << bits), 1 << bits) for _ in range(n)]
                for _ in range(n)]
        if all(_exact_gram_schmidt(rows)[1]):
            return rows


def _exact_gram_schmidt(rows):
    """mu and the squared norms |b*_i|^2 of the rows, in exact rationals."""
    n = len(rows)
    Q, B = [], []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for j in range(i):
            mu[i][j] = (sum(Fraction(x) * y for x, y in zip(row, Q[j])) / B[j]
                        if B[j] else Fraction(0))
            v = [x - mu[i][j] * y for x, y in zip(v, Q[j])]
        Q.append(v)
        B.append(sum(x * x for x in v))
    return mu, B


def _coordinates(rows, basis):
    """Exact rational X with rows = X * basis, for a square full-rank basis
    (Gauss-Jordan on basis^T x = row^T, one right-hand side per row)."""
    n = len(basis)
    M = [[Fraction(basis[j][i]) for j in range(n)] +
         [Fraction(r[i]) for r in rows] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        M[col] = [x / M[col][col] for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [[M[i][n + k] for i in range(n)] for k in range(len(rows))]


def _same_lattice(a, b):
    """Whether two square integer bases generate the same lattice: each
    one's rows have integer coordinates in the other."""
    return all(x.denominator == 1 for X in (_coordinates(a, b), _coordinates(b, a))
               for row in X for x in row)


def _record_lll_inputs(monkeypatch):
    """Spy on the LLL calls of the lattice module: the list it returns fills
    with (input rows, reduced rows) pairs."""
    calls = []
    real = lattice.lll_reduce

    def recording(rows):
        rows = [list(r) for r in rows]
        red = real(rows)
        calls.append((rows, red))
        return red

    monkeypatch.setattr(lattice, "lll_reduce", recording)
    return calls


def test_same_lattice_tells_a_basis_change_from_a_sublattice():
    basis = _basis_5x5()
    unimodular = [[1, 2, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                  [0, 0, -3, 1, 0], [0, 0, 0, 0, -1]]
    moved = [[sum(u * b[j] for u, b in zip(row, basis)) for j in range(5)]
             for row in unimodular]
    assert _same_lattice(moved, basis)
    assert not _same_lattice([[2 * x for x in basis[0]]] + basis[1:], basis)


def _basis_5x5():
    rng = np.random.default_rng(0)
    return (rng.integers(-50, 50, size=(5, 5)) +
            np.diag(rng.integers(500, 900, size=5))).tolist()


def test_lll_reduces_norms():
    basis = _basis_5x5()
    red = lll_reduce(basis)
    n0 = sorted(float(np.linalg.norm(r)) for r in basis)
    n1 = sorted(float(np.linalg.norm(r)) for r in red)
    assert n1[0] <= n0[0] + 1e-9
    # reduced basis spans the same lattice: determinant magnitude preserved
    d0 = abs(round(np.linalg.det(np.array(basis, dtype=float))))
    d1 = abs(round(np.linalg.det(np.array(red, dtype=float))))
    assert d0 == d1


def test_lll_raises_when_its_op_cap_is_hit(monkeypatch):
    # the cap used to end the loop and return the unreduced basis
    monkeypatch.setattr(lattice, "LLL_OPS_PER_DIM_SQUARED", 0)
    with pytest.raises(NonConvergence, match="5-dimensional basis in 0 ops"):
        lll_reduce(_basis_5x5())


@pytest.mark.parametrize("bits", [8, 30, 60])
def test_lll_matches_the_full_rebuild_reference(bits):
    rng = random.Random(bits)
    for n in range(2, 9):
        for _ in range(3):
            basis = _random_basis(rng, n, bits)
            assert lll_reduce(basis) == _reference_lll(basis)


def test_lll_matches_the_reference_on_the_approximation_lattice(monkeypatch):
    primes = np.array([2, 5, 7, 11, 13])
    for k in range(6):
        _, _, rows, red = _reference_approximation_lattice(primes, 0.02, k)
        assert red == _reference_lll(rows)
    # the sweep's own inputs: warm-started primal rows and embeddings
    calls = _record_lll_inputs(monkeypatch)
    simultaneous_approx({2: 1.0, 5: 2.0, 7: 3.0, 11: 4.0, 13: 5.0}, 0.02)
    assert len(calls) >= 6
    for rows, red in calls:
        assert red == _reference_lll(rows)


def test_lll_output_is_size_reduced_and_lovasz_in_exact_arithmetic():
    rng = random.Random(5)
    for n in range(2, 9):
        for _ in range(4):
            red = lll_reduce(_random_basis(rng, n, 10))
            mu, B = _exact_gram_schmidt(red)
            for k in range(1, n):
                assert all(abs(mu[k][j]) <= Fraction(1, 2) + Fraction(1, 10**9)
                           for j in range(k))
                assert B[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * B[k - 1]


def test_babai_matches_the_reference_on_the_approximation_decodes(monkeypatch):
    decodes = []

    def recording_babai(rows, target):
        decodes.append((rows, target))
        return babai_nearest_plane(rows, target)

    monkeypatch.setattr(lattice, "babai_nearest_plane", recording_babai)
    rng = np.random.default_rng(303)
    for _ in range(3):
        phases = {p: float(rng.uniform(0, TWO_PI)) for p in (2, 5, 7, 11, 13)}
        simultaneous_approx(phases, 0.02)
    assert decodes
    for rows, target in decodes:
        assert babai_nearest_plane(rows, target) == _reference_babai(rows, target)


def test_babai_decodes_near_point():
    basis = [[7, 0, 0], [1, 11, 0], [2, 3, 13]]
    rng = np.random.default_rng(1)
    coeffs = rng.integers(-20, 20, size=3)
    point = np.array(basis).T @ coeffs
    target = point + np.array([0.2, -0.3, 0.1])
    got = babai_nearest_plane(basis, [int(round(x)) for x in target])
    rec = np.array(basis).T @ np.array(got)
    assert np.linalg.norm(rec - point) < 1e-9


def test_single_prime_exact():
    res = simultaneous_approx({2: 1.0}, 0.05)
    assert res.method == "exact"
    assert abs(float(res.t) - 1.0 / math.log(2)) < 1e-12
    assert res.max_phase_error < 1e-10


def test_two_primes_vs_oracle():
    rng = np.random.default_rng(12)
    for _ in range(5):
        phases = {2: float(rng.uniform(0, TWO_PI)), 3: float(rng.uniform(0, TWO_PI))}
        res = simultaneous_approx(phases, 0.1)
        assert res.method == "lattice"
        assert res.max_phase_error <= 0.1
        # self-verification with extra precision agrees
        assert abs(res.recompute_error() - res.max_phase_error) < 1e-10


def test_few_primes_reach_accuracies_past_a_bounded_height_scan():
    # a scan of the heights |t| <= 1e6 gets no closer than 6.049e-7 on the
    # first set and refused the 3-prime sets at 1e-3
    cases = [({2: 1.0, 3: 2.0}, 1e-7)]
    rng = np.random.default_rng(35)
    cases += [({p: float(rng.uniform(0, TWO_PI)) for p in (2, 3, 5)}, 1e-3)
              for _ in range(5)]
    for phases, accuracy in cases:
        res = simultaneous_approx(phases, accuracy)
        assert res.method == "lattice"
        assert res.max_phase_error <= accuracy
        assert res.recompute_error() <= accuracy
        assert abs(res.recompute_error() - res.max_phase_error) < 1e-12


def test_ten_primes_lattice():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    rng = np.random.default_rng(4)
    phases = {p: float(rng.uniform(0, TWO_PI)) for p in primes}
    res = simultaneous_approx(phases, 0.05)
    assert res.method == "lattice"
    assert res.max_phase_error <= 0.05
    # independent recomputation at higher precision confirms the bound
    err = float(np.max(exact_phase_errors(res.t, primes,
                                          [phases[p] for p in primes],
                                          bits=res.precision_bits + 64)))
    assert err <= 0.05
    assert abs(err - res.max_phase_error) < 1e-10


def test_accuracy_domain():
    with pytest.raises(DomainError):
        simultaneous_approx({2: 1.0}, 4.0)
    with pytest.raises(DomainError):
        simultaneous_approx({}, 0.1)


def test_almost_periods_small():
    taus = almost_periods(0.0, 3, 0.1, count=3)
    assert len(taus) == 3
    assert all(t > 0 for t in taus)
    assert taus == sorted(taus)
    for tau in taus:
        err = float(np.max(exact_phase_errors(tau, [2, 3], [0.0, 0.0])))
        assert err <= 0.1


def test_almost_periods_match_brute_scan():
    # brute scan: smallest tau > 0 with both phases within 0.1 of zero
    taus = almost_periods(0.0, 3, 0.1, count=1)
    logs = np.array([math.log(2), math.log(3)])
    # candidates where 2's phase is exactly zero: multiples of 2 pi / log 2
    step = TWO_PI / math.log(2)
    ks = np.arange(1, int(2e5))
    ts = ks * step
    d3 = circle_distances(np.mod(ts * math.log(3), TWO_PI), 0.0)
    hits = ts[d3 <= 0.095]  # tiny slack for the off-comb optimum
    brute_first = float(hits[0]) if len(hits) else math.inf
    assert float(taus[0]) <= brute_first + step


def test_almost_period_shifts_series_little():
    # |F(s + i tau) - F(s)| stays small for an absolutely convergent series
    from zerosep.euler import eval_partial_euler, zeta_spec
    z = zeta_spec()
    taus = almost_periods(0.0, 7, 0.02, count=2)
    s = 1.5 + 2.0j
    base = eval_partial_euler(z, s, 100).value
    for tau in taus:
        shifted = eval_partial_euler(z, complex(s.real, s.imag + float(tau)),
                                     100).value
        # primes up to 7 aligned within 0.02; the rest contribute the tail
        assert abs(shifted - base) < 0.2


def test_phases_for_ints_extended():
    t = mp.mpf(10) ** 30
    ph = phases_for_ints(t, [2, 3, 5])
    assert np.all((0 <= ph) & (ph < TWO_PI))
    # doubling precision does not change the reduced phases
    ph2 = phases_for_ints(t, [2, 3, 5], bits=512)
    assert np.max(np.abs(ph - ph2)) < 1e-12


# --- reference: the from-scratch sweep step and its candidate decodes (the
# implementation the warm-started sweep replaced: every step reduces the raw
# rows, and the embedding appends the target to the raw rows)


def _reference_approximation_lattice(primes, accuracy, k):
    n = len(primes)
    q_budget = 1 << (8 + 7 * k)
    S = q_budget << 16
    with mp.workprec(S.bit_length() + 16):
        two_pi_s = int(mp.nint(2 * mp.pi * S))
        log_s = [int(mp.nint(mp.log(int(p)) * S)) for p in primes]
    w_scaled = max(int(accuracy * S / (4 * q_budget)), 1)
    rows = [log_s + [w_scaled]]
    for i in range(n):
        rows.append([two_pi_s if j == i else 0 for j in range(n)] + [0])
    return S, w_scaled, rows, lll_reduce(rows)


def _reference_generator_candidates(primes, targets, accuracy):
    n = len(primes)
    seen = set()
    for k in range(lattice.WEIGHT_SWEEP):
        S, w_scaled, rows, red = _reference_approximation_lattice(primes,
                                                                  accuracy, k)

        def q_of(coeffs):
            return sum(c * r[-1] for c, r in zip(coeffs, red)) // w_scaled

        target_int = [int(round(ph * S)) for ph in targets] + [0]
        coeffs = babai_nearest_plane(red, target_int)
        cands = [q_of(coeffs)]
        for lvl in range(len(red) - 1, max(len(red) - 4, -1), -1):
            for dd in (-1, 1):
                pert = list(coeffs)
                pert[lvl] += dd
                cands.append(q_of(pert))
        emb = max(int(accuracy * S / 2), 1)
        rows_e = [r + [0] for r in rows]
        rows_e.append(target_int[:n] + [0, emb])
        for row in lll_reduce(rows_e):
            if abs(row[-1]) == emb:
                sign = 1 if row[-1] > 0 else -1
                cands.append(-sign * (row[-2] // w_scaled))
        for q in cands:
            if q != 0 and q not in seen:
                seen.add(q)
                yield q


@pytest.mark.parametrize("P, accuracy, steps", [(13, 0.02, 6), (29, 0.05, 5)])
def test_each_sweep_step_reduces_a_basis_of_that_steps_lattice(monkeypatch, P,
                                                               accuracy, steps):
    primes = primes_up_to(P)
    calls = _record_lll_inputs(monkeypatch)
    sweep = list(lattice._approximation_lattice(primes, accuracy, steps))
    assert len(calls) == len(sweep) == steps
    for k, ((rows, red), (S, w, out)) in enumerate(zip(calls, sweep)):
        S_ref, w_ref, raw, _ = _reference_approximation_lattice(primes,
                                                                accuracy, k)
        assert (S, w, out) == (S_ref, w_ref, red)
        # step 0 reduces the raw rows, every later step a warm start
        assert (rows == raw) == (k == 0)
        assert _same_lattice(rows, raw)
        assert _same_lattice(out, raw)


def test_the_embedding_appends_the_target_to_the_reduced_basis(monkeypatch):
    phases = {2: 0.3, 5: 4.1, 7: 2.2, 11: 5.9, 13: 1.7}
    primes = np.array(sorted(phases))
    n = len(primes)
    calls = _record_lll_inputs(monkeypatch)
    simultaneous_approx(phases, 0.02)
    assert len(calls) % 2 == 0 and len(calls) >= 4
    for k in range(len(calls) // 2):
        (_, red), (rows_e, _) = calls[2 * k], calls[2 * k + 1]
        S, _, raw, _ = _reference_approximation_lattice(primes, 0.02, k)
        assert _same_lattice(red, raw)
        # the embedding starts from the primal reduced rows, not the raw ones
        assert rows_e[:n + 1] == [r + [0] for r in red]
        target = [int(round(phases[p] * S)) for p in primes] + \
            [0, max(int(0.02 * S / 2), 1)]
        assert rows_e[n + 1:] == [target]
        assert _same_lattice(rows_e, [r + [0] for r in raw] + [target])


# --- reference: the lattice loops that polish every decoded height (the
# implementation the window test and the ordered stop replaced; it must give
# the same t, errors, precision and shifts)


def _reference_polished_height(q, primes, logs, targets, bits):
    base = phases_for_ints(q, primes, bits=bits)
    tau = lattice._polish(float(q), logs, base, targets)
    with mp.workprec(bits):
        t = mp.mpf(q) + mp.mpf(tau)
    return t, float(np.max(exact_phase_errors(t, primes, targets, bits)))


def _reference_lattice_approx(phases, accuracy):
    primes = np.array(sorted(phases), dtype=np.int64)
    targets = np.array([math.fmod(phases[int(p)], TWO_PI) % TWO_PI
                        for p in primes], dtype=np.float64)
    logs = np.log(primes.astype(np.float64))
    for q in _reference_generator_candidates(primes, targets, accuracy):
        bits = needed_bits(q)
        t, err = _reference_polished_height(q, primes, logs, targets, bits)
        if err <= accuracy:
            return t, err, bits
    return None


def _reference_almost_periods(t_star, P, accuracy, count):
    primes = primes_up_to(P)
    targets = np.zeros(len(primes))
    logs = np.log(primes.astype(np.float64))
    t_star_abs = abs(float(mp.mpf(t_star)))
    found = {}
    for k in range(24):
        _, w_scaled, _, red = _reference_approximation_lattice(primes,
                                                               accuracy, k)
        qs = {abs(int(row[-1])) // w_scaled for row in red} - {0}
        for q in sorted(qs):
            for mult in range(1, max(2, count + 2)):
                qq = q * mult
                if qq in found:
                    continue
                b = needed_bits(max(qq, t_star_abs + qq))
                tau, err = _reference_polished_height(qq, primes, logs,
                                                      targets, b)
                if err <= accuracy:
                    found[qq] = tau
        if len(found) >= count:
            break
    return sorted(found.values())[:count]


@pytest.mark.parametrize("n, seed", [(5, 0), (5, 1), (5, 2), (6, 3), (6, 4)])
def test_lattice_approx_matches_the_unpruned_reference(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        primes = sorted(rng.choice([2, 3, 5, 7, 11, 13, 17, 19], n,
                                   replace=False).tolist())
        phases = {p: float(rng.uniform(0, TWO_PI)) for p in primes}
        res = simultaneous_approx(phases, 0.02)
        assert res.method == "lattice"
        assert (res.t, res.max_phase_error, res.precision_bits) == \
            _reference_lattice_approx(phases, 0.02)


@pytest.mark.parametrize("seed", [7, 161, 162])
def test_lattice_approx_matches_the_reference_on_the_benchmark_primes(seed):
    rng = np.random.default_rng([seed, 303])
    for _ in range(4):
        phases = {p: float(rng.uniform(0, TWO_PI)) for p in (2, 5, 7, 11, 13)}
        res = simultaneous_approx(phases, 0.02)
        assert (res.t, res.max_phase_error, res.precision_bits) == \
            _reference_lattice_approx(phases, 0.02)


@pytest.mark.parametrize("t_star, P, accuracy, count", [
    (0, 7, 0.01, 3), (3.3e10, 7, 0.01, 3), (0, 13, 0.05, 2), (0, 50, 0.05, 1)])
def test_almost_periods_match_the_unpruned_reference(t_star, P, accuracy, count):
    assert almost_periods(t_star, P, accuracy, count) == \
        _reference_almost_periods(t_star, P, accuracy, count)


def test_toy_almost_periods_polish_few_heights(monkeypatch):
    polished = []
    real_polish = lattice._polish

    def counting_polish(t0, *args, **kwargs):
        polished.append(t0)
        return real_polish(t0, *args, **kwargs)

    monkeypatch.setattr(lattice, "_polish", counting_polish)
    assert len(almost_periods(0, 7, 0.01, 3)) == 3
    assert len(polished) <= 3 + 2


_WINDOW_PRIMES = primes_up_to(100_000).tolist()
_PHASE = st.floats(0.0, TWO_PI, exclude_max=True)


@settings(deadline=None)
@given(data=st.data(), n=st.integers(1, 8), level=st.floats(1e-6, 3.2))
def test_window_test_admits_every_height_a_tau_grid_can_pass(data, n, level):
    primes = data.draw(st.lists(st.sampled_from(_WINDOW_PRIMES),
                                min_size=n, max_size=n))
    base = np.array(data.draw(st.lists(_PHASE, min_size=n, max_size=n)))
    targets = np.array(data.draw(st.lists(_PHASE, min_size=n, max_size=n)))
    logs = np.log(np.array(primes, dtype=np.float64))
    taus = np.linspace(-0.5, 0.5, 4001)
    d = circle_distances(np.mod(base[None, :] + taus[:, None] * logs[None, :],
                                TWO_PI), targets[None, :])
    worst = d.max(axis=1)
    # each grid point lies on the boundary of the level it reaches
    for i in (int(np.argmin(worst)), *range(0, len(taus), 500)):
        assert lattice._window_admits(base, logs, targets, float(worst[i]))
    if worst.min() <= level:
        assert lattice._window_admits(base, logs, targets, level)


@settings(deadline=None)
@given(data=st.data(), n=st.integers(1, 8),
       q=(st.integers(-10**6, 10**6) | st.integers(10**6, 10**13)).filter(bool))
def test_window_test_admits_the_verified_error_at_every_offset(data, n, q):
    # the float64 rounding of heights near 1e6 is what WINDOW_SLACK covers
    primes = np.array(data.draw(st.lists(st.sampled_from(_WINDOW_PRIMES),
                                         min_size=n, max_size=n)))
    targets = np.array(data.draw(st.lists(_PHASE, min_size=n, max_size=n)))
    logs = np.log(primes.astype(np.float64))
    bits = needed_bits(q)
    base = phases_for_ints(q, primes, bits=bits)
    for tau in np.linspace(-0.5, 0.5, 9):
        with mp.workprec(bits):
            t = mp.mpf(q) + mp.mpf(float(tau))
        err = float(np.max(exact_phase_errors(t, primes, targets, bits)))
        assert lattice._window_admits(base, logs, targets, err)


def test_lattice_refusal_counts_the_heights_it_tried():
    # five primes at 5e-7 demand 112.9 bits, just inside the sweep's reach
    with pytest.raises(ApproxFailure) as exc:
        simultaneous_approx({2: 1, 3: 2, 5: 3, 7: 4, 11: 5}, 5e-7)
    msg = str(exc.value)
    assert re.fullmatch(r"lattice sweep polished no height at accuracy 5e-07 "
                        r"\((\d+) heights tried, \1 rejected by the window "
                        r"test\)", msg), msg
    assert "inf" not in msg
    assert exc.value.best_error is None and exc.value.best_t is None


def test_approx_refuses_at_once_a_height_beyond_the_sweep():
    # 20 primes at 0.02 demand 146 bits; the sweep's last budget is 113
    phases = {int(p): 1.0 for p in primes_up_to(71)}
    assert len(phases) == 20
    start = time.perf_counter()
    with pytest.raises(ApproxFailure) as exc:
        simultaneous_approx(phases, 0.02)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == ("20 primes at accuracy 0.02 need a height of about "
                              "145.9 bits, beyond the 113 bits the lattice sweep "
                              "reaches")
    assert lattice.SWEEP_BITS == 113
    # five primes at 1e-8 (141.1 bits) no longer run the sweep either
    with pytest.raises(ApproxFailure, match="141.1 bits"):
        simultaneous_approx({2: 1, 3: 2, 5: 3, 7: 4, 11: 5}, 1e-8)


def test_lattice_refusal_shows_its_best_error_in_significant_digits():
    with pytest.raises(ApproxFailure) as exc:
        simultaneous_approx({2: 1.0, 3: 2.0}, 1e-14)
    msg = str(exc.value)
    m = re.fullmatch(r"lattice sweep best error (\S+) above accuracy 1e-14 "
                     r"\((\d+) heights tried, (\d+) rejected by the window "
                     r"test\)", msg)
    assert m, msg
    assert int(m.group(3)) < int(m.group(2))
    shown = float(m.group(1))
    assert shown > 0
    assert abs(shown - exc.value.best_error) <= 1e-3 * exc.value.best_error


def test_almost_periods_refusal_names_the_gap():
    with pytest.raises(ApproxFailure) as exc:
        almost_periods(0, 13, 1e-12, 3)
    msg = str(exc.value)
    m = re.fullmatch(r"found 0 of 3 shifts at accuracy 1e-12, best error "
                     r"above it (\S+) \((\d+) heights tried, (\d+) rejected "
                     r"by the window test\)", msg)
    assert m, msg
    best = exc.value.best_error
    assert 1e-12 < best < math.inf
    assert abs(float(m.group(1)) - best) <= 1e-3 * best
    assert int(m.group(3)) < int(m.group(2))


def test_almost_periods_refusal_without_a_polished_height():
    with pytest.raises(ApproxFailure) as exc:
        almost_periods(0, 30, 1e-7, 3)
    msg = str(exc.value)
    assert re.fullmatch(r"found 0 of 3 shifts at accuracy 1e-07, no polished "
                        r"height above it \((\d+) heights tried, \1 rejected "
                        r"by the window test\)", msg), msg
    assert exc.value.best_error is None
