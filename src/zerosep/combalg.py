"""Polynomial combinations of Euler products over prime-finite coefficients,
and the auxiliary rewrite that folds small-prime local factors into the
coefficients so the remaining variables stand for tail products.

:func:`combine` is the one monomial combine with its telescoping error
majorant; every combination evaluator (the twisted, pointwise and anchored
evaluators in :mod:`zerosep.locate`) feeds it per-spec results from
:func:`zerosep.euler.truncated_exp`.  The auxiliary rewrite enters that
kernel at :func:`zerosep.euler.local_logs`: per point it sums each spec's
local logs up to the cutoff once and folds them into every coefficient.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ArityMismatch, DomainError, SearchFailure
from .euler import EulerProductSpec, EvalResult, local_logs
from .pfinite import PFiniteSeries
from .polyzero import ComplexPolynomial, univariate_roots
from .precision import phases_for_ints
from .primes import primes_up_to


@dataclass(frozen=True)
class CombPolynomial:
    """Polynomial whose coefficients are prime-finite Dirichlet series."""

    num_vars: int
    monomials: tuple[tuple[PFiniteSeries, tuple[int, ...]], ...]

    def __post_init__(self):
        seen = set()
        for coeff, exps in self.monomials:
            if len(exps) != self.num_vars:
                raise DomainError("exponent vector length must equal num_vars")
            if any(e < 0 for e in exps):
                raise DomainError("exponents must be nonnegative")
            if coeff.is_zero:
                raise DomainError("zero coefficient series are not stored")
            if exps in seen:
                raise DomainError(f"duplicate exponent vector {exps}")
            seen.add(exps)

    @property
    def is_monomial(self) -> bool:
        return len(self.monomials) == 1

    @property
    def degree(self) -> int:
        return max((sum(e) for _, e in self.monomials), default=0)

    @property
    def support_primes(self) -> frozenset:
        out: set[int] = set()
        for coeff, _ in self.monomials:
            out |= coeff.support_primes
        return frozenset(out)

    def complex_at(self, s: complex) -> ComplexPolynomial:
        """Freeze the coefficients at one point s into a plain polynomial."""
        mono = tuple((coeff.value(s), exps) for coeff, exps in self.monomials)
        return ComplexPolynomial(self.num_vars, tuple(m for m in mono if m[0] != 0))

    def has_constant_coeffs(self) -> bool:
        return all(len(c.inverse_factors) == 0 and
                   all(n == 1 for n, _ in c.terms) for c, _ in self.monomials)


def support_prime(f: CombPolynomial, g: CombPolynomial) -> int:
    """Largest prime in the union of coefficient supports; 1 when all constant."""
    union = f.support_primes | g.support_primes
    return max(union) if union else 1


def combine(f: CombPolynomial, spec_evals: Sequence[EvalResult],
            coeff_value: Callable[[PFiniteSeries], complex]) -> EvalResult:
    """f at the point where variable j takes ``spec_evals[j]`` and each
    coefficient series evaluates through ``coeff_value``.

    Error bounds propagate through powers and products by a first-order
    telescoping majorant.
    """
    vals = np.array([e.value for e in spec_evals], dtype=np.complex128)
    errs = np.array([e.abs_error_bound for e in spec_evals], dtype=np.float64)
    total = 0.0 + 0.0j
    bound = 0.0
    for coeff, exps in f.monomials:
        cval = coeff_value(coeff)
        prod = 1.0 + 0.0j
        perr = 0.0
        for k, a_k in enumerate(exps):
            if a_k:
                prod *= vals[k] ** a_k
        # telescoping product bound: each factor swap costs
        # a_k e_k (|v_k|+e_k)^(a_k-1) * prod_{j != k} (|v_j|+e_j)^(a_j)
        for k, a_k in enumerate(exps):
            if a_k == 0:
                continue
            term = a_k * errs[k] * (abs(vals[k]) + errs[k]) ** (a_k - 1)
            for j, a_j in enumerate(exps):
                if j != k and a_j:
                    term *= (abs(vals[j]) + errs[j]) ** a_j
            perr += term
        total += cval * prod
        bound += abs(cval) * perr
    return EvalResult(total, bound)


@dataclass(frozen=True, init=False)
class SeparationProblem:
    """Two combinations sharing some of their Euler products, both on one
    variable order.

    Made from each polynomial on its own specs (``specs_f`` for f's
    variables, ``specs_g`` for g's).  ``variable_order`` places the shared
    specs first, then the f-only specs, then the g-only specs, and ``f`` and
    ``g`` are stored re-indexed onto it (each never touches the other's
    private slots).
    """

    f: CombPolynomial
    g: CombPolynomial
    variable_order: tuple[EulerProductSpec, ...]
    shared_count: int

    def __init__(self, f: CombPolynomial, g: CombPolynomial,
                 specs_f: Sequence[EulerProductSpec],
                 specs_g: Sequence[EulerProductSpec]):
        if len(specs_f) != f.num_vars:
            raise ArityMismatch("f arity does not match specs_f")
        if len(specs_g) != g.num_vars:
            raise ArityMismatch("g arity does not match specs_g")
        for specs in (specs_f, specs_g):
            if len(set(specs)) != len(specs):
                raise DomainError("specs within one combination must be distinct")
        if f.is_monomial or g.is_monomial:
            raise DomainError("monomial combinations are excluded: every zero "
                              "of a monomial has a vanishing coordinate")
        shared = [F for F in specs_f if F in specs_g]
        order = tuple(shared + [F for F in specs_f if F not in shared]
                      + [G for G in specs_g if G not in shared])
        for name, value in (("f", _reindex(f, specs_f, order)),
                            ("g", _reindex(g, specs_g, order)),
                            ("variable_order", order), ("shared_count", len(shared))):
            object.__setattr__(self, name, value)  # the dataclass is frozen

    # f and g under the names zsbench's workloads read them by
    def f_on_full_vars(self) -> CombPolynomial:
        return self.f

    def g_on_full_vars(self) -> CombPolynomial:
        return self.g


def _reindex(poly: CombPolynomial, specs: Sequence[EulerProductSpec],
             order: tuple[EulerProductSpec, ...]) -> CombPolynomial:
    """``poly`` on ``specs`` re-indexed onto the variables ``order``."""
    slots = [order.index(F) for F in specs]
    mono = []
    for coeff, exps in poly.monomials:
        full = [0] * len(order)
        for pos, e in zip(slots, exps):
            full[pos] = e
        mono.append((coeff, tuple(full)))
    return CombPolynomial(len(order), tuple(mono))


@dataclass(frozen=True)
class AuxiliaryCombination:
    """The pair of rewritten polynomials whose variables stand for the tail
    products over primes beyond the cutoff.  They are ``base.f`` and
    ``base.g`` with coefficients that absorb the head factors;
    ``head_primes[j]`` holds the primes up to the cutoff of spec j of
    ``base.variable_order`` (no entries when the cutoff is below 2).
    :meth:`pair_at` freezes both at one point from one coefficient pass."""

    base: SeparationProblem
    cutoff_prime: int
    head_primes: tuple[np.ndarray, ...]

    def coefficient_values(self, s: complex) -> list[complex]:
        """Coefficients of f, then of g, at s: each series value times
        exp(e_j L_j) over the head log-sums L_j, each summed once."""
        s = complex(s)
        heads = [complex(np.sum(local_logs(F, ps, s.real, phases_for_ints(s.imag, ps))))
                 for F, ps in zip(self.base.variable_order, self.head_primes)]
        out = []
        for poly in (self.base.f, self.base.g):
            for coeff, exps in poly.monomials:
                v = coeff.value(s)
                if v != 0:
                    for e, L in zip(exps, heads):
                        if e:
                            v *= cmath.exp(e * L)
                out.append(v)
        return out

    def pair_at(self, s: complex) -> tuple[ComplexPolynomial, ComplexPolynomial]:
        """f and g with their coefficients frozen at s."""
        vals = iter(self.coefficient_values(s))
        f, g = (ComplexPolynomial(poly.num_vars, tuple(
            (v, exps) for (_, exps), v in zip(poly.monomials, vals) if v != 0))
            for poly in (self.base.f, self.base.g))
        return f, g

    def coefficient_drift(self, s1: complex, s2: complex) -> float:
        """Largest coefficient displacement between two evaluation points."""
        v1 = self.coefficient_values(s1)
        v2 = self.coefficient_values(s2)
        return max(abs(a - b) for a, b in zip(v1, v2))


def build_auxiliary(problem: SeparationProblem) -> AuxiliaryCombination:
    """Absorb the local factors at primes up to the coefficient support prime
    into each monomial's coefficient."""
    p_fg = support_prime(problem.f, problem.g)
    heads: tuple = ()
    if p_fg >= 2:
        ps = primes_up_to(p_fg)
        heads = tuple(ps[F.support_mask(ps)] for F in problem.variable_order)
    return AuxiliaryCombination(problem, p_fg, heads)


# heights t0 is searched on along Re(s) = 1, and the coefficient margin to meet
T0_MIN, T0_MAX = 0.0, 40.0
T0_GRID = 400
T0_MARGIN = 1e-3


def find_nonvanishing_t0(aux: AuxiliaryCombination) -> tuple[float, float]:
    """Height t0 at which every auxiliary coefficient stays off zero on the
    boundary line Re(s) = 1, with the smallest coefficient modulus there.

    Scans the grid, keeps the best minimum-modulus point, refines locally,
    and fails loudly when the margin is unreachable.
    """
    def min_modulus(t: float) -> float:
        vals = aux.coefficient_values(complex(1.0, t))
        return min(abs(v) for v in vals)

    ts = np.linspace(T0_MIN, T0_MAX, T0_GRID)
    best_t, best_m = None, -1.0
    for t in ts:
        m = min_modulus(float(t))
        if m >= T0_MARGIN:
            # first grid point meeting the margin wins
            return float(t), m
        if m > best_m:
            best_t, best_m = float(t), m
    # local refinement around the best grid point
    step = (T0_MAX - T0_MIN) / (T0_GRID - 1)
    t_center = best_t
    for _ in range(3):
        lo, hi = t_center - step, t_center + step
        for t in np.linspace(max(lo, T0_MIN), min(hi, T0_MAX), 21):
            m = min_modulus(float(t))
            if m > best_m:
                t_center, best_m = float(t), m
        step /= 10.0
    if best_m >= T0_MARGIN:
        return t_center, best_m
    raise SearchFailure(
        f"no t in [{T0_MIN}, {T0_MAX}] reaches coefficient margin "
        f"{T0_MARGIN} (best {best_m:.3e} at t = {best_t:.6f})",
        best_margin=best_m)


SANITY_LINES = 3  # random lines coprimality_sanity restricts f and g to
SANITY_ROOT_TOL = 1e-7  # relative distance at which two roots count as shared


def coprimality_sanity(f: CombPolynomial, g: CombPolynomial, seed: int = 0) -> bool:
    """Heuristic coprimality check for constant-coefficient polynomials on
    the same variables.

    Restricts both polynomials to random lines and looks for shared roots; a
    common factor forces a shared root on every line.  Non-constant
    coefficients are accepted on the caller's word.
    """
    if not (f.has_constant_coeffs() and g.has_constant_coeffs()):
        return True
    fc = f.complex_at(2.0)
    gc = g.complex_at(2.0)
    rng = np.random.default_rng(seed)
    shared_lines = 0
    for _ in range(SANITY_LINES):
        y = rng.normal(size=fc.num_vars) + 1j * rng.normal(size=fc.num_vars)
        u = rng.normal(size=fc.num_vars) + 1j * rng.normal(size=fc.num_vars)
        u /= np.linalg.norm(u)
        rf = np.trim_zeros(fc.restrict(y, u), "b")
        rg = np.trim_zeros(gc.restrict(y, u), "b")
        if len(rf) <= 1 or len(rg) <= 1:
            shared_lines += 1
            continue
        roots_f = univariate_roots(rf)
        roots_g = univariate_roots(rg)
        close = any(abs(a - b) < SANITY_ROOT_TOL * max(1.0, abs(a))
                    for a in roots_f for b in roots_g)
        if close:
            shared_lines += 1
    return shared_lines < SANITY_LINES
