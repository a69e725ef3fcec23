"""Polynomial combinations of Euler products over prime-finite coefficients,
and the auxiliary rewrite that folds small-prime local factors into the
coefficients so the remaining variables stand for tail products.

:func:`combine` is the one monomial combine with its telescoping error
majorant; every combination evaluator (:func:`comb_eval` here, the twisted,
pointwise and anchored evaluators in :mod:`zerosep.locate`) feeds it per-spec
results from :func:`zerosep.euler.truncated_exp`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ArityMismatch, DomainError, SearchFailure
from .euler import EulerProductSpec, EvalResult, eval_partial_euler, local_logs
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


def comb_eval(f: CombPolynomial, specs: Sequence[EulerProductSpec], s: complex,
              P: int) -> EvalResult:
    """Evaluate f(F_1(s), ..., F_N(s)) from partial Euler products.

    Coefficients are prime-finite and evaluate in closed form.
    """
    if len(specs) != f.num_vars:
        raise ArityMismatch(f"{f.num_vars} variables but {len(specs)} specs")
    s = complex(s)
    if s.real <= 1:
        raise DomainError("combination evaluation requires Re(s) > 1")
    evals = [eval_partial_euler(F, s, P) for F in specs]
    return combine(f, evals, lambda c: c.value(s))


@dataclass(frozen=True)
class SeparationProblem:
    """Two combinations sharing some of their Euler products.

    The canonical variable order places the shared specs first, then the
    f-only specs, then the g-only specs; both polynomials are re-indexed onto
    the full variable list (each simply never touches the other's private
    slots).
    """

    f: CombPolynomial
    g: CombPolynomial
    specs_f: tuple[EulerProductSpec, ...]
    specs_g: tuple[EulerProductSpec, ...]

    def __post_init__(self):
        if len(self.specs_f) != self.f.num_vars:
            raise ArityMismatch("f arity does not match specs_f")
        if len(self.specs_g) != self.g.num_vars:
            raise ArityMismatch("g arity does not match specs_g")
        for specs in (self.specs_f, self.specs_g):
            if len(set(specs)) != len(specs):
                raise DomainError("specs within one combination must be distinct")
        if self.f.is_monomial or self.g.is_monomial:
            raise DomainError("monomial combinations are excluded: every zero "
                              "of a monomial has a vanishing coordinate")

    @property
    def shared_count(self) -> int:
        return sum(1 for F in self.specs_f if F in self.specs_g)

    @property
    def total_vars(self) -> int:
        return len(self.specs_f) + len(self.specs_g) - self.shared_count

    @property
    def variable_order(self) -> tuple[EulerProductSpec, ...]:
        shared = [F for F in self.specs_f if F in self.specs_g]
        out = shared + [F for F in self.specs_f if F not in shared]
        out += [G for G in self.specs_g if G not in shared]
        return tuple(out)

    def _slot_maps(self) -> tuple[list[int], list[int]]:
        """Positions of f's and g's own variables inside the canonical order."""
        order = self.variable_order
        f_slots = [order.index(F) for F in self.specs_f]
        g_slots = [order.index(G) for G in self.specs_g]
        return f_slots, g_slots

    def f_on_full_vars(self) -> CombPolynomial:
        f_slots, _ = self._slot_maps()
        return _reindex(self.f, f_slots, self.total_vars)

    def g_on_full_vars(self) -> CombPolynomial:
        _, g_slots = self._slot_maps()
        return _reindex(self.g, g_slots, self.total_vars)


def _reindex(poly: CombPolynomial, slots: list[int], total: int) -> CombPolynomial:
    mono = []
    for coeff, exps in poly.monomials:
        full = [0] * total
        for pos, e in zip(slots, exps):
            full[pos] = e
        mono.append((coeff, tuple(full)))
    return CombPolynomial(total, tuple(mono))


@dataclass(frozen=True)
class MonomialEvaluator:
    """One monomial of an auxiliary polynomial: coefficient series times the
    absorbed small-prime local factors raised to the monomial exponents."""

    series: PFiniteSeries
    exponents: tuple[int, ...]
    local: tuple[tuple[EulerProductSpec, int], ...]  # (spec, power) per variable
    cutoff_prime: int

    def value(self, s: complex) -> complex:
        v = self.series.value(s)
        if self.cutoff_prime >= 2 and v != 0:
            ps = primes_up_to(self.cutoff_prime)
            for spec, power in self.local:
                if power == 0:
                    continue
                sub = ps[spec.support_mask(ps)]
                thetas = phases_for_ints(s.imag, sub)
                logs = local_logs(spec, sub, s.real, thetas)
                v *= cmath.exp(power * complex(np.sum(logs)))
        return v


@dataclass(frozen=True)
class AuxiliaryCombination:
    """The pair of rewritten polynomials whose variables stand for the tail
    products over primes beyond the cutoff."""

    base: SeparationProblem
    cutoff_prime: int
    t0: Optional[float]
    f_monomials: tuple[MonomialEvaluator, ...]
    g_monomials: tuple[MonomialEvaluator, ...]

    @property
    def num_vars(self) -> int:
        return self.base.total_vars

    def with_t0(self, t0: float) -> "AuxiliaryCombination":
        return replace(self, t0=t0)

    def _poly_at(self, monos, s: complex) -> ComplexPolynomial:
        out = tuple((m.value(s), m.exponents) for m in monos)
        return ComplexPolynomial(self.num_vars, tuple(m for m in out if m[0] != 0))

    def f_poly_at(self, s: complex) -> ComplexPolynomial:
        return self._poly_at(self.f_monomials, s)

    def g_poly_at(self, s: complex) -> ComplexPolynomial:
        return self._poly_at(self.g_monomials, s)

    def coefficient_values(self, s: complex) -> list[complex]:
        return [m.value(s) for m in self.f_monomials + self.g_monomials]

    def coefficient_drift(self, s1: complex, s2: complex) -> float:
        """Largest coefficient displacement between two evaluation points."""
        v1 = self.coefficient_values(s1)
        v2 = self.coefficient_values(s2)
        return max(abs(a - b) for a, b in zip(v1, v2))


def _local_spec_powers(order: Sequence[EulerProductSpec],
                       exps: tuple[int, ...]) -> tuple:
    return tuple((spec, e) for spec, e in zip(order, exps))


def build_auxiliary(problem: SeparationProblem) -> AuxiliaryCombination:
    """Absorb the local factors at primes up to the coefficient support prime
    into each monomial's coefficient and pad variables onto the shared order."""
    p_fg = support_prime(problem.f, problem.g)
    order = problem.variable_order
    f_full = problem.f_on_full_vars()
    g_full = problem.g_on_full_vars()
    f_monos = tuple(
        MonomialEvaluator(coeff, exps, _local_spec_powers(order, exps), p_fg)
        for coeff, exps in f_full.monomials)
    g_monos = tuple(
        MonomialEvaluator(coeff, exps, _local_spec_powers(order, exps), p_fg)
        for coeff, exps in g_full.monomials)
    return AuxiliaryCombination(problem, p_fg, None, f_monos, g_monos)


@dataclass(frozen=True)
class T0Search:
    """Grid of heights scanned on Re(s) = 1 and the coefficient margin to
    meet; the defaults are the values the separation pipeline runs with."""

    t_min: float = 0.0
    t_max: float = 40.0
    grid: int = 400
    margin: float = 1e-3


def find_nonvanishing_t0(aux: AuxiliaryCombination,
                         search: T0Search = T0Search()) -> float:
    """Height t0 at which every auxiliary coefficient stays off zero on the
    boundary line Re(s) = 1.

    Scans the grid, keeps the best minimum-modulus point, refines locally,
    and fails loudly when the margin is unreachable so the caller can widen
    the range.
    """
    if search.grid < 2:
        raise DomainError("grid must have at least 2 points")

    def min_modulus(t: float) -> float:
        vals = aux.coefficient_values(complex(1.0, t))
        return min(abs(v) for v in vals)

    ts = np.linspace(search.t_min, search.t_max, search.grid)
    best_t, best_m = None, -1.0
    for t in ts:
        m = min_modulus(float(t))
        if m >= search.margin:
            # first grid point meeting the margin wins
            return float(t)
        if m > best_m:
            best_t, best_m = float(t), m
    # local refinement around the best grid point
    step = (search.t_max - search.t_min) / max(search.grid - 1, 1)
    t_center = best_t
    for _ in range(3):
        lo, hi = t_center - step, t_center + step
        for t in np.linspace(max(lo, search.t_min), min(hi, search.t_max), 21):
            m = min_modulus(float(t))
            if m > best_m:
                t_center, best_m = float(t), m
        step /= 10.0
    if best_m >= search.margin:
        return t_center
    raise SearchFailure(
        f"no t in [{search.t_min}, {search.t_max}] reaches coefficient margin "
        f"{search.margin} (best {best_m:.3e} at t = {best_t:.6f})",
        best_t=best_t, best_margin=best_m)


def coprimality_sanity(f: CombPolynomial, g: CombPolynomial, seed: int = 0,
                       lines: int = 3, tol: float = 1e-7) -> bool:
    """Heuristic coprimality check for constant-coefficient polynomials.

    Restricts both polynomials to random lines and looks for shared roots; a
    common factor forces a shared root on every line.  Non-constant
    coefficients are accepted on the caller's word.
    """
    if not (f.has_constant_coeffs() and g.has_constant_coeffs()):
        return True
    fc = f.complex_at(2.0)
    gc = g.complex_at(2.0)
    if fc.num_vars != gc.num_vars:
        return True
    rng = np.random.default_rng(seed)
    shared_lines = 0
    for _ in range(lines):
        y = rng.normal(size=fc.num_vars) + 1j * rng.normal(size=fc.num_vars)
        u = rng.normal(size=fc.num_vars) + 1j * rng.normal(size=fc.num_vars)
        u /= np.linalg.norm(u)
        rf = np.trim_zeros(fc.restrict(y, u), "b")
        rg = np.trim_zeros(gc.restrict(y, u), "b")
        if len(rf) <= 1 or len(rg) <= 1:
            shared_lines += 1
            continue
        roots_f = univariate_roots(rf).roots
        roots_g = univariate_roots(rg).roots
        close = any(abs(a - b) < tol * max(1.0, abs(a))
                    for a in roots_f for b in roots_g)
        if close:
            shared_lines += 1
    return shared_lines < lines
