"""End-to-end zero-separation pipeline and its run records.

Stage order: load -> auxiliary -> t0 -> witness -> stability-steering ->
approx -> locate -> noncoincidence -> replicate (optional).  Every
stage failure surfaces as a StageError naming the stage; run records are
replayable from their embedded config and seeds.  Stability-steering moves
exactly the primes that approx aligns, picked by :func:`_aligned_primes`.
Values no run varies (the t0 search, the witness floor, steering limits and
``refine_zero``'s Newton and circle settings) are constants or defaults of
the layer that reads them, not :class:`PipelineConfig` fields.  Locate
certifies on a disk of radius min(0.02, (sigma - 1)/2), and replicate aligns
its shifts at ``approx_accuracy``.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable

import mpmath as mp
import numpy as np

from . import __version__
from .combalg import (CombPolynomial, SeparationProblem, build_auxiliary,
                      coprimality_sanity, find_nonvanishing_t0, support_prime)
from .combfile import CombinationFile, SpecDecl, load_combination
from .errors import (DomainError, EmptyRecord, MarginFailure, NoZeroFound,
                     NonConvergence, ParseError, StageError, ZerosepError)
from .euler import check_local_radius
from .hurwitz import hurwitz_as_combination
from .lattice import almost_periods, simultaneous_approx
from .locate import (CombEvaluator, ZeroCertificate,
                     combination_drift_bound, certify_noncoincidence,
                     refine_zero)
from .pfinite import PFiniteSeries
from .polyzero import SeparatingZero, find_separating_zero
from .precision import mpf_to_text, needed_bits
from .primes import primes_up_to
from .steering import (SteerOptions, SteeringTarget, solve_phases,
                       track_zero_in_sigma)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run varies, each field set by some builtin, a
    ``separate`` flag or a config file; serializes to JSON and round-trips.
    R follows from the witness and the auxiliary cutoff from the support."""

    problem: str = "builtin:toy-finite-pair"
    sigma: float = 1.05
    P: int = 1000             # caps the steered primes; default locate cutoff
    zero_margin: float = 1e-3  # witness |g| floor
    zero_candidates: int = 12  # witness draws
    steer_tol: float = 1e-8
    approx_accuracy: float = 0.02
    approx_max_primes: int = 24  # primes steered and then aligned
    locate_P: int = 0         # 0 = same as P (capped at 200000)
    seed: int = 0
    replicate_count: int = 0
    out_dir: str = "."

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "PipelineConfig":
        return PipelineConfig.from_dict(_json_object(text, "config"))

    @staticmethod
    def from_dict(obj) -> "PipelineConfig":
        """Config from its JSON object; unknown keys raise ``ParseError``."""
        if not isinstance(obj, dict):
            raise ParseError("config is not a JSON object")
        unknown = sorted(set(obj) - {f.name for f in fields(PipelineConfig)})
        if unknown:
            raise ParseError(f"unknown config keys: {', '.join(unknown)}")
        return PipelineConfig(**obj)

    @property
    def locate_cutoff(self) -> int:
        """Prime cutoff of locate and the stages after it."""
        return self.locate_P or min(self.P, 200_000)

    def validate(self) -> None:
        if self.sigma <= 1:
            raise DomainError("sigma must exceed 1")
        if self.P < 2 or self.approx_max_primes < 1 or self.zero_candidates < 1:
            raise DomainError("cutoffs and counts must be positive")
        if not 0 < self.approx_accuracy < math.pi:
            raise DomainError("approx_accuracy must lie in (0, pi)")
        if not self.steer_tol > 0:
            raise DomainError("steer_tol must be positive")
        for name in ("replicate_count", "locate_P", "zero_margin"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must not be negative")


@dataclass
class StageOutcome:
    name: str
    status: str  # ok | failed | skipped
    seconds: float
    data: dict = field(default_factory=dict)


@dataclass
class RunRecord:
    config: PipelineConfig
    stages: list
    certificates: list  # ZeroCertificate objects
    version: str = __version__

    def stage(self, name: str) -> StageOutcome:
        for st in self.stages:
            if st.name == name:
                return st
        raise KeyError(name)

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "config": asdict(self.config),
            "stages": [{"name": s.name, "status": s.status,
                        "seconds": round(s.seconds, 3), "data": s.data}
                       for s in self.stages],
            "certificates": [c.to_text() for c in self.certificates],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RunRecord":
        obj = _json_object(text, "run record")
        for key in ("certificates", "stages"):
            if key not in obj:
                raise ParseError(f"run record has no {key!r} key")
        rec = RunRecord(config=PipelineConfig.from_dict(obj.get("config")), stages=[],
                        certificates=[ZeroCertificate.from_text(t)
                                      for t in obj["certificates"]],
                        version=obj.get("version", "unknown"))
        for s in obj["stages"]:
            rec.stages.append(StageOutcome(s["name"], s["status"], s["seconds"],
                                           s["data"]))
        return rec


def _json_object(text: str, what: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{what} is not a JSON object")
    return obj


def _json_safe(x):
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.complexfloating,)):
        return [float(x.real), float(x.imag)]
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    if isinstance(x, mp.mpf):
        return mpf_to_text(x)
    if isinstance(x, np.ndarray):
        return [_json_safe(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _json_safe(v) for k, v in x.items()}
    return x


# --- builtin catalog -----------------------------------------------------------


def _hurwitz_problem(a1: int, a2: int, q: int) -> CombinationFile:
    f, specs, _ = hurwitz_as_combination(a1, q)
    g, _, _ = hurwitz_as_combination(a2, q)
    decls = tuple(SpecDecl(f"chi{i}_mod{q}", "dirichlet_L", (q, i))
                  for i in range(len(specs)))
    names = tuple(d.name for d in decls)
    return CombinationFile(decls, names, names, f, g)


def _toy_finite_pair() -> CombinationFile:
    decls = (SpecDecl("toyA", "finite_euler", ((2, 1.0 + 0.0j), (3, 1.0 + 0.0j))),
             SpecDecl("toyB", "finite_euler", ((5, 1.0 + 0.0j), (7, 1.0 + 0.0j))))
    mu = 1.2349469153094004  # geometric middle of both reachable annuli at sigma 1.05
    f = CombPolynomial(2, ((PFiniteSeries.constant(1.0), (1, 1)),
                           (PFiniteSeries.constant(-mu), (0, 0))))
    g = CombPolynomial(2, ((PFiniteSeries.constant(1.0), (1, 0)),
                           (PFiniteSeries.constant(-1.0), (0, 1))))
    return CombinationFile(decls, ("toyA", "toyB"), ("toyA", "toyB"), f, g)


def _charpair_mod5() -> CombinationFile:
    decls = (SpecDecl("chi1_mod5", "dirichlet_L", (5, 1)),
             SpecDecl("chi3_mod5", "dirichlet_L", (5, 3)))
    names = tuple(d.name for d in decls)
    f = CombPolynomial(2, ((PFiniteSeries.constant(1.0), (1, 1)),
                           (PFiniteSeries.constant(1.0), (1, 0)),
                           (PFiniteSeries.constant(1.0), (0, 1))))
    g = CombPolynomial(2, ((PFiniteSeries.constant(1.0), (1, 0)),
                           (PFiniteSeries.constant(-1.0), (0, 1)),
                           (PFiniteSeries.from_terms({1: 1.0, 2: -2.0}), (0, 0))))
    return CombinationFile(decls, names, names, f, g)


def _zeta_vs_sparse() -> CombinationFile:
    decls = (SpecDecl("zeta", "riemann_zeta", ()),
             SpecDecl("sparse_Z", "sparse_Z", ()))
    names = ("zeta", "sparse_Z")
    f = CombPolynomial(2, ((PFiniteSeries.constant(1.0), (1, 0)),
                           (PFiniteSeries.constant(-2.2), (0, 1))))
    g = CombPolynomial(2, ((PFiniteSeries.constant(1.0), (1, 0)),
                           (PFiniteSeries.constant(1.3), (0, 1))))
    return CombinationFile(decls, names, names, f, g)


BUILTIN_DEFAULTS: dict[str, dict] = {
    "hurwitz-1-3-vs-2-3": dict(sigma=1.01, P=200_000, steer_tol=1e-8,
                               zero_margin=1e-2, approx_max_primes=16),
    "hurwitz-2-3-vs-1-3": dict(sigma=1.01, P=200_000, steer_tol=1e-8,
                               zero_margin=1e-2, approx_max_primes=16),
    "hurwitz-3-4-vs-1-4": dict(sigma=1.01, P=200_000, steer_tol=1e-8,
                               zero_margin=1e-2, approx_max_primes=16),
    "hurwitz-1-5-vs-2-5": dict(sigma=1.01, P=200_000, steer_tol=1e-6,
                               zero_margin=1e-2, approx_max_primes=16),
    "charpair-mod5": dict(sigma=1.02, P=2_000_000, steer_tol=1e-6),
    "zeta-vs-sparse": dict(sigma=1.3, P=1_000_000, steer_tol=1e-6),
    "toy-finite-pair": dict(sigma=1.05, P=10, steer_tol=1e-9,
                            approx_accuracy=0.01, locate_P=10,
                            zero_candidates=40, seed=5),
}


def builtin_problem(name: str) -> CombinationFile:
    key = name.strip().lower().replace(" ", "-").replace("/", "-")
    if key.startswith("hurwitz"):
        parts = [p for p in key.replace("hurwitz", "").split("-") if p]
        if len(parts) == 5 and parts[2] == "vs":
            a1, q1, a2, q2 = int(parts[0]), int(parts[1]), int(parts[3]), int(parts[4])
            if q1 != q2:
                raise ParseError("builtin hurwitz pairs share one modulus")
            return _hurwitz_problem(a1, a2, q1)
    if key == "toy-finite-pair":
        return _toy_finite_pair()
    if key == "charpair-mod5":
        return _charpair_mod5()
    if key == "zeta-vs-sparse":
        return _zeta_vs_sparse()
    raise ParseError(f"unknown builtin problem {name!r}; known: "
                     f"{sorted(BUILTIN_DEFAULTS)}")


def builtin_config(name: str, **overrides) -> PipelineConfig:
    key = name.strip().lower().replace(" ", "-").replace("/", "-")
    base = dict(BUILTIN_DEFAULTS.get(key, {}))
    base.update(overrides)
    return PipelineConfig(problem=f"builtin:{key}", **base)


def _load_problem(config: PipelineConfig) -> SeparationProblem:
    src = config.problem
    if src.startswith("builtin:"):
        cf = builtin_problem(src.split(":", 1)[1])
    elif src.startswith("file:"):
        cf = load_combination(src.split(":", 1)[1])
    else:
        raise ParseError("problem must be 'builtin:<name>' or 'file:<path>'")
    return cf.build_problem()


def _aligned_primes(specs, y: int, P: int, count: int) -> np.ndarray:
    """The first ``count`` primes in (y, P] at which some spec has a(p) != 0,
    which stability-steering moves and approx aligns.  When every |a(p)| is 0
    or 1, as for every builtin spec, they are also the ``count`` heaviest by
    first-order weight max_j |a_j(p)| p^-sigma."""
    ps = primes_up_to(P)
    ps = ps[ps > y]
    active = np.any([F.a_values(ps) != 0 for F in specs], axis=0)
    return ps[active][:count]


# --- the pipeline ----------------------------------------------------------------


def run_separation_pipeline(config: PipelineConfig) -> RunRecord:
    """Execute the full separation pipeline; see the module docstring for the
    stage order.  Failures raise StageError carrying the stage name and the
    partial run record."""
    config.validate()
    record = RunRecord(config=config, stages=[], certificates=[])

    def run_stage(name: str, fn: Callable):
        t0 = time.time()
        try:
            data = fn()
        except ZerosepError as exc:
            record.stages.append(StageOutcome(name, "failed", time.time() - t0,
                                              {"error": str(exc)}))
            raise StageError(name, exc, record) from exc
        record.stages.append(StageOutcome(name, "ok", time.time() - t0,
                                          _json_safe(data)))
        return data

    state: dict = {}

    def stage_load():
        problem = _load_problem(config)
        for F in problem.variable_order:
            check_local_radius(F, config.sigma)
        if not coprimality_sanity(problem.f, problem.g, seed=config.seed):
            raise DomainError("combinations failed the coprimality sanity check "
                              "(shared zero locus on random lines)")
        state["problem"] = problem
        return {"shared": problem.shared_count, "total_vars": problem.total_vars,
                "support_prime": support_prime(problem.f, problem.g)}

    def stage_auxiliary():
        state["aux"] = aux = build_auxiliary(state["problem"])
        return {"cutoff_prime": aux.cutoff_prime}

    def stage_t0():
        aux = state["aux"]
        t0 = find_nonvanishing_t0(aux)
        state["aux"] = aux.with_t0(t0)
        vals = state["aux"].coefficient_values(complex(1.0, t0))
        return {"t0": t0, "coefficient_margin": min(abs(v) for v in vals)}

    def stage_witness():
        aux = state["aux"]
        s1 = complex(1.0, aux.t0)
        fp, gp = aux.f_poly_at(s1), aux.g_poly_at(s1)
        cands, errors = [], []
        for i in range(config.zero_candidates):
            try:
                cands.append(find_separating_zero(
                    fp, gp, g_margin=config.zero_margin, seed=config.seed + 1000 * i))
            except ZerosepError as exc:
                errors.append(exc)
        if not cands:
            counts = getattr(errors[0], "diagnostics", {})
            detail = ", ".join(f"{k} {v}" for k, v in counts.items())
            raise NoZeroFound(f"all {len(errors)} witness draws failed; draw 0: "
                              f"{errors[0]}" + (f" ({detail})" if detail else ""))

        def demand(c: SeparatingZero) -> float:
            w = np.log(np.abs(c.x)) ** 2 + np.angle(c.x) ** 2
            return float(np.max(np.sqrt(w)))

        cands.sort(key=demand)
        state["candidates"] = cands
        return {"candidates": len(cands), "draws_failed": len(errors),
                "best_x": list(cands[0].x), "best_demand": demand(cands[0])}

    def stage_stability_and_steering():
        aux = state["aux"]
        problem = state["problem"]
        state["approx_primes"] = aligned = _aligned_primes(
            problem.variable_order, aux.cutoff_prime, config.P, config.approx_max_primes)
        full = len(aligned) == config.approx_max_primes
        P_steer = int(aligned[-1]) if full else config.P
        errors = []
        for idx, cand in enumerate(state["candidates"]):
            mods = np.abs(cand.x)
            R = max(2.0, 2.0 * float(np.max(mods)), 2.0 / float(np.min(mods)))
            try:
                tracked = track_zero_in_sigma(aux, cand, R, config.sigma,
                                              seed=config.seed + idx)
                target = SteeringTarget(tuple(tracked.z), R=R, sigma=config.sigma,
                                        eta=config.sigma - 1.0,
                                        y=aux.cutoff_prime, P=P_steer)
                steer = solve_phases(problem.variable_order, target, SteerOptions(
                    tol=config.steer_tol, seed=config.seed + idx))
                state["steer"] = steer
                return {"candidate_index": idx, "R": R,
                        "drift": tracked.drift, "delta": tracked.delta,
                        "tracked_z": list(tracked.z),
                        "residuals": list(steer.residuals),
                        "budget": steer.budget,
                        "budgets_per_target": list(steer.budgets_per_target),
                        "iterations": steer.iterations}
            except ZerosepError as exc:
                errors.append(f"candidate {idx}: {exc}")
                continue
        raise NonConvergence(
            f"all {len(errors)} witness candidates failed stability or steering "
            f"of the {len(aligned)} active primes in ({aux.cutoff_prime}, {P_steer}] "
            f"(raise {'approx_max_primes' if full else 'P'} to steer more); "
            f"lowest witness demand first: " + " | ".join(errors[:3]))

    def stage_approx():
        assignment = state["steer"].assignment
        aligned = state["approx_primes"]
        shifts = assignment.shifts[np.searchsorted(assignment.primes, aligned)]
        phases = {p: (tp * math.log(p)) % TWO_PI
                  for p, tp in zip(aligned.tolist(), shifts.tolist())}
        res = simultaneous_approx(phases, config.approx_accuracy)
        state["approx"] = res
        # first-order weight of the primes locate evaluates but nobody steered
        ps = primes_up_to(config.locate_cutoff)
        ps = ps[ps > aligned[-1]]
        dropped_weight = float(np.sum(np.max(
            [np.abs(F.a_values(ps)) for F in state["problem"].variable_order],
            axis=0) * ps.astype(np.float64) ** (-config.sigma)))
        return {"t": res.t, "max_phase_error": res.max_phase_error,
                "method": res.method, "primes": aligned.tolist(),
                "dropped_weight": dropped_weight,
                "precision_bits": res.precision_bits}

    def stage_locate():
        problem = state["problem"]
        res = state["approx"]
        ev_f = CombEvaluator(problem.f_on_full_vars(), problem.variable_order,
                             P=config.locate_cutoff)
        anchored = ev_f.anchored(res.t)
        state["ev_f_anchored"] = anchored
        r0 = min(0.02, (config.sigma - 1.0) / 2.0)
        cert = refine_zero(anchored, complex(config.sigma, 0.0), r0)
        gap = cert.gap()
        if gap:
            raise MarginFailure(f"no certified zero: {gap}",
                                margin=cert.boundary_min - cert.tail_budget)
        cert = replace(cert, anchor=mpf_to_text(anchored.t_anchor),
                       precision_bits=anchored.bits,
                       meta={"problem": config.problem, "P": config.locate_cutoff,
                             "sigma": config.sigma, "seed": config.seed})
        state["certificate"] = cert
        record.certificates.append(cert)
        return {"status": cert.status, "center": cert.center,
                "winding": cert.winding, "radius": cert.radius,
                "abs_value": abs(cert.value_at_center),
                "boundary_min": cert.boundary_min,
                "tail_budget": cert.tail_budget}

    def stage_noncoincidence():
        problem = state["problem"]
        cert = state["certificate"]
        ev_g = CombEvaluator(problem.g_on_full_vars(), problem.variable_order,
                             P=config.locate_cutoff)
        anchored_f = state["ev_f_anchored"]
        upgraded = certify_noncoincidence(
            cert, ev_g.anchored(anchored_f.t_anchor, bits=anchored_f.bits))
        gap = upgraded.gap()
        if gap:
            raise MarginFailure(gap, margin=upgraded.g_min_on_disk - cert.tail_budget)
        upgraded = replace(upgraded, meta=dict(cert.meta, partner="g"))
        record.certificates[-1] = upgraded
        state["certificate"] = upgraded
        return {"status": upgraded.status, "g_min_on_disk": upgraded.g_min_on_disk}

    def stage_replicate():
        cert = state["certificate"]
        res = state["approx"]
        taus = almost_periods(res.t, int(state["approx_primes"][-1]),
                              config.approx_accuracy,
                              count=config.replicate_count)
        ev_f = state["ev_f_anchored"].ev
        drift = combination_drift_bound(
            ev_f.f, ev_f.specs, config.sigma, config.approx_accuracy,
            int(state["approx_primes"][-1]), config.locate_cutoff)
        # the re-search window grows by the drift bound but must stay in Re > 1
        r_rep = min(cert.radius + drift, 0.8 * (cert.center.real - 1.0))
        r_rep = max(r_rep, 0.5 * cert.radius)
        outcomes = []
        for tau in taus:
            with mp.workprec(max(needed_bits(res.t), needed_bits(tau)) + 32):
                t_new = mp.mpf(res.t) + mp.mpf(tau)
            anchored = ev_f.anchored(t_new)
            try:
                c2 = refine_zero(anchored,
                                 complex(cert.center.real, 0.0),
                                 r_rep)
                outcomes.append({"tau": tau, "status": c2.status,
                                 "center": c2.center,
                                 "abs_value": abs(c2.value_at_center)})
            except ZerosepError as exc:
                outcomes.append({"tau": tau, "status": "failed",
                                 "error": str(exc)})
        return {"taus": taus, "outcomes": outcomes,
                "drift_bound": drift, "window_radius": r_rep,
                "successes": sum(1 for o in outcomes if o["status"] != "failed")}

    run_stage("load", stage_load)
    run_stage("auxiliary", stage_auxiliary)
    run_stage("t0", stage_t0)
    run_stage("witness", stage_witness)
    run_stage("stability-steering", stage_stability_and_steering)
    run_stage("approx", stage_approx)
    run_stage("locate", stage_locate)
    run_stage("noncoincidence", stage_noncoincidence)
    if config.replicate_count > 0:
        run_stage("replicate", stage_replicate)
    else:
        record.stages.append(StageOutcome("replicate", "skipped", 0.0,
                                          {"reason": "replication disabled"}))
    return record


STAGE_EXIT_CODES = {
    "load": 20, "auxiliary": 21, "t0": 22, "witness": 23,
    "stability-steering": 24, "approx": 26, "locate": 27,
    "noncoincidence": 28, "replicate": 29,
}


# --- export ----------------------------------------------------------------------


def export_certificate(record: RunRecord, fmt: str = "text") -> list[str]:
    """Write certificates (structured text) or a CSV summary into the run's
    ``out_dir``; deterministic bytes for identical records."""
    if not record.certificates:
        raise EmptyRecord("record holds no certificate")
    out_dir = record.config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    if fmt == "text":
        for i, cert in enumerate(record.certificates):
            path = os.path.join(out_dir, f"zero-{i:02d}.cert")
            body = cert.to_text()
            body += ("re-verify: rebuild the combination from the recorded "
                     "problem, anchor the evaluator at the exact height above, "
                     "and re-run the winding scan at the stated radius\n")
            body += f"problem {record.config.problem}\n"
            body += f"seed {record.config.seed}\n"
            body += f"cutoff_P {record.config.locate_cutoff}\n"
            with open(path, "w") as fh:
                fh.write(body)
            paths.append(path)
    elif fmt == "csv":
        path = os.path.join(out_dir, "certificates.csv")
        with open(path, "w") as fh:
            fh.write("index,status,center_re,center_im_offset,anchor,radius,"
                     "winding,boundary_min,tail_budget,g_min_on_disk,abs_value\n")
            for i, cert in enumerate(record.certificates):
                fh.write(",".join([
                    str(i), cert.status, repr(float(cert.center.real)),
                    repr(float(cert.center.imag)), cert.anchor or "0",
                    repr(float(cert.radius)), str(int(cert.winding)),
                    repr(float(cert.boundary_min)), repr(float(cert.tail_budget)),
                    "none" if cert.g_min_on_disk is None
                    else repr(float(cert.g_min_on_disk)),
                    repr(float(abs(cert.value_at_center))),
                ]) + "\n")
        paths.append(path)
    else:
        raise DomainError(f"unknown export format {fmt!r}")
    return paths
