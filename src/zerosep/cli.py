"""Command line front end.

Subcommands: characters, hurwitz, steer, approx, separate, replicate,
count.  Pipeline failures exit with the failing stage's code (see
``zerosep separate --help``); other library errors exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .characters import dirichlet_characters
from .combfile import read_text
from .errors import ParseError, StageError, ZerosepError
from .hurwitz import hurwitz_as_combination, hurwitz_eval
from .lattice import simultaneous_approx
from .locate import CombEvaluator, count_zeros_in_strip
from .pipeline import (STAGE_EXIT_CODES, PipelineConfig, RunRecord,
                       builtin_config, export_certificate,
                       run_separation_pipeline, _load_problem)
from .steering import SteerOptions, SteeringTarget, solve_phases


def _parse_fields(text: str, sep: str, types: tuple, what: str) -> tuple:
    """``text`` split at ``sep`` into one value per type, or ``ParseError``."""
    parts = text.split(sep)
    try:
        if len(parts) == len(types):
            return tuple(kind(part) for kind, part in zip(types, parts))
    except ValueError:
        pass
    raise ParseError(f"bad {what}: {text!r}")


def _parse_complex(text: str) -> complex:
    types = (float, float) if "," in text else (float,)
    return complex(*_parse_fields(text, ",", types, "complex value re[,im]"))


def cmd_characters(args) -> int:
    chars = dirichlet_characters(args.modulus)
    print(f"# {len(chars)} characters mod {args.modulus} (principal first)")
    for i, chi in enumerate(chars):
        row = " ".join(f"{chi.value(n):+.3f}" for n in range(args.modulus or 1))
        print(f"chi_{i}: {row}")
    return 0


def cmd_hurwitz(args) -> int:
    s = _parse_complex(args.s)
    direct = hurwitz_eval(args.a, args.q, s, args.cutoff)
    poly, specs, pref = hurwitz_as_combination(args.a, args.q)
    comb = CombEvaluator(poly, specs, args.prime_cutoff).at(s)
    adj = comb.value * pref.value(s)
    print(f"direct sum:      {direct.value:.12g} (bound {direct.abs_error_bound:.3e})")
    print(f"combination:     {comb.value:.12g} (bound {comb.abs_error_bound:.3e})")
    print(f"prefactor:       {pref.describe()}")
    print(f"prefactor * comb {adj:.12g}")
    print(f"difference:      {abs(adj - direct.value):.3e}")
    return 0


def cmd_steer(args) -> int:
    config = _config_from_args(args)
    problem = _load_problem(config)
    targets = tuple(_parse_complex(t) for t in args.targets.split(";"))
    target = SteeringTarget(targets, R=args.R, sigma=config.sigma,
                            eta=config.sigma - 1.0, y=args.y, P=config.P)
    res = solve_phases(problem.variable_order, target,
                       options=SteerOptions(tol=config.steer_tol,
                                            seed=config.seed))
    print(f"converged: {res.converged} after {res.iterations} iterations")
    for j, (a, r) in enumerate(zip(res.achieved, res.residuals)):
        print(f"  target {j}: achieved {a:.9g}, residual {r:.3e}")
    if args.out:
        res.assignment.to_csv(args.out, meta={
            "sigma": config.sigma, "y": args.y, "P": config.P,
            "seed": config.seed,
            "residuals": ";".join(f"{r:.3e}" for r in res.residuals)})
        print(f"wrote {args.out}")
    return 0


def cmd_approx(args) -> int:
    phases = {}
    for part in args.phases.split(","):
        p, theta = _parse_fields(part, ":", (int, float), "phase p:theta")
        if p in phases:
            raise ParseError(f"prime {p} is given more than one phase")
        phases[p] = theta
    res = simultaneous_approx(phases, args.accuracy)
    print(f"t = {res.t}")
    print(f"max phase error = {res.max_phase_error:.4g} (method {res.method}, "
          f"{res.precision_bits} bits)")
    print(f"independently recomputed error = {res.recompute_error():.4g}")
    return 0


def _config_from_args(args) -> PipelineConfig:
    if getattr(args, "config", None):
        config = PipelineConfig.from_json(read_text(args.config))
    elif getattr(args, "builtin", None):
        config = builtin_config(args.builtin)
    elif getattr(args, "file", None):
        config = PipelineConfig(problem=f"file:{args.file}")
    else:
        raise ZerosepError("pass --builtin, --file, or --config")
    overrides = {}
    for name in ("sigma", "P", "seed", "out_dir", "replicate_count",
                 "approx_accuracy", "steer_tol"):
        v = getattr(args, name, None)
        if v is not None:
            overrides[name] = v
    return replace(config, **overrides)


def _write_record(record: RunRecord) -> None:
    for st in record.stages:
        print(f"[{st.status:>7}] {st.name:<20} {st.seconds:8.2f}s")
    os.makedirs(record.config.out_dir, exist_ok=True)
    path = os.path.join(record.config.out_dir, "run_record.json")
    with open(path, "w") as fh:
        fh.write(record.to_json())
    print(f"wrote {path}")


def cmd_separate(args) -> int:
    """Run the pipeline and write its run record, also when a stage fails;
    certificates are exported only from a completed run."""
    config = _config_from_args(args)
    try:
        record = run_separation_pipeline(config)
    except StageError as exc:
        _write_record(exc.record)
        raise
    _write_record(record)
    paths = export_certificate(record, "text")
    paths += export_certificate(record, "csv")
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_replicate(args) -> int:
    record = RunRecord.from_json(read_text(args.record))
    config = replace(record.config, replicate_count=args.count)
    new_record = run_separation_pipeline(config)
    rep = new_record.stage("replicate")
    print(json.dumps(rep.data, indent=2, default=str))
    return 0


def cmd_count(args) -> int:
    config = _config_from_args(args)
    problem = _load_problem(config)
    ev = CombEvaluator(problem.f_on_full_vars(), problem.variable_order,
                       P=config.locate_cutoff)
    s_range = _parse_fields(args.sigma_range, ":", (float, float), "range lo:hi")
    t_range = _parse_fields(args.t_range, ":", (float, float), "range lo:hi")
    result = count_zeros_in_strip(ev.at, s_range, t_range,
                                  subdivision=args.subdivision)
    print(f"zeros (with multiplicity): {result.total}")
    print(f"cells evaluated: {result.cells}, flagged: {len(result.flagged)}")
    for cell, reason in result.flagged:
        print(f"  unresolved {cell}: {reason}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zerosep",
        description="Constructive zero separation for combinations of Euler "
                    "products in Re(s) > 1.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characters", help="print a character table")
    p.add_argument("--modulus", type=int, required=True)
    p.set_defaults(fn=cmd_characters)

    p = sub.add_parser("hurwitz", help="compare the shifted zeta sum with its "
                                       "character combination")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", default="2,0", help="evaluation point re,im")
    p.add_argument("--cutoff", type=int, default=1_000_000,
                   help="direct-sum cutoff N")
    p.add_argument("--prime-cutoff", type=int, default=100_000,
                   dest="prime_cutoff", help="Euler-product cutoff P")
    p.set_defaults(fn=cmd_hurwitz)

    def add_problem_args(p):
        p.add_argument("--builtin", help="builtin problem name")
        p.add_argument("--file", help="combination definition file")
        p.add_argument("--config", help="pipeline config JSON")
        p.add_argument("--sigma", type=float)
        p.add_argument("--P", type=int)
        p.add_argument("--seed", type=int)

    p = sub.add_parser("steer", help="steer tail products onto targets")
    add_problem_args(p)
    p.add_argument("--targets", required=True,
                   help="semicolon-separated complex targets re,im;re,im;...")
    p.add_argument("--R", type=float, default=2.0)
    p.add_argument("--y", type=int, default=1)
    p.add_argument("--steer-tol", type=float, dest="steer_tol")
    p.add_argument("--out", help="write the phase assignment CSV here")
    p.set_defaults(fn=cmd_steer)

    p = sub.add_parser("approx", help="simultaneous phase approximation")
    p.add_argument("--phases", required=True,
                   help="comma list p:theta, e.g. 2:1.0,3:2.5")
    p.add_argument("--accuracy", type=float, default=0.05)
    p.set_defaults(fn=cmd_approx)

    p = sub.add_parser("separate", help="run the full separation pipeline")
    add_problem_args(p)
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.add_argument("--replicate", type=int, dest="replicate_count")
    p.add_argument("--approx-accuracy", type=float, dest="approx_accuracy")
    p.add_argument("--steer-tol", type=float, dest="steer_tol")
    p.set_defaults(fn=cmd_separate)

    p = sub.add_parser("replicate", help="re-run replication from a run record")
    p.add_argument("--record", required=True)
    p.add_argument("--count", type=int, default=3)
    p.set_defaults(fn=cmd_replicate)

    p = sub.add_parser("count", help="count zeros in a rectangle")
    add_problem_args(p)
    p.add_argument("--sigma-range", dest="sigma_range", required=True,
                   help="lo:hi with lo > 1")
    p.add_argument("--t-range", dest="t_range", required=True, help="lo:hi")
    p.add_argument("--subdivision", type=int, default=4)
    p.set_defaults(fn=cmd_count)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STAGE_EXIT_CODES.get(exc.stage, 1)
    except ZerosepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
