"""Which zerosep functions the traced run wraps, and how their spans turn
into per-layer metrics.

Time metrics are self (busy) time per op: a span's duration minus what its
traced children cover, so the layer times of an op and ``op.self_s`` add up
to the op's traced duration.
"""

from __future__ import annotations

from zerosep.precision import FLOAT_SAFE_T

from .spans import has_ancestor, self_times

STAGES = ("load", "auxiliary", "t0", "witness", "stability-steering", "twisted",
          "approx", "locate", "noncoincidence", "replicate")


def _reduce_attrs(args, kwargs, out):
    # integers reduced in extended precision, i.e. at heights past FLOAT_SAFE_T
    return {"ints": len(out) if abs(float(args[0])) > FLOAT_SAFE_T else 0}


def _stage_attrs(args, kwargs, out):
    return {"stage": out.name, "status": out.status, "seconds": out.seconds}


# (owner, attribute, span name, attrs); owner "module:Class" wraps a method
TARGETS = [
    ("zerosep.primes", "sieve_primes", "primes.sieve",
     lambda a, k, out: {"count": len(out)}),
    ("zerosep.precision", "phases_for_ints", "precision.reduce", _reduce_attrs),
    ("zerosep.euler", "local_logs", "euler.local_logs",
     lambda a, k, out: {"primes": len(out)}),
    ("zerosep.polyzero", "rouche_delta", "polyzero.rouche", None),
    ("zerosep.polyzero", "find_separating_zero", "polyzero.witness", None),
    ("zerosep.combalg", "build_auxiliary", "combalg", None),
    ("zerosep.combalg", "find_nonvanishing_t0", "combalg", None),
    ("zerosep.combalg", "coprimality_sanity", "combalg", None),
    ("zerosep.steering", "track_zero_in_sigma", "steering.track", None),
    ("zerosep.steering", "solve_phases", "steering.solve",
     lambda a, k, out: {"iterations": out.iterations, "converged": out.converged}),
    ("zerosep.lattice", "simultaneous_approx", "lattice.approx", None),
    ("zerosep.lattice", "almost_periods", "lattice.periods", None),
    ("zerosep.lattice", "lll_reduce", "lattice.lll",
     lambda a, k, out: {"dim": len(out)}),
    ("zerosep.lattice", "babai_nearest_plane", "lattice.babai", None),
    ("zerosep.lattice", "exact_phase_errors", "lattice.phase_errors", None),
    ("zerosep.locate", "twisted_eval", "locate.twisted", None),
    ("zerosep.locate:CombEvaluator", "anchored", "locate.anchor", None),
    ("zerosep.locate:CombEvaluator", "at", "locate.eval", None),
    ("zerosep.locate:AnchoredCombEvaluator", "__call__", "locate.eval", None),
    ("zerosep.locate", "refine_zero", "locate.refine",
     lambda a, k, out: {"winding": out.winding}),
    ("zerosep.locate", "certify_noncoincidence", "locate.noncoincidence", None),
    ("zerosep.pipeline", "export_certificate", "cli.write", None),
    ("zerosep.pipeline:RunRecord", "to_json", "cli.write", None),
    ("zerosep.pipeline", "StageOutcome", "pipeline.stage", _stage_attrs),
]

# per-op self time of these spans, as "<metric>": "<span>"
SELF_TIME = {
    "polyzero.rouche_s": "polyzero.rouche",
    "polyzero.witness_s": "polyzero.witness",
    "steering.track_s": "steering.track",
    "combalg.s": "combalg",
    "lattice.approx_s": "lattice.approx",
    "lattice.periods_s": "lattice.periods",
    "lattice.lll_s": "lattice.lll",
    "lattice.babai_s": "lattice.babai",
    "lattice.phase_errors_s": "lattice.phase_errors",
    "steering.solve_s": "steering.solve",
    "locate.twisted_s": "locate.twisted",
    "euler.local_logs_s": "euler.local_logs",
    "locate.anchor_s": "locate.anchor",
    "locate.eval_s": "locate.eval",
    "locate.refine_s": "locate.refine",
    "precision.reduce_s": "precision.reduce",
    "locate.noncoincidence_s": "locate.noncoincidence",
    "cli.write_s": "cli.write",
}

# per-op call counts
CALLS = {
    "polyzero.witness_calls": "polyzero.witness",
    "lattice.lll_calls": "lattice.lll",
    "euler.local_logs_calls": "euler.local_logs",
    "locate.evals": "locate.eval",
}

# (metric, unit, better) for everything ``layer_metrics`` returns
METRICS = (
    [(m, "s", "lower") for m in SELF_TIME]
    + [(m, "count", "lower") for m in CALLS]
    + [("lattice.lll_dim_max", "count", "lower"),
       ("lattice.candidates_per_solve", "count", "lower"),
       ("steering.gn_iterations", "count", "lower"),
       ("steering.converged_frac", "fraction", "higher"),
       ("euler.primes_per_call", "count", "lower"),
       ("locate.winding_frac", "fraction", "higher"),
       ("precision.reduce_ints", "count", "lower"),
       ("primes.sieve_s", "s", "lower"),
       ("primes.count", "count", "lower"),
       ("op.self_s", "s", "lower")]
    + [(f"stage.{name}_s", "s", "lower") for name in STAGES]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one run's spans.

    Spans with an op id belong to timed ops and are averaged per op; spans
    outside any op come from set-up and give the sieve figures.
    """
    selfs = self_times(spans)
    ops = {rec["op"] for rec in spans if rec["op"] is not None}
    n_ops = len(ops)
    self_by_name: dict[str, float] = {}
    calls_by_name: dict[str, int] = {}
    for rec, st in zip(spans, selfs):
        if rec["op"] is None:
            continue
        self_by_name[rec["name"]] = self_by_name.get(rec["name"], 0.0) + st
        calls_by_name[rec["name"]] = calls_by_name.get(rec["name"], 0) + 1

    def op_spans(name):
        return [rec for rec in spans if rec["op"] is not None and rec["name"] == name]

    out = {m: _ratio(self_by_name.get(s, 0.0), n_ops) for m, s in SELF_TIME.items()}
    out.update({m: _ratio(calls_by_name.get(s, 0), n_ops) for m, s in CALLS.items()})

    lll = op_spans("lattice.lll")
    out["lattice.lll_dim_max"] = float(max((r.get("dim", 0) for r in lll), default=0))
    solved = [r for r in op_spans("lattice.approx") if "error" not in r]
    candidates = sum(1 for r in op_spans("lattice.phase_errors")
                     if has_ancestor(spans, r, "lattice.approx"))
    out["lattice.candidates_per_solve"] = _ratio(candidates, len(solved))

    solves = op_spans("steering.solve")
    out["steering.gn_iterations"] = _ratio(
        sum(r.get("iterations", 0) for r in solves), n_ops)
    out["steering.converged_frac"] = _ratio(
        sum(1 for r in solves if r.get("converged")), len(solves))

    logs = op_spans("euler.local_logs")
    out["euler.primes_per_call"] = _ratio(sum(r.get("primes", 0) for r in logs),
                                          len(logs))
    refines = op_spans("locate.refine")
    out["locate.winding_frac"] = _ratio(
        sum(1 for r in refines if r.get("winding", 0) >= 1), len(refines))
    out["precision.reduce_ints"] = _ratio(
        sum(r.get("ints", 0) for r in op_spans("precision.reduce")), n_ops)

    sieves = [(rec, st) for rec, st in zip(spans, selfs)
              if rec["op"] is None and rec["name"] == "primes.sieve"]
    out["primes.sieve_s"] = sum(st for _, st in sieves)
    out["primes.count"] = float(max((rec.get("count", 0) for rec, _ in sieves),
                                    default=0))
    out["op.self_s"] = _ratio(self_by_name.get("op", 0.0), n_ops)

    for name in STAGES:
        secs = sum(r.get("seconds", 0.0) for r in op_spans("pipeline.stage")
                   if r.get("stage") == name)
        out[f"stage.{name}_s"] = _ratio(secs, n_ops)
    return out
