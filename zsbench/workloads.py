"""The benchmark's workloads: seeded inputs, one op per input, and an
independent check of each op's output.

Every op calls zerosep through public functions only.  An op that ends in a
``ZerosepError`` returns that as its verdict; any other exception escapes to
the runner, which counts it as failed.  ``check`` returns ``None`` when the
output is right and a message otherwise.
"""

from __future__ import annotations

import contextlib
import glob
import io
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

# Layer functions are called through their modules so that the traced run's
# wrappers, installed on those modules, see the calls.
from zerosep import cli, lattice, locate, steering
from zerosep.errors import ZerosepError
from zerosep.lattice import ApproximationResult
from zerosep.locate import ZeroCertificate
from zerosep.pipeline import RunRecord, builtin_problem
from zerosep.precision import needed_bits
from zerosep.primes import primes_up_to
from zerosep.steering import SteerOptions, SteeringTarget

HURWITZ_PAIR = "hurwitz-1-3-vs-2-3"


@dataclass
class Outcome:
    """What one op produced: a verdict label, whether it reached the
    workload's goal, and whatever the check needs.

    ``check`` sets ``shortfall`` when the output is right but the program
    broke what the workload expects of that verdict; the op then counts as
    failed without making the run incorrect.
    """

    verdict: str
    solved: bool
    payload: dict = field(default_factory=dict)
    shortfall: str | None = None


class Workload:
    name = ""
    P = 0

    def __init__(self, seed: int, scratch: str):
        self.seed = int(seed)
        self.scratch = scratch

    def setup(self) -> None:
        """Problem build, prime sieve to P and one untimed warm-up op on a
        fixed input, so every run of every seed pays the same set-up."""
        self.build()
        primes_up_to(self.P)
        out = self.op(self.warmup_input())
        err = self.check(out)
        self.cleanup(out)
        if err is not None:
            raise RuntimeError(f"warm-up op failed its check: {err}")

    def build(self) -> None:
        pass

    def warmup_input(self):
        raise NotImplementedError

    def inputs(self):
        """Endless stream of op inputs derived from the workload seed."""
        raise NotImplementedError

    def op(self, inp) -> Outcome:
        raise NotImplementedError

    def check(self, out: Outcome) -> str | None:
        raise NotImplementedError

    def cleanup(self, out: Outcome) -> None:
        pass


class ToySeparate(Workload):
    """``zerosep separate`` on the toy builtin through the CLI entry point,
    one pipeline seed per op, certificates and run record written to a fresh
    directory."""

    name = "toy-separate"
    P = 10

    def warmup_input(self):
        return 5  # the builtin's own default seed, which certifies

    def inputs(self):
        rng = np.random.default_rng([self.seed, 101])
        while True:
            yield int(rng.integers(0, 1_000_000))

    def op(self, pipeline_seed: int) -> Outcome:
        out_dir = tempfile.mkdtemp(prefix="sep-", dir=self.scratch)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["separate", "--builtin", "toy-finite-pair",
                           "--seed", str(pipeline_seed), "--replicate", "3",
                           "--out-dir", out_dir])
        return Outcome(f"exit {rc}", rc == 0, {"rc": rc, "out_dir": out_dir})

    def check(self, out: Outcome) -> str | None:
        rc, out_dir = out.payload["rc"], out.payload["out_dir"]
        err = check_separate(rc, out_dir)
        if err is None and rc == 0 and any(
                cert.status != "certified" for _, cert in read_certificates(out_dir)):
            # The pipeline ends "ok" on a zero it found but could not
            # certify, and the CLI exits 0; the certificate says so.
            out.verdict, out.solved = "exit 0 numeric-only", False
            out.shortfall = "exit 0 without a certified zero"
        return err

    def cleanup(self, out: Outcome) -> None:
        shutil.rmtree(out.payload["out_dir"], ignore_errors=True)


def read_certificates(out_dir: str) -> list[tuple[str, ZeroCertificate]]:
    """(file name, parsed certificate) for each ``.cert`` file in out_dir."""
    certs = []
    for path in sorted(glob.glob(os.path.join(out_dir, "*.cert"))):
        with open(path) as fh:
            certs.append((os.path.basename(path), ZeroCertificate.from_text(fh.read())))
    return certs


def margins_certify(cert: ZeroCertificate) -> bool:
    """Whether a certificate's own numbers meet the conditions for
    ``certified``: a winding circle whose boundary minimum, and the partner's
    minimum on the disk when recorded, clear the tail budget."""
    return (cert.winding >= 1 and cert.boundary_min > cert.tail_budget
            and (cert.g_min_on_disk is None
                 or cert.g_min_on_disk > cert.tail_budget))


def check_separate(rc: int, out_dir: str) -> str | None:
    """Exit 0 must leave self-consistent certificates, each labelled with the
    status its own margins give, and a run record that parses back and holds
    as many; a refusal (exit 1 or a stage code 20-29) must leave no
    certificate."""
    certs = sorted(glob.glob(os.path.join(out_dir, "*.cert")))
    if rc == 0:
        if not certs:
            return "exit 0 without a certificate"
        for name, cert in read_certificates(out_dir):
            if cert.status not in ("certified", "numeric-only"):
                return f"{name} says {cert.status}"
            if not cert.consistent():
                return f"{name} is not consistent"
            if (cert.status == "certified") != margins_certify(cert):
                return f"{name} says {cert.status} against its own margins"
        with open(os.path.join(out_dir, "run_record.json")) as fh:
            record = RunRecord.from_json(fh.read())
        if len(record.certificates) != len(certs):
            return "run record and certificate files disagree"
        return None
    if rc == 1 or 20 <= rc <= 29:
        return f"exit {rc} left {len(certs)} certificate(s)" if certs else None
    return f"unexpected exit code {rc}"


class _Hurwitz(Workload):
    SIGMA = 1.01

    def build(self) -> None:
        problem = builtin_problem(HURWITZ_PAIR).build_problem()
        self.order = problem.variable_order
        self.f = problem.f_on_full_vars()
        self.g = problem.g_on_full_vars()


class HurwitzSteer(_Hurwitz):
    """Gauss-Newton steering of the two tail products mod 3 onto seeded
    targets over the 17,984 primes up to 2e5, then twisted evaluation of f
    and g."""

    name = "hurwitz-steer"
    P = 200_000
    Y = 1            # the pair's auxiliary cutoff
    R = 2.0
    MAX_LOG = 0.6    # |log z| of each target, well inside the reach budget
    OPTIONS = dict(tol=1e-8, max_iter=120, restarts=2)

    def warmup_input(self):
        return (complex(math.exp(0.3), 0.0), complex(math.exp(-0.3), 0.0)), 0

    def inputs(self):
        rng = np.random.default_rng([self.seed, 202])
        while True:
            r = rng.uniform(0.0, self.MAX_LOG, len(self.order))
            a = rng.uniform(-math.pi, math.pi, len(self.order))
            targets = tuple(complex(np.exp(rr * complex(math.cos(aa), math.sin(aa))))
                            for rr, aa in zip(r, a))
            yield targets, int(rng.integers(0, 1_000_000))

    def op(self, inp) -> Outcome:
        targets, steer_seed = inp
        target = SteeringTarget(targets, R=self.R, sigma=self.SIGMA,
                                eta=self.SIGMA - 1.0, y=self.Y, P=self.P)
        try:
            res = steering.solve_phases(self.order, target,
                                        options=SteerOptions(seed=steer_seed,
                                                             **self.OPTIONS))
        except ZerosepError as exc:
            return Outcome(type(exc).__name__, False)
        tf = locate.twisted_eval(self.f, self.order, self.SIGMA,
                                 res.assignment, self.P)
        tg = locate.twisted_eval(self.g, self.order, self.SIGMA,
                                 res.assignment, self.P)
        return Outcome("converged", True, {"targets": targets,
                                           "assignment": res.assignment,
                                           "tf": tf, "tg": tg})

    def check(self, out: Outcome) -> str | None:
        if not out.solved:
            return None
        p = out.payload
        return check_steer(self.order, p["assignment"], p["targets"], p["tg"],
                           self.SIGMA, self.Y, self.P, self.OPTIONS["tol"])


def check_steer(order, assignment, targets, tg, sigma, y, P, tol) -> str | None:
    """The steered tail products, recomputed from the shifts, sit on the
    targets within tol, and the twisted g carries a finite error bound."""
    achieved = steering.recompute_achieved(order, assignment, sigma, y, P)
    resid = float(np.max(np.abs(achieved / np.array(targets) - 1.0)))
    if not resid <= tol:
        return f"recomputed residual {resid:.3e} above tol {tol:.1e}"
    if not (math.isfinite(tg.abs_error_bound) and np.isfinite(tg.value)):
        return "twisted g has no finite error bound"
    return None


class HurwitzApproxLocate(_Hurwitz):
    """Simultaneous approximation of seeded phases on the heaviest primes of
    the pair, then anchored evaluation, refine_zero and, when a circle
    winds, the non-coincidence margin against g."""

    name = "hurwitz-approx-locate"
    PRIMES = (2, 5, 7, 11, 13)       # heaviest primes with a(p) != 0 (a(3) = 0)
    ACCURACY = 0.02
    P = 5_000                        # locate cutoff (669 primes)
    R0 = 0.005                       # the pipeline's locate radius at sigma 1.01

    def warmup_input(self):
        return {p: 1.0 for p in self.PRIMES}

    def inputs(self):
        rng = np.random.default_rng([self.seed, 303])
        while True:
            yield {p: float(rng.uniform(0.0, 2.0 * math.pi)) for p in self.PRIMES}

    def _anchored(self, comb, t):
        ev = locate.CombEvaluator(comb, self.order, P=self.P)
        return ev.anchored(t, bits=max(256, needed_bits(t)))

    def op(self, phases) -> Outcome:
        try:
            approx = lattice.simultaneous_approx(phases, self.ACCURACY)
        except ZerosepError as exc:
            return Outcome(type(exc).__name__, False)
        payload = {"approx": approx}
        try:
            cert = locate.refine_zero(self._anchored(self.f, approx.t),
                                      complex(self.SIGMA, 0.0), self.R0)
            payload["cert"] = cert
            if cert.winding >= 1:
                cert = locate.certify_noncoincidence(
                    cert, self._anchored(self.g, approx.t))
                payload["cert"] = cert
        except ZerosepError as exc:
            return Outcome(type(exc).__name__, True, payload)
        return Outcome(f"cert {cert.status}", True, payload)

    def check(self, out: Outcome) -> str | None:
        if not out.solved:
            return None
        return check_approx_locate(out.payload["approx"], out.payload.get("cert"),
                                   self.ACCURACY)


def check_approx_locate(approx: ApproximationResult, cert: ZeroCertificate | None,
                        accuracy: float) -> str | None:
    """The height, re-reduced with 64 extra bits, meets the accuracy on every
    prime, and any certificate is self-consistent."""
    err = approx.recompute_error(extra_bits=64)
    if not err <= accuracy:
        return f"recomputed phase error {err:.4f} above accuracy {accuracy}"
    if cert is not None and not cert.consistent():
        return f"{cert.status} certificate is not consistent"
    return None


WORKLOADS = {cls.name: cls for cls in (ToySeparate, HurwitzSteer,
                                       HurwitzApproxLocate)}
