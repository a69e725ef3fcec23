"""Tests for the benchmark itself: python -m pytest zsbench -q"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import zerosep.locate  # noqa: E402
import zerosep.steering  # noqa: E402
from zerosep.euler import local_logs  # noqa: E402
from zerosep.lattice import simultaneous_approx  # noqa: E402
from zerosep.locate import ZeroCertificate  # noqa: E402

from zsbench import layers, run, runner  # noqa: E402
from zsbench.spans import Instrumentation, Tracer, self_times  # noqa: E402
from zsbench.workloads import (WORKLOADS, Outcome, ToySeparate,  # noqa: E402
                               Workload, check_approx_locate, check_separate)


def _span(i, name, start, end, parent=None, op=0, **attrs):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent, "op": op, **attrs}


def test_self_time_of_nested_spans():
    spans = [
        _span(0, "op", 0.0, 10.0),
        _span(1, "lattice.approx", 1.0, 5.0, parent=0),
        _span(2, "lattice.lll", 2.0, 3.0, parent=1),
        _span(3, "lattice.lll", 2.5, 4.0, parent=1),   # overlaps its sibling
        _span(4, "locate.refine", 6.0, 9.0, parent=0),
        _span(5, "locate.eval", 8.5, 9.5, parent=4),   # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.5, 1.0])


def test_layer_metrics_add_up_to_the_op():
    spans = [
        _span(0, "op", 0.0, 4.0, op=0),
        _span(1, "lattice.approx", 0.5, 3.0, parent=0, op=0),
        _span(2, "lattice.lll", 1.0, 2.0, parent=1, op=0, dim=7),
        _span(3, "lattice.phase_errors", 2.0, 2.5, parent=1, op=0),
        _span(4, "op", 5.0, 7.0, op=1),
        _span(5, "lattice.lll", 5.0, 6.0, parent=4, op=1, dim=5),
        _span(6, "primes.sieve", 8.0, 8.25, op=None, count=100),
    ]
    m = layers.layer_metrics(spans)
    assert m["lattice.lll_s"] == pytest.approx(1.0)
    assert m["lattice.approx_s"] == pytest.approx(0.5)
    assert m["op.self_s"] == pytest.approx(1.25)
    assert m["lattice.lll_calls"] == pytest.approx(1.0)
    assert m["lattice.lll_dim_max"] == 7
    assert m["lattice.candidates_per_solve"] == 1
    assert m["primes.sieve_s"] == pytest.approx(0.25)
    assert m["primes.count"] == 100
    per_op = sum(m[k] for k in layers.SELF_TIME) + m["op.self_s"]
    assert per_op == pytest.approx((4.0 + 2.0) / 2)


def test_instrumentation_reaches_every_importing_module_and_restores():
    tracer = Tracer()
    target = [("zerosep.euler", "local_logs", "euler.local_logs", None)]
    with Instrumentation(tracer, target):
        assert zerosep.locate.local_logs is not local_logs
        assert zerosep.steering.local_logs is zerosep.locate.local_logs
        assert zerosep.euler.local_logs.__wrapped__ is local_logs
    assert zerosep.locate.local_logs is local_logs
    assert zerosep.steering.local_logs is local_logs
    assert zerosep.euler.local_logs is local_logs


def test_every_metric_name_is_valid_and_matches_benchmark_json():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [m for m, _, _ in runner.END_TO_END + runner.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert pattern.fullmatch(name), name
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == runner.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == runner.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)


def _certificate(**changes) -> ZeroCertificate:
    cert = ZeroCertificate(center=complex(1.05, 0.1), radius=0.01, winding=1,
                           boundary_min=0.2, tail_budget=0.01,
                           g_min_on_disk=0.3, status="certified",
                           value_at_center=0j)
    return replace(cert, **changes)


def _separate_dir(tmp_path, cert: ZeroCertificate):
    (tmp_path / "zero-00.cert").write_text(cert.to_text())
    (tmp_path / "run_record.json").write_text(json.dumps({
        "version": "0", "config": {}, "stages": [],
        "certificates": [cert.to_text()]}))
    return str(tmp_path)


def test_check_separate(tmp_path):
    assert check_separate(0, _separate_dir(tmp_path, _certificate())) is None
    # a certified status whose boundary margin does not clear the tail
    doctored = _certificate(boundary_min=0.001)
    assert "not consistent" in check_separate(0, _separate_dir(tmp_path, doctored))
    # a numeric-only status whose margins would certify it
    assert "against its own margins" in check_separate(
        0, _separate_dir(tmp_path, _certificate(status="numeric-only")))
    assert check_separate(0, _separate_dir(tmp_path, _numeric_only())) is None
    assert "left 1 certificate" in check_separate(24, str(tmp_path))
    assert check_separate(24, str(tmp_path / "missing")) is None


def _numeric_only() -> ZeroCertificate:
    # as toy-finite-pair seed 769888 leaves it: winding 1, margin below the tail
    return _certificate(boundary_min=-6.3e-5, tail_budget=0.0,
                        status="numeric-only")


def test_numeric_only_exit_0_fails_the_op_but_not_the_run(tmp_path):
    (tmp_path / "sep").mkdir()
    out_dir = _separate_dir(tmp_path / "sep", _numeric_only())

    class _Fixed(ToySeparate):
        def op(self, inp):
            return Outcome("exit 0", True, {"rc": 0, "out_dir": out_dir})

    tally = runner.Tally()
    runner.timed_op(_Fixed(0, str(tmp_path)), None, tally)
    assert tally.wrong == []
    assert tally.shortfalls == ["exit 0 numeric-only: exit 0 without a certified zero"]
    assert tally.failed == 1
    assert tally.solved == 0
    assert tally.verdicts == {"exit 0 numeric-only": 1}


def test_check_approx_locate():
    phases = {2: 1.0, 5: 2.0}
    approx = simultaneous_approx(phases, 0.02)
    assert check_approx_locate(approx, None, 0.02) is None
    doctored = replace(approx, t=approx.t + 0.37)
    assert "above accuracy" in check_approx_locate(doctored, None, 0.02)
    assert "not consistent" in check_approx_locate(
        approx, _certificate(winding=0), 0.02)


class _Doctored(Workload):
    """Ops whose output is tampered with before the real check sees it."""

    def op(self, inp):
        if inp == "crash":
            raise OverflowError("math range error")
        approx = simultaneous_approx({2: 1.0, 5: 2.0}, 0.02)
        if inp == "doctored-approx":
            approx = replace(approx, t=approx.t + 0.37)
        cert = _certificate(boundary_min=0.001) if inp == "doctored-cert" else None
        return Outcome("doctored", True, {"approx": approx, "cert": cert})

    def check(self, out):
        return check_approx_locate(out.payload["approx"], out.payload["cert"], 0.02)


def test_runner_counts_doctored_outputs_as_failed(tmp_path):
    tally = runner.Tally()
    wl = _Doctored(0, str(tmp_path))
    for inp in ("clean", "doctored-approx", "doctored-cert", "crash"):
        runner.timed_op(wl, inp, tally)
    assert tally.attempted == 4
    assert len(tally.wrong) == 2
    assert len(tally.crashes) == 1
    assert tally.failed == 3
    assert tally.solved == 1
    assert tally.verdicts == {"doctored": 3, "OverflowError": 1}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_each_workload(name, tmp_path):
    wl = WORKLOADS[name](seed=7, scratch=str(tmp_path))
    wl.setup()
    tally = runner.run_untraced(wl, seconds=1e-3)
    assert tally.attempted == 1
    assert tally.failed == 0


def test_smoke_traced_run_reports_every_layer_metric(tmp_path):
    wl = WORKLOADS["toy-separate"](seed=3, scratch=str(tmp_path))
    wl.setup()
    tracer = Tracer()
    plain, traced = runner.run_traced(wl, 1e-3, tracer)
    assert plain.attempted == traced.attempted == 1
    metrics = layers.layer_metrics(tracer.spans)
    assert set(metrics) == {m for m, _, _ in layers.METRICS}
    assert metrics["polyzero.witness_calls"] > 0
    assert zerosep.locate.local_logs is local_logs


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "zsbench"), tmp_path / "zsbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "zsbench/run.py", "--workload",
                           "toy-separate", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
