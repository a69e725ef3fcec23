import glob
import json
import math
import os
import re
from dataclasses import fields

import pytest

from zerosep import cli
from zerosep.errors import ParseError
from zerosep.pipeline import (BUILTIN_DEFAULTS, STAGE_EXIT_CODES, PipelineConfig,
                              RunRecord)
from zerosep.primes import primes_up_to


TOY_A = "toyA = finite_euler primes=2:1.0:0.0,3:1.0:0.0"
TOY_FILE = ("# zerosep combination file v1\n[specs]\n" + TOY_A + "\n"
            "toyB = finite_euler primes=5:1.0:0.0,7:1.0:0.0\n"
            "[poly f]\nvars = toyA toyB\n"
            "mono exps=1,1 coeff=1:1.0:0.0\n"
            "mono exps=0,0 coeff=1:-1.2349469153094004:0.0\n"
            "[poly g]\nvars = toyA toyB\n"
            "mono exps=1,0 coeff=1:1.0:0.0\n"
            "mono exps=0,1 coeff=1:-1.0:0.0\n")


def _separate(seed, out_dir):
    return cli.main(["separate", "--builtin", "toy-finite-pair", "--replicate", "3",
                     "--seed", str(seed), "--out-dir", str(out_dir)])


def _failed_stage(out_dir):
    """The last stage of the run record, after checking it failed and that
    no certificate was written."""
    with open(os.path.join(out_dir, "run_record.json")) as fh:
        record = json.load(fh)
    assert glob.glob(os.path.join(out_dir, "*.cert")) == []
    last = record["stages"][-1]
    assert last["status"] == "failed"
    return last


def test_separate_certifies_toy_pair(tmp_path):
    assert _separate(5, tmp_path) == 0
    with open(tmp_path / "zero-00.cert") as fh:
        assert "status certified\n" in fh.read()


def test_exit_codes_name_exactly_the_stages_run(tmp_path):
    assert _separate(5, tmp_path) == 0
    with open(tmp_path / "run_record.json") as fh:
        names = [st["name"] for st in json.load(fh)["stages"]]
    assert names == list(STAGE_EXIT_CODES)
    assert "twisted" not in names and 25 not in STAGE_EXIT_CODES.values()


def test_failed_separate_writes_its_run_record(tmp_path):
    assert _separate(6, tmp_path) == 24
    last = _failed_stage(tmp_path)
    assert last["name"] == "stability-steering"
    assert last["data"]["error"]


def test_uncertified_zero_is_refused_at_locate(tmp_path):
    # this seed finds a winding circle whose boundary minimum (-6.3e-5) does
    # not clear the tail budget (0): a numeric-only zero is not a result
    assert _separate(769888, tmp_path) == 27
    last = _failed_stage(tmp_path)
    assert last["name"] == "locate"
    assert "boundary minimum -6.338e-05 does not exceed tail budget" \
        in last["data"]["error"]


def _reach(modulus, count=16, sigma=1.01):
    """Reach of one L-function mod ``modulus`` over the first ``count`` primes
    not dividing it: the sum of -log(1 - p^-sigma)."""
    ps = [p for p in primes_up_to(1000).tolist() if modulus % p][:count]
    return sum(-math.log1p(-p ** -sigma) for p in ps)


@pytest.mark.parametrize("builtin, reason", [
    ("charpair-mod5", "exceeds stability radius"),
    ("zeta-vs-sparse", "reachability budget"),
    # the steered set is the 16 aligned primes, so the refusal quotes their
    # reach (1.5754 mod 3), not that of every prime up to P
    ("hurwitz-1-3-vs-2-3", f"reachability budget {_reach(3):.4f}"),
    ("hurwitz-2-3-vs-1-3", "steering stalled at max residual"),
    ("hurwitz-3-4-vs-1-4", "steering stalled at max residual"),
    ("hurwitz-1-5-vs-2-5", f"reachability budget {_reach(5):.4f}"),
])
def test_builtin_refuses_at_stability_steering(tmp_path, builtin, reason):
    assert cli.main(["separate", "--builtin", builtin,
                     "--out-dir", str(tmp_path)]) == 24
    last = _failed_stage(tmp_path)
    assert last["name"] == "stability-steering"
    assert reason in last["data"]["error"]


def test_steering_refusal_quotes_the_lowest_demand_candidates(tmp_path):
    assert cli.main(["separate", "--builtin", "zeta-vs-sparse",
                     "--out-dir", str(tmp_path)]) == 24
    error = _failed_stage(tmp_path)["data"]["error"]
    assert re.findall(r"candidate (\d+):", error) == ["0", "1", "2"]
    assert error.startswith("all 12 witness candidates failed")
    assert "of the 24 active primes in (1, 89]" in error


def test_certificate_footer_names_the_locate_cutoff(tmp_path):
    # --P moves the steering cutoff only; locate keeps the builtin's locate_P
    assert cli.main(["separate", "--builtin", "toy-finite-pair", "--seed", "5",
                     "--replicate", "3", "--P", "20", "--out-dir", str(tmp_path)]) == 0
    rows = dict(line.split(" ", 1)
                for line in (tmp_path / "zero-00.cert").read_text().splitlines()
                if line.startswith(("meta.P ", "cutoff_P ")))
    assert rows["cutoff_P"] == rows["meta.P"] == "10"


def test_replicate_refuses_record_with_unknown_config_key(tmp_path, capsys):
    record = json.loads(RunRecord(PipelineConfig(), [], []).to_json())
    record["config"]["K"] = None
    path = tmp_path / "run_record.json"
    path.write_text(json.dumps(record))
    assert cli.main(["replicate", "--record", str(path)]) == 1
    err = capsys.readouterr().err
    assert "unknown config keys: K" in err


@pytest.mark.parametrize("key", [
    "approx_weight_floor", "R", "y", "t0_min", "t0_max", "t0_grid", "t0_margin",
    "zero_floor", "steer_iters", "steer_restarts", "precision_bits", "refine_radius",
    "replicate_accuracy"])
def test_config_with_a_retired_key_is_a_parse_error(key):
    with pytest.raises(ParseError, match=f"unknown config keys: {key}$"):
        PipelineConfig.from_dict({key: 1})


def test_every_config_field_has_a_setter():
    # a field that no builtin, flag or config sets is a constant in disguise
    setters = {"problem"}.union(*BUILTIN_DEFAULTS.values())
    setters |= set(vars(cli.build_parser().parse_args(["separate"])))
    assert {f.name for f in fields(PipelineConfig)} <= setters


def test_witness_stage_names_why_every_draw_failed(tmp_path):
    # no zero of the toy f keeps |g| above 1e9, so every draw is exhausted
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"problem": "builtin:toy-finite-pair", "P": 10,
                                "locate_P": 10, "zero_margin": 1e9,
                                "zero_candidates": 3}))
    assert cli.main(["separate", "--config", str(path),
                     "--out-dir", str(tmp_path)]) == 23
    last = _failed_stage(tmp_path)
    assert last["name"] == "witness"
    error = last["data"]["error"]
    assert error.startswith("all 3 witness draws failed; draw 0: no separating "
                            "zero found in 200 attempts (attempts 200")
    assert re.search(r"rejected_margin [1-9]", error)


def test_config_with_no_witness_draws_is_refused(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"problem": "builtin:toy-finite-pair",
                                "zero_candidates": 0}))
    assert cli.main(["separate", "--config", str(path),
                     "--out-dir", str(tmp_path)]) == 1
    assert "cutoffs and counts must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("approx_accuracy", 4.0, "approx_accuracy must lie in (0, pi)"),
    ("approx_accuracy", 0.0, "approx_accuracy must lie in (0, pi)"),
    ("steer_tol", -1.0, "steer_tol must be positive"),
    ("steer_tol", 0.0, "steer_tol must be positive"),
    ("replicate_count", -2, "replicate_count must not be negative"),
    ("locate_P", -1, "locate_P must not be negative"),
    ("zero_margin", -1e-3, "zero_margin must not be negative"),
])
def test_config_out_of_domain_is_refused_before_any_stage(tmp_path, capsys, field,
                                                          value, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"problem": "builtin:toy-finite-pair", field: value}))
    assert cli.main(["separate", "--config", str(path),
                     "--out-dir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")
    assert not (tmp_path / "run_record.json").exists()


def test_separate_refuses_config_with_unknown_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"problem": "builtin:toy-finite-pair", "K": 3}))
    assert cli.main(["separate", "--config", str(path),
                     "--out-dir", str(tmp_path)]) == 1
    assert "unknown config keys: K" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
def test_config_that_is_not_a_json_object_is_a_parse_error(text):
    with pytest.raises(ParseError):
        PipelineConfig.from_json(text)
    with pytest.raises(ParseError):
        RunRecord.from_json(text)


@pytest.mark.parametrize("record, key", [
    ({"config": {}}, "certificates"),
    ({"config": {}, "certificates": []}, "stages"),
])
def test_replicate_refuses_record_without_a_required_key(tmp_path, capsys,
                                                         record, key):
    path = tmp_path / "run_record.json"
    path.write_text(json.dumps(record))
    assert cli.main(["replicate", "--record", str(path)]) == 1
    assert f"run record has no '{key}' key" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["separate", "--config"],
                                  ["replicate", "--record"]])
def test_missing_input_file_exits_1_naming_it(tmp_path, capsys, argv):
    path = str(tmp_path / "absent.json")
    assert cli.main(argv + [path]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}")


def _count_file(spec_a):
    """``count`` on the toy file with toyA declared as ``spec_a``; the test
    writes the file text that stands in the argument list."""
    return ["count", "--file", TOY_FILE.replace(TOY_A, spec_a),
            "--sigma-range", "1.1:1.2", "--t-range", "0:1"]


@pytest.mark.parametrize("argv, message", [
    (_count_file("toyA = dirichlet_L modulus=5 index=9"),
     "character index 9 out of range mod 5"),
    (_count_file("toyA = dirichlet_L modulus=5 index=-1"),
     "character index -1 out of range mod 5"),
    (_count_file("toyA = dirichlet_L modulus=five index=1"),
     "line 3: 'toyA = dirichlet_L modulus=five index=1': invalid literal for int()"),
    (["approx", "--phases", "2:1.0,3"], "bad phase p:theta: '3'"),
    (["count", "--builtin", "toy-finite-pair", "--sigma-range", "1.1",
      "--t-range", "0:1"], "bad range lo:hi: '1.1'"),
    (["hurwitz", "--a", "1", "--q", "3", "--s", "2,x"], "bad complex value re[,im]: '2,x'"),
    (["approx", "--phases", "1:1.0,2:2.0"], "phase key 1 is not a prime"),
    (["approx", "--phases=-3:1.0,2:2.0"], "phase key -3 is not a prime"),
    (["approx", "--phases", "0:1.0,2:2.0"], "phase key 0 is not a prime"),
    (["approx", "--phases", "1:1.0"], "phase key 1 is not a prime"),
    (["approx", "--phases", "4:1.0,6:2.0,9:0.5"], "phase key 4 is not a prime"),
    (["approx", "--phases", "2:1.0,2:3.0"], "prime 2 is given more than one phase"),
])
def test_malformed_cli_value_exits_1_with_an_error_line(tmp_path, capsys, argv,
                                                        message):
    if argv[:2] == ["count", "--file"]:
        (tmp_path / "x.comb").write_text(argv[2])
        argv = argv[:2] + [str(tmp_path / "x.comb")] + argv[3:]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_spec_past_its_local_factor_radius_is_refused_at_load(tmp_path):
    # 3 * 2^-1.05 ~ 1.45: toyA's local log series at p = 2 diverges at sigma
    path = tmp_path / "big.comb"
    path.write_text(TOY_FILE.replace("primes=2:1.0:0.0", "primes=2:3.0:0.0"))
    assert cli.main(["separate", "--file", str(path), "--sigma", "1.05", "--P", "10",
                     "--out-dir", str(tmp_path)]) == 20
    last = _failed_stage(tmp_path)
    assert last["name"] == "load"
    assert last["data"]["error"] == (
        "spec toyA: prime coefficient bound K_F = 3 reaches the local-factor "
        "radius at sigma = 1.05 (K_F * 2^-sigma = 1.449 >= 1)")


@pytest.mark.parametrize("old, new, message", [
    (TOY_A, "toyA = dirichlet_L modulus=5",
     "line 3: 'toyA = dirichlet_L modulus=5' lacks index="),
    ("coeff=1:-1.0:0.0", "coeff=1:-1", "line 12: 'mono exps=0,1 coeff=1:-1': "
     "not enough values to unpack (expected 3, got 2)"),
    ("exps=1,1", "exps=1,x", "line 7: 'mono exps=1,x coeff=1:1.0:0.0': "
     "invalid literal for int() with base 10: 'x'"),
    ("mono exps=1,0", "mono exps=1,0 weight", "line 11: 'mono exps=1,0 weight "
     "coeff=1:1.0:0.0': 'weight' is not key=value"),
    (None, None, "cannot read {path}: No such file or directory"),
], ids=["no index", "short coefficient", "non-integer exponent",
        "token without =", "absent path"])
def test_malformed_or_missing_combination_file_is_refused_at_load(tmp_path, old,
                                                                  new, message):
    path = tmp_path / "problem.comb"
    if old is not None:
        path.write_text(TOY_FILE.replace(old, new))
    assert cli.main(["separate", "--file", str(path),
                     "--out-dir", str(tmp_path)]) == 20
    last = _failed_stage(tmp_path)
    assert last["name"] == "load"
    assert last["data"]["error"] == message.format(path=path)


def test_hurwitz_prints_the_combination_value(capsys):
    assert cli.main(["hurwitz", "--a", "1", "--q", "3", "--s", "2,0",
                     "--cutoff", "20000", "--prime-cutoff", "20000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    comb = [ln for ln in lines if ln.startswith("combination:")]
    assert comb == ["combination:     2.24345929995+2.45227526936e-17j "
                    "(bound 1.133e-05)"]
