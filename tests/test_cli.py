import glob
import json
import math
import os
import re
from dataclasses import fields, replace

import pytest

from zerosep import cli, pipeline
from zerosep.combalg import AuxiliaryCombination
from zerosep.errors import ParseError
from zerosep.locate import ZeroCertificate
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


def test_toy_seed_5_certificate(tmp_path):
    assert cli.main(["separate", "--builtin", "toy-finite-pair", "--seed", "5",
                     "--out-dir", str(tmp_path)]) == 0
    cert = ZeroCertificate.from_text((tmp_path / "zero-00.cert").read_text())
    assert (cert.status, cert.winding, cert.radius) == ("certified", 1, 0.02)
    assert cert.anchor == "59431180268052237827064970601*2^-63"
    assert cert.center.real == pytest.approx(1.0445892597875908, rel=1e-9)
    assert cert.center.imag == pytest.approx(0.004824365408548406, rel=1e-9)
    assert cert.boundary_min == pytest.approx(0.013164005752152586, rel=1e-9)
    assert cert.g_min_on_disk == pytest.approx(0.5092233509449235, rel=1e-9)
    assert abs(cert.value_at_center) < 1e-12


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


def _numeric_only(cert):
    """The certificate with its tail budget raised to its boundary minimum,
    so that it winds but does not certify."""
    return replace(cert, status="numeric-only", tail_budget=cert.boundary_min)


def test_uncertified_zero_is_refused_at_locate(tmp_path, monkeypatch):
    # a winding circle whose boundary minimum does not clear the tail budget
    # is a numeric-only zero, which is not a result
    real = pipeline.refine_zero
    monkeypatch.setattr(pipeline, "refine_zero",
                        lambda H, s0, r0: _numeric_only(real(H, s0, r0)))
    assert _separate(5, tmp_path) == 27
    last = _failed_stage(tmp_path)
    assert last["name"] == "locate"
    assert re.fullmatch(r"no certified zero: boundary minimum (\S+) does not "
                        r"exceed tail budget \1", last["data"]["error"])


def test_zero_just_right_of_re_s_1_is_certified(tmp_path):
    # Newton walks onto the zero at Re s = 1.00205, and the circle of radius
    # r0 / 10 that fits there certifies it
    assert _separate(769888, tmp_path) == 0
    with open(tmp_path / "zero-00.cert") as fh:
        rows = dict(line.split(" ", 1) for line in fh.read().splitlines())
    assert rows["status"] == "certified" and rows["radius"] == "0.002"
    re_c, im_c = (float(x) for x in rows["center"].split())
    assert abs(re_c - 1.00205) < 1e-5 and abs(im_c - 0.02926) < 1e-5
    assert float(rows["boundary_min"]) > 1e-4


# exit code of ``separate --builtin toy-finite-pair --replicate 3`` per seed:
# 0 certified, 24 refused at stability-steering, 27 refused at locate
TOY_EXITS = {seed: 24 for seed in range(60)}
TOY_EXITS.update({seed: 0 for seed in (0, 1, 2, 3, 5, 7, 12, 13, 17, 19, 20, 28,
                                       32, 34, 36, 42, 43, 46, 49, 59, 769888)})
TOY_EXITS[4] = 27


def test_toy_outcome_table(tmp_path):
    exits = {seed: _separate(seed, tmp_path / str(seed)) for seed in TOY_EXITS}
    assert exits == TOY_EXITS
    # a certified run writes its record and one file per certificate, each
    # exactly the certificate's text as the record holds it
    for seed in (seed for seed, rc in exits.items() if rc == 0):
        out_dir = tmp_path / str(seed)
        assert sorted(os.listdir(out_dir)) == ["run_record.json", "zero-00.cert"]
        text = (out_dir / "zero-00.cert").read_text()
        assert ZeroCertificate.from_text(text).to_text() == text
        assert json.loads((out_dir / "run_record.json").read_text())["certificates"] \
            == [text]


@pytest.mark.parametrize("seed, rc", [(6, 24), (5, 0)])
def test_auxiliary_coefficients_are_built_once_per_height(tmp_path, monkeypatch,
                                                          seed, rc):
    # one pass at t0's grid height, one for the boundary pair, and the
    # shifted pair plus the drift's two, however many witnesses steering
    # tries (all 40 for seed 6)
    calls = []
    coefficient_values = AuxiliaryCombination.coefficient_values

    def counting(self, s):
        calls.append(s)
        return coefficient_values(self, s)

    monkeypatch.setattr(AuxiliaryCombination, "coefficient_values", counting)
    assert _separate(seed, tmp_path) == rc
    assert len(calls) == 5


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


def test_toy_steering_refusal_names_the_reachability_budget_alone(tmp_path):
    # the toy specs share no prime, so no joint first-order budget is quoted
    assert _separate(6, tmp_path) == 24
    error = _failed_stage(tmp_path)["data"]["error"]
    assert "target 1 demands log norm 0.5929 beyond its reachability budget " \
        "0.3428; steer more primes" in error
    assert "joint budget" not in error


def test_replicate_counts_only_certified_zeros(tmp_path, monkeypatch):
    # a replicated circle that winds but whose margin misses the tail budget
    # is a numeric-only zero: a miss that records its gap, not a success
    real = pipeline.refine_zero
    certs = []

    def numeric_only_after_locate(H, s0, r0):
        cert = real(H, s0, r0)
        if certs:
            cert = _numeric_only(cert)
        certs.append(cert)
        return cert

    monkeypatch.setattr(pipeline, "refine_zero", numeric_only_after_locate)
    assert _separate(5, tmp_path) == 0
    with open(tmp_path / "run_record.json") as fh:
        replicate = json.load(fh)["stages"][-1]
    assert replicate["name"] == "replicate" and replicate["status"] == "ok"
    assert len(certs) == 4 and all(c.winding == 1 for c in certs)
    assert replicate["data"]["successes"] == 0
    for outcome in replicate["data"]["outcomes"]:
        assert outcome["status"] == "failed"
        assert re.fullmatch(r"no certified zero: boundary minimum (\S+) does not "
                            r"exceed tail budget \1", outcome["error"])


def test_certificate_meta_names_the_locate_cutoff(tmp_path):
    # --P moves the steering cutoff only; locate keeps the builtin's locate_P
    assert cli.main(["separate", "--builtin", "toy-finite-pair", "--seed", "5",
                     "--replicate", "3", "--P", "20", "--out-dir", str(tmp_path)]) == 0
    cert = ZeroCertificate.from_text((tmp_path / "zero-00.cert").read_text())
    assert cert.meta == {"P": "10", "partner": "g", "seed": "5", "sigma": "1.05",
                         "problem": "builtin:toy-finite-pair"}


def test_replicate_reads_the_record_instead_of_rerunning_it(tmp_path, capsys,
                                                            monkeypatch):
    assert _separate(5, tmp_path) == 0
    with open(tmp_path / "run_record.json") as fh:
        recorded = json.load(fh)["stages"][-1]
    assert recorded["name"] == "replicate"

    def rerun(config):
        raise AssertionError("replicate re-ran the pipeline")

    monkeypatch.setattr(cli, "run_separation_pipeline", rerun)
    capsys.readouterr()
    assert cli.main(["replicate", "--record", str(tmp_path / "run_record.json")]) == 0
    assert json.loads(capsys.readouterr().out) == recorded["data"]


def test_replicate_refuses_a_record_without_an_ok_approx_stage(tmp_path, capsys):
    assert _separate(6, tmp_path) == 24  # refused at stability-steering
    capsys.readouterr()
    assert cli.main(["replicate", "--record", str(tmp_path / "run_record.json")]) == 1
    assert capsys.readouterr().err == \
        "error: run record has no ok 'approx' stage to replicate from\n"


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
    ("seed", -1, "seed must not be negative"),
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


_CERT = ZeroCertificate(center=1.05 + 0.25j, radius=0.01, winding=1,
                        boundary_min=1e-3, tail_budget=1e-7, g_min_on_disk=0.2,
                        status="certified", value_at_center=1e-15 + 0j).to_text()


def _approx_stage(data):
    return {"name": "approx", "status": "ok", "seconds": 0.0, "data": data}


@pytest.mark.parametrize("certificates, stages, message", [
    (["zerosep-zero-certificate v1\nstatus certified\n"], [],
     "certificate has no 'center' row"),
    ([_CERT.replace("winding 1", "winding")], [],
     "certificate line 'winding' has no value"),
    ([_CERT.replace("radius 0.01", "radius 0.0l")], [],
     "certificate row 'radius' does not parse: '0.0l'"),
    ([], [{"name": "approx", "seconds": 0.0, "data": {}}],
     "run record stage 0 has no 'status' key"),
    ([], [_approx_stage({"primes": [11]})], "run record's approx stage has no 't' key"),
    ([], [_approx_stage({"t": "1*2^0", "primes": []})],
     "run record's approx stage has no aligned primes"),
    ([_CERT + "cutoff_P 10\n"], [], "certificate has an unknown row 'cutoff_P'"),
    ([], 5, "run record key 'stages' must be a list, not 5"),
    ([5], [], "run record certificate 0 must be a string, not 5"),
    ([], [_approx_stage(5)], "run record stage 0 key 'data' has the wrong type: 5"),
    ([], [_approx_stage({"t": "1*2^0", "primes": ["x"]})],
     "run record's aligned primes must be a list of integers, not ['x']"),
    ([_CERT.replace("status certified", "status numeric-only\nstatus certified")], [],
     "certificate has a repeated row 'status'"),
    ([_CERT.replace("status certified", "status proven")], [],
     "certificate row 'status' does not parse: 'proven'"),
], ids=["certificate without center", "line without a value", "unparsable number",
        "stage without status", "approx without t", "approx with no primes",
        "certificate with an unknown row", "stages not a list",
        "certificate not a string", "approx data not an object",
        "aligned prime not an integer", "certificate with a repeated row",
        "certificate with an unknown status"])
def test_replicate_refuses_a_malformed_record_naming_what_it_lacks(
        tmp_path, capsys, certificates, stages, message):
    record = json.loads(RunRecord(PipelineConfig(), [], []).to_json())
    record.update(certificates=certificates, stages=stages)
    path = tmp_path / "run_record.json"
    path.write_text(json.dumps(record))
    assert cli.main(["replicate", "--record", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["--config", "config.json"],
    ["--builtin", "toy-finite-pair", "--out-dir", ""],
], ids=["config", "flag"])
def test_empty_out_dir_is_refused_before_any_stage(tmp_path, capsys, monkeypatch,
                                                   argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({"out_dir": ""}))
    assert cli.main(["separate"] + argv) == 1
    assert capsys.readouterr() == ("", "error: out_dir must not be empty\n")
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("config, message", [
    ({"sigma": "abc"}, "config key sigma must be of type float, not 'abc'"),
    ({"seed": None}, "config key seed must be of type int, not None"),
    ({"P": 1.5e3}, "config key P must be of type int, not 1500.0"),
], ids=["string sigma", "null seed", "float P"])
def test_config_value_of_the_wrong_type_is_refused_naming_its_key(
        tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["separate", "--config", str(path),
                     "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "run_record.json").exists()


@pytest.mark.parametrize("argv", [["separate", "--config"],
                                  ["replicate", "--record"]])
def test_missing_input_file_exits_1_naming_it(tmp_path, capsys, argv):
    path = str(tmp_path / "absent.json")
    assert cli.main(argv + [path]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}")


def _steer_file(spec_a):
    """``steer`` on the toy file with toyA declared as ``spec_a``; the test
    writes the file text that stands in the argument list.  ``steer`` loads
    the file before it reads the targets."""
    return ["steer", "--file", TOY_FILE.replace(TOY_A, spec_a),
            "--targets", "1,0;1,0"]


@pytest.mark.parametrize("argv, message", [
    (_steer_file("toyA = dirichlet_L modulus=5 index=9"),
     "character index 9 out of range mod 5"),
    (_steer_file("toyA = dirichlet_L modulus=5 index=-1"),
     "character index -1 out of range mod 5"),
    (_steer_file("toyA = dirichlet_L modulus=five index=1"),
     "line 3: 'toyA = dirichlet_L modulus=five index=1': invalid literal for int()"),
    (["approx", "--phases", "2:1.0,3"], "bad phase p:theta: '3'"),
    (["steer", "--builtin", "toy-finite-pair", "--targets", "1,0;1,x"],
     "bad complex value re[,im]: '1,x'"),
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
    if argv[:2] == ["steer", "--file"]:
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


def test_malformed_hurwitz_builtin_name_is_refused_at_load(tmp_path):
    assert cli.main(["separate", "--builtin", "hurwitz-a-3-vs-2-3",
                     "--out-dir", str(tmp_path)]) == 20
    last = _failed_stage(tmp_path)
    assert last["name"] == "load"
    assert last["data"]["error"].startswith(
        "unknown builtin problem 'hurwitz-a-3-vs-2-3'; known: ")


def test_common_factor_across_variable_lists_is_refused_at_load(tmp_path):
    # f = x_A - x_B on (A, B) divides g = x_A x_C - x_B x_C on (A, B, C); the
    # check sees it because both polynomials stand on the shared order
    path = tmp_path / "shared.comb"
    path.write_text("# zerosep combination file v1\n[specs]\n"
                    "A = finite_euler primes=2:1.0:0.0\n"
                    "B = finite_euler primes=3:1.0:0.0\n"
                    "C = finite_euler primes=5:1.0:0.0\n"
                    "[poly f]\nvars = A B\n"
                    "mono exps=1,0 coeff=1:1.0:0.0\nmono exps=0,1 coeff=1:-1.0:0.0\n"
                    "[poly g]\nvars = A B C\n"
                    "mono exps=1,0,1 coeff=1:1.0:0.0\n"
                    "mono exps=0,1,1 coeff=1:-1.0:0.0\n")
    assert cli.main(["separate", "--file", str(path),
                     "--out-dir", str(tmp_path)]) == 20
    last = _failed_stage(tmp_path)
    assert last["name"] == "load"
    assert last["data"]["error"].startswith(
        "combinations failed the coprimality sanity check")


def test_hurwitz_prints_the_combination_value(capsys):
    assert cli.main(["hurwitz", "--a", "1", "--q", "3", "--s", "2,0",
                     "--cutoff", "20000", "--prime-cutoff", "20000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    comb = [ln for ln in lines if ln.startswith("combination:")]
    assert comb == ["combination:     2.24345929995+2.45227526936e-17j "
                    "(bound 1.133e-05)"]
