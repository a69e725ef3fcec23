import glob
import json
import os

from zerosep import cli


def _separate(seed, out_dir):
    return cli.main(["separate", "--builtin", "toy-finite-pair", "--replicate", "3",
                     "--seed", str(seed), "--out-dir", str(out_dir)])


def test_separate_certifies_toy_pair(tmp_path):
    assert _separate(5, tmp_path) == 0
    with open(tmp_path / "zero-00.cert") as fh:
        assert "status certified\n" in fh.read()


def test_failed_separate_writes_its_run_record(tmp_path):
    assert _separate(6, tmp_path) == 24
    with open(tmp_path / "run_record.json") as fh:
        record = json.load(fh)
    last = record["stages"][-1]
    assert last["name"] == "stability-steering" and last["status"] == "failed"
    assert last["data"]["error"]
    assert glob.glob(os.path.join(tmp_path, "*.cert")) == []
