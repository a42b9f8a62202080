import contextlib
import io
import json

import pytest

import inputs
from check import FAILED, OK, WRONG, check
from mindeg.cli import run_cli


def _run(item):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run_cli(item.argv())
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    items = inputs.make_items("mu-small", 11, tmp_path_factory.mktemp("s"))
    return {i.name: i for i in items}


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    items = inputs.make_items("oracle", 11, tmp_path_factory.mktemp("o"))
    return {i.name: i for i in items}


def test_correct_mu_passes(small):
    item = small["PGL27"]
    assert check(item, *_run(item)) == (OK, "")


def test_tampered_mu_is_wrong(small):
    item = small["PGL27"]
    rc, out, err = _run(item)
    cert = json.loads(out)
    cert["total"] = 7
    assert check(item, rc, json.dumps(cert), err)[0] == WRONG


def test_tampered_rule_is_wrong(small):
    item = small["PGL27"]
    rc, out, err = _run(item)
    cert = json.loads(out)
    cert["records"][0]["rule"] = "default"
    assert check(item, rc, json.dumps(cert), err)[0] == WRONG


def test_not_fitting_free_must_be_rejected(small):
    item = small["S4"]
    assert check(item, *_run(item)) == (OK, "")
    fake = json.dumps({"total": 4, "records": []})
    assert check(item, 0, fake, "")[0] == WRONG


def test_nonzero_exit_is_a_failure_not_a_wrong_answer(small):
    item = small["A5"]
    assert check(item, 1, "", "error: boom")[0] == FAILED
    assert check(item, None, "", "Traceback ...")[0] == FAILED


def test_oracle_witness_checked(oracle):
    item = oracle["PSL27"]
    rc, out, err = _run(item)
    assert check(item, rc, out, err) == (OK, "")
    payload = json.loads(out)

    wrong_mu = dict(payload, mu=8)
    assert check(item, rc, json.dumps(wrong_mu), err)[0] == WRONG

    # the whole group: indices still an integer, but not faithful
    whole = json.loads(out)
    whole["witness"]["subgroups"] = [list(range(168))]
    assert check(item, rc, json.dumps(whole), err)[0] == WRONG

    # not a subgroup at all
    broken = json.loads(out)
    broken["witness"]["subgroups"][0] = [0, 1]
    assert check(item, rc, json.dumps(broken), err)[0] == WRONG

    # faithful, but the indices do not sum to mu
    doubled = json.loads(out)
    doubled["witness"]["subgroups"] *= 2
    assert check(item, rc, json.dumps(doubled), err)[0] == WRONG


def test_quotient_checked(oracle):
    item = oracle["S4modV4"]
    rc, out, err = _run(item)
    assert check(item, rc, out, err) == (OK, "")
    assert check(item, rc, json.dumps({"mu": 4}), err)[0] == WRONG


def test_wrong_answer_fails_the_benchmark(monkeypatch, capsys):
    import run
    real = inputs.read_manifest

    def tampered(path):
        items, setup = real(path)
        for it in items:
            if it.name == "PGL27":
                it.rules = ["default"]  # PGL(2,7) is dispatch row 2
        return items, setup

    monkeypatch.setattr(inputs, "read_manifest", tampered)
    assert run.main(["--workload", "mu-small", "--seed", "3",
                     "--seconds", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any(line.startswith("WRONG: PGL27") for line in lines)
