import io
import json
import random
from contextlib import redirect_stdout

from jordan_strata.cli import main
from jordan_strata.jordan import JordanElement, det, jordan_rank, sharp
from jordan_strata.reduction import (
    angular_momentum,
    classify_config,
    encode_oscillator,
    oscillator_sample,
    stratum,
)
from jordan_strata.strata import random_element


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(args)
    return rc, buf.getvalue()


def test_classify_matches_library(tmp_path):
    rng = random.Random(0)
    x = random_element("O", rng, gaussian=True)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(x.to_json()))
    rc, out = run_cli(["classify", str(path)])
    assert rc == 0
    rep = json.loads(out)
    check = rep["checks"][0]
    assert check["stratum"] == jordan_rank(x)
    assert check["det"] == det(x).to_json()
    assert check["sharp"] == sharp(x).to_json()


def test_classify_identity(tmp_path):
    ident = JordanElement.identity("O", gaussian=True)
    path = tmp_path / "i.json"
    path.write_text(json.dumps(ident.to_json()))
    rc, out = run_cli(["classify", str(path)])
    rep = json.loads(out)
    assert rep["checks"][0]["stratum"] == 3
    assert rep["checks"][0]["det"] == [[1, 1], [0, 1]]


def test_classify_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc, _ = run_cli(["classify", str(path)])
    assert rc == 2
    good = JordanElement.identity("R").to_json()
    malformed = [
        {**good, "diag": [[1, 0], [1, 1], [1, 1]]},  # zero denominator
        {**good, "diag": 5},
        [good],
    ]
    for obj in malformed:
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        rc, _ = run_cli(["classify", str(path)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error:") and err.count("\n") == 1
    rc, _ = run_cli(["embed", "--kind", "veronese", "--vectors", "[[[1,0],0,0]]"])
    assert rc == 2
    path.write_text(json.dumps({"q": [[[1, 0]], [0], [0]], "p": [[0], [0], [0]]}))
    rc, _ = run_cli(["reduce", str(path)])
    assert rc == 2


def test_classify_accepts_projective_points(tmp_path):
    from jordan_strata.strata import ProjPoint, rank1_sample

    rng = random.Random(5)
    p = ProjPoint(rank1_sample("C", rng))
    path = tmp_path / "p.json"
    path.write_text(json.dumps(p.to_json()))
    rc, out = run_cli(["classify", str(path)])
    assert rc == 0
    check = json.loads(out)["checks"][0]
    assert check["stratum"] == 1
    assert check["rank1_factor"]["kind"] == "segre"


def test_embed_verbs():
    rc, out = run_cli(["embed", "--kind", "veronese", "--vectors", "[[1,0,0]]"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["checks"][0]["stratum"] == 1
    rc, out = run_cli(
        ["embed", "--kind", "plucker", "--vectors",
         "[[1,0,0,0,0,0],[0,1,0,0,0,0]]"]
    )
    assert rc == 0
    rc, out = run_cli(["embed", "--kind", "octonionic", "--seed", "5"])
    rep = json.loads(out)
    assert rep["checks"][0]["sharp_vanishes"] is True
    rc, out = run_cli(
        ["embed", "--kind", "segre", "--vectors", "[[1,0,0],[0,1,0]]"]
    )
    assert rc == 0 and json.loads(out)["checks"][0]["stratum"] == 1
    rc, _ = run_cli(["embed", "--kind", "segre", "--vectors", "[[1,0,0]]"])
    assert rc == 2  # wrong arity


def test_reduce_matches_library(tmp_path):
    rng = random.Random(1)
    c = oscillator_sample(3, 2, rng)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(c.to_json()))
    rc, out = run_cli(["reduce", str(path)])
    assert rc == 0
    rep = json.loads(out)
    check = rep["checks"][0]
    assert check["stratum"] == stratum(encode_oscillator(c)) == 2
    assert check["mechanical_stratum"] == classify_config(c)


def test_reduce_nonzero_angular_momentum(tmp_path):
    cfg = {"q": [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
           "p": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc, out = run_cli(["reduce", str(path)])
    assert rc == 0
    rep = json.loads(out)
    assert rep["checks"][0]["obstruction"] == "nonzero angular momentum"
    assert "stratum" not in rep["checks"][0]


def test_verify_deterministic_and_pass():
    args = ["verify", "--suite", "dimension-audit", "--seed", "11"]
    rc1, out1 = run_cli(args)
    rc2, out2 = run_cli(args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_unknown_suite_exits_2(capsys):
    rc, _ = run_cli(["verify", "--suite", "nope"])
    assert rc == 2
    rc, out = run_cli(["verify", "--suite", "dimension-audit", "--samples", "-3"])
    assert rc == 2 and out == ""
    rc, _ = run_cli(["verify", "--suite", "dimension-audit", "--samples", "0"])
    assert rc == 2
    capsys.readouterr()
    rc, _ = run_cli(["verify", "--suite", "tkk", "--case", "xx"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "'xx'" in err and all(c in err for c in ("sp3", "u33", "so12", "e7"))
    for suite in ("division-algebra", "singular-locus", "oscillator", "dimension-audit"):
        rc, out = run_cli(["verify", "--suite", suite, "--case", "xx", "--samples", "1"])
        err = capsys.readouterr().err
        assert rc == 2 and out == ""
        assert err == f"error: suite {suite} takes no --case\n"


def test_out_file_and_text_format(tmp_path):
    out_path = tmp_path / "report.json"
    rc, _ = run_cli(
        ["verify", "--suite", "dimension-audit", "--seed", "3",
         "--out", str(out_path)]
    )
    assert rc == 0
    rep = json.loads(out_path.read_text())
    assert rep["verdict"] == "pass"
    rc, out = run_cli(
        ["verify", "--suite", "dimension-audit", "--seed", "3", "--format", "text"]
    )
    assert rc == 0
    assert "verdict: pass" in out


def test_seed_env_default(monkeypatch, tmp_path):
    monkeypatch.setenv("JORDAN_STRATA_SEED", "17")
    rc, out = run_cli(["verify", "--suite", "dimension-audit"])
    assert rc == 0
    assert json.loads(out)["seed"] == 17


def test_seed_env_is_read_on_every_call(monkeypatch):
    # the parser is built once per process; the env default must not be
    # frozen into it at the first build
    args = ["verify", "--suite", "dimension-audit"]
    seeds = []
    for value in ("5", "23"):
        monkeypatch.setenv("JORDAN_STRATA_SEED", value)
        rc, out = run_cli(args)
        assert rc == 0
        seeds.append(json.loads(out)["seed"])
    monkeypatch.delenv("JORDAN_STRATA_SEED")
    rc, out = run_cli(args)
    assert seeds == [5, 23] and json.loads(out)["seed"] == 0
    rc, out = run_cli(args + ["--seed", "9"])
    assert json.loads(out)["seed"] == 9
    monkeypatch.setenv("JORDAN_STRATA_SEED", "not-a-seed")
    assert run_cli(args)[0] == 2
