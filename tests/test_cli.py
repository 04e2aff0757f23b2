import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from jordan_strata import cli, jordan, lifts, reduction, strata, suites
from jordan_strata.bilinear import Bilinear
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
from jordan_strata.suites import SUITES
from test_jordan import TAGS, classify_element


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
    for config in (
        {"q": [[[1, 0]], [0], [0]], "p": [[0], [0], [0]]},  # zero denominator
        {"q": [[], [], []], "p": [[], [], []]},  # particles in R^0
    ):
        path.write_text(json.dumps(config))
        capsys.readouterr()
        rc, out = run_cli(["reduce", str(path)])
        err = capsys.readouterr().err
        assert rc == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def edit(*path, value):
    """An edit of a JSON value: the node at ``path`` becomes ``value``."""

    def change(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value

    return change


def on(tag, change, gaussian=False):
    """``change`` made to the identity of ``tag`` in place of the H element."""

    def replace(obj):
        obj.clear()
        obj.update(JordanElement.identity(tag, gaussian).to_json())
        change(obj)

    return replace


# each edit of a valid H element's encoding that classify must refuse; a JSON
# boolean is an int in Python, so each boolean stands where it would decode as 1
MALFORMED_CLASSIFY = {
    "rings-mixed-diag-vs-off": edit(
        "off", 1, value={"level": 2, "coeffs": [[[1, 1], [0, 1]]] + [[[0, 1], [0, 1]]] * 3}
    ),
    "off-of-wrong-level": edit("off", 0, value={"level": 1, "coeffs": [[0, 1], [0, 1]]}),
    "level-4": edit("off", 2, "level", value=4),
    "level-minus-1": edit("off", 2, "level", value=-1),
    "level-string": edit("off", 2, "level", value="0"),
    "coefficient-count": edit("off", 0, "coeffs", value=[[0, 1]] * 3),
    "float-leaf": edit("diag", 0, value=[1.5, 1]),
    "zero-denominator-in-off": edit("off", 1, "coeffs", 1, value=[2, 0]),
    "complexified-flag": edit("complexified", value=True),
    # a flag that is present is a JSON boolean, whatever its truth value
    "complexified-zero": edit("complexified", value=0),
    "complexified-null": edit("complexified", value=None),
    "complexified-empty-string": edit("complexified", value=""),
    "complexified-no": edit("complexified", value="no"),
    "complexified-false-string-on-q-i": on("H", edit("complexified", value="false"), gaussian=True),
    "boolean-numerator": on("C", edit("diag", 0, value=[True, 2])),
    "boolean-denominator": on("R", edit("diag", 1, value=[1, True])),
    "boolean-level": on("C", edit("off", 2, "level", value=True)),
    "boolean-off-coefficient": on("C", edit("off", 0, "coeffs", 1, value=[True, 1])),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["embed", "--kind", "veronese", "--vectors", "[[true,0,0]]"],
        ["embed", "--kind", "veronese", "--vectors", "[[[true,1],0,0]]"],
        ["embed", "--kind", "segre", "--vectors", "[[1,0,0],[0,[1,true],0]]"],
        ["reduce", {"q": [[True], [0], [0]], "p": [[0], [0], [0]]}],
        ["reduce", {"q": [[[1, 1]], [[0, 1]], [[0, 1]]], "p": [[[1, True]], [0], [0]]}],
    ],
    ids=["veronese-bare", "veronese-numerator", "segre-denominator", "reduce-bare", "reduce-pair"],
)
def test_boolean_integers_exit_2(argv, tmp_path, capsys):
    if argv[0] == "reduce":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(argv[1]))
        argv = ["reduce", str(path)]
    capsys.readouterr()
    rc, out = run_cli(argv)
    err = capsys.readouterr().err
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("case", sorted(MALFORMED_CLASSIFY))
def test_malformed_classify_input_exits_2(case, tmp_path, capsys):
    path = tmp_path / "bad.json"
    obj = JordanElement.identity("H").to_json()
    MALFORMED_CLASSIFY[case](obj)
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    rc, out = run_cli(["classify", str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_every_decoder_names_the_json_boolean_rule_of_the_complexified_flag():
    from jordan_strata.strata import ProjPoint
    from jordan_strata.tkk import TKKElement, tkk_algebra

    for gaussian in (False, True):
        obj = JordanElement.identity("H", gaussian).to_json()
        for flag in (0, 1, None, "", "no", "false"):
            obj["complexified"] = flag
            with pytest.raises(ValueError, match="must be a JSON boolean"):
                JordanElement.from_json(obj)
    obj = JordanElement.identity("R").to_json()
    del obj["complexified"]  # absent reads as false
    assert JordanElement.from_json(obj) == JordanElement.identity("R")
    point = ProjPoint(JordanElement.identity("C", True)).to_json()
    point["complexified"] = "true"
    with pytest.raises(ValueError, match="must be a JSON boolean"):
        ProjPoint.from_json(point)
    alg = tkk_algebra("sp3")
    element = alg.from_coords([1] * alg.dim).to_json()
    element["minus"]["complexified"] = 0
    with pytest.raises(ValueError, match="must be a JSON boolean"):
        TKKElement.from_json(element)


def reduce_config():
    """A valid reduce input: pairs and bare integers, three particles in R^2."""
    return {"q": [[[1, 2], 0], [0, 1], [0, 0]], "p": [[0, 0], [[-1, 3], 0], [0, 0]]}


# each edit of a valid reduce input that reduce must refuse
MALFORMED_REDUCE = {
    "three-entry-pair": edit("q", 0, 0, value=[1, 2, 3]),
    "gaussian-pair": edit("q", 0, 0, value=[[1, 2], [0, 1]]),
    "float": edit("p", 1, 1, value=0.5),
    "string": edit("q", 1, 1, value="1"),
    "zero-denominator": edit("p", 0, 0, value=[1, 0]),
    "missing-p": lambda obj: obj.pop("p"),
    "two-particles": lambda obj: obj["q"].pop(),
    "ragged-widths": edit("p", 2, value=[0, 0, 0]),
    "non-list-q": edit("q", value=5),
    "bare-integer-row": edit("q", 2, value=0),
}


def test_the_reduce_input_the_table_edits_is_valid(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(reduce_config()))
    rc, out = run_cli(["reduce", str(path)])
    assert rc == 0 and json.loads(out)["verdict"] == "pass"


@pytest.mark.parametrize("case", sorted(MALFORMED_REDUCE))
def test_malformed_reduce_input_exits_2(case, tmp_path, capsys):
    path = tmp_path / "bad.json"
    obj = reduce_config()
    MALFORMED_REDUCE[case](obj)
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    rc, out = run_cli(["reduce", str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


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
    assert json.loads(out1)["seed"] == 11
    # the seed is --seed's alone, 0 when it is not given
    rc, out = run_cli(args[:-2])
    assert rc == 0 and json.loads(out)["seed"] == 0
    rc, out = run_cli(args[:-1] + ["9"])
    assert rc == 0 and json.loads(out)["seed"] == 9


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


def test_unwritable_out_exits_2(tmp_path, capsys):
    args = ["embed", "--kind", "veronese", "--vectors", "[[1,2,3]]", "--out"]
    for target in (tmp_path, tmp_path / "missing" / "report.json"):
        capsys.readouterr()
        rc, out = run_cli(args + [str(target)])
        err = capsys.readouterr().err
        assert rc == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


# sha256 of what `verify --suite <name> --samples 1 --seed 3` prints; reports
# are deterministic for a fixed seed, so a change of storage or engine must
# leave every byte of them as it is (the same on CPython 3.10, 3.11 and 3.13)
VERIFY_DIGESTS = {
    "dimension-audit": "b63a3697375e83a53c672ffc9eac27e0e54212abe25ebf131428409bb7937e05",
    "division-algebra": "5ef17eac053e4eb2d6a0d2da947358254fb6cf04647c1af1c3b80863f56987da",
    "jordan-identities": "d12f370fae097f9d45108112572acf85482c2537838709aa4388cbea3e15e17c",
    "moment-identity": "74c0c15052d35d9e29a1c0f8884907ea965fed41a580f3417d0c913245615949",
    "oscillator": "edcae9f74c26047f53ebeb1fca73bdf0b1949103499f0b940baa54fecfa7089b",
    "poisson-rank": "9dbe98765188ebbdf08881702abe48bbbebc4095d935699e947789c4f33d94cd",
    "rank-identification": "be892348d72f9e885a8612191f3f09954d210828e1a8a8d86accb86d1b51e144",
    "reduction": "32ae9724829476138d249e219704b5fd84cb5acecb8ad97e5ff458854f43ff50",
    "singular-locus": "8a1ad33f0cac924484ecc5d92cc06ef60dbc1c03ed687c746cba1f69a8588f32",
    "tkk": "6872cf3f7379e4d6b5983b4a32fab961bec9ea426ff4c1239ea7ca313cf15e40",
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_report_bytes_are_pinned(suite):
    rc, out = run_cli(["verify", "--suite", suite, "--samples", "1", "--seed", "3"])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[suite]


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_a_recorded_verify_command_replays_to_the_same_bytes(suite):
    # a report records --case=- when no case was named, for every suite
    rc, out = run_cli(["verify", "--suite", suite, "--samples", "1", "--seed", "3"])
    report = json.loads(out)
    assert rc == 0 and report["command"][2] == "--case=-"
    assert run_cli(report["command"] + ["--seed", str(report["seed"])]) == (rc, out)


# sha256 of the `classify -` reports, ranks 0-3 at small then large height in
# turn, of each algebra's ``classify_element`` inputs, and of each `embed`
# report below; no other test pins the bytes of these two verbs
CLASSIFY_DIGESTS = {
    "R": "8d2a06a1241483a8f4c3380376dd8b0ca90bd63aa78178a22511184a5409ff77",
    "R_C": "f41fccec82c81d51823454a233b75a9248e665783eff235d6c9bacb9603a984c",
    "C": "2ae4dbb5bbac593a9facda226c3ff5e25702bb8bfe47218bf0eb5a3d825e2d0a",
    "C_C": "5169ed11ff5c858b145ceac28cd0726d0af4eedf48565cef950c0f962c2d8c4d",
    "H": "7da64149fe8e494711f4a2dc6f8f7e1464a983e5a5c408be93150a3281607829",
    "H_C": "ed7d3d010ed5a148db7c771735d633d6d3b279943d68fbd202e646d177f15936",
    "O": "c236ac1d441c6884c941ec69967fcffab0fd9b0f35ead947e66a4866713a431b",
    "O_C": "7b73da433c2f139bf73615a99b89d56a5bc98287320f76815de1ead00c0a49b4",
}

EMBED_ARGS = {
    "veronese": ["--vectors", "[[1,[1,2],-3]]"],
    "segre": ["--vectors", "[[2,0,[1,3]],[[[1,1],[-1,2]],1,-4]]"],
    "plucker": ["--vectors", "[[1,0,2,0,-1,3],[0,1,[1,2],4,0,[[0,1],[1,1]]]]"],
    "octonionic": ["--seed", "4"],
}

EMBED_DIGESTS = {
    "octonionic": "14d8cd81a228371141075ed91a2ff076bf580284f61e0210a2339fe978b5d394",
    "plucker": "72d3cfb5386b6d79142edf06baed14c3a9cca998b92a6ce5351ce5453e810a04",
    "segre": "7bb3a1aa6c6a37b88b897b47d710a3a97c0cfc4f48166d335fba5b9f90deb9f8",
    "veronese": "9a88f34b34555a0e77517beaac6aafbfe3b5860c260af7dbbc91a5b8a2d40dae",
}


def classify_on_stdin(monkeypatch, x):
    # the report echoes the input path, so the input comes on stdin
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(x.to_json())))
    return run_cli(["classify", "-"])


@pytest.mark.parametrize("tag", TAGS)
def test_classify_report_bytes_are_pinned(monkeypatch, tag):
    digest = hashlib.sha256()
    for rank in range(4):
        for height in ("small", "large"):
            rc, out = classify_on_stdin(monkeypatch, classify_element(tag, rank, height))
            assert rc == 0 and json.loads(out)["checks"][0]["stratum"] == rank
            digest.update(out.encode())
    assert digest.hexdigest() == CLASSIFY_DIGESTS[tag]


@pytest.mark.parametrize("kind", sorted(EMBED_ARGS))
def test_embed_report_bytes_are_pinned(kind):
    rc, out = run_cli(["embed", "--kind", kind] + EMBED_ARGS[kind])
    assert rc == 0 and json.loads(out)["checks"][0]["sharp_vanishes"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == EMBED_DIGESTS[kind]


def test_classify_and_embed_square_once(monkeypatch):
    # rank, det and sharp of a point come from one x × x
    calls = []
    square = Bilinear.square

    def counted(self, xv, gaussian=False):
        calls.append(self)
        return square(self, xv, gaussian)

    elements = [(tag, classify_element(tag, rank, "small")) for tag in TAGS for rank in (1, 2, 3)]
    monkeypatch.setattr(Bilinear, "square", counted)
    for tag, x in elements:
        calls.clear()
        assert classify_on_stdin(monkeypatch, x)[0] == 0
        assert len(calls) == 1, tag
    for kind in ("veronese", "segre", "plucker"):
        calls.clear()
        assert run_cli(["embed", "--kind", kind] + EMBED_ARGS[kind])[0] == 0
        assert len(calls) == 1, kind


def misreport_rank(monkeypatch, modules, true_rank, reported):
    """Patch ``jordan_rank`` in ``modules`` to report rank ``true_rank`` as ``reported``."""
    rank = jordan.jordan_rank

    def misreported(x):
        r = rank(x)
        return reported if r == true_rank else r

    for module in modules:
        monkeypatch.setattr(module, "jordan_rank", misreported)


def test_rank_identification_reports_a_misreported_rank(monkeypatch):
    # the rank samplers trust U_a to keep the rank of their seed, so a
    # jordan_rank that reports rank 2 as 1 reaches the check that reads it
    # instead of stalling the sampler
    misreport_rank(monkeypatch, (jordan, strata, suites), 2, 1)
    rc, out = run_cli(
        ["verify", "--suite", "rank-identification", "--case", "R", "--samples", "4", "--seed", "1"]
    )
    assert rc == 1
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "jordan-vs-matrix-rank" and check["failures"] == 1
    assert check["witness"] is not None


# failing check -> ((case, samples), patched modules, (rank, reported as), failures)
MISREPORTED_RANKS = {
    # zero_level_sample builds stratum 3 and does not re-test it
    "zero-level-strata": (("real", 4), (reduction, suites, lifts, cli), (3, 2), 1),
    # the quaternionic liftable sampler builds rank 2; the lift then reads it as 1
    "hilbert-lift-round-trip": (("quaternionic", 8), (lifts,), (2, 1), 4),
}


@pytest.mark.parametrize("check", sorted(MISREPORTED_RANKS))
def test_reduction_reports_a_misreported_rank(check, monkeypatch):
    # the dual-pair samplers build their rank by construction, so a jordan_rank
    # that misreports it fails the check that reads it, with a witness, instead
    # of stalling the sampler
    (case, samples), modules, (true_rank, reported), failures = MISREPORTED_RANKS[check]
    misreport_rank(monkeypatch, modules, true_rank, reported)
    rc, out = run_cli(
        ["verify", "--suite", "reduction", "--case", case, "--samples", str(samples), "--seed", "1"]
    )
    assert rc == 1
    failed = [c for c in json.loads(out)["checks"] if c["failures"]]
    assert [(c["name"], c["failures"]) for c in failed] == [(check, failures)]
    assert failed[0]["witness"] is not None


@pytest.mark.parametrize("run", range(5))
def test_a_closed_stdout_exits_2_without_a_traceback(run):
    # the reader goes away before the report is written: a usage-level error
    # (exit 2, one error line), not a mathematical failure (exit 1) and no traceback
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    args = ["verify", "--suite", "rank-identification", "--samples", "2", "--seed", "1",
            "--format", "text"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "jordan_strata.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=100) == 2, err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line] == ["error: [Errno 32] Broken pipe"]
