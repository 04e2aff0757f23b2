import io
import json
import random
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from jordan_strata import cdmatrix as cdm
from jordan_strata import linalg, suites
from jordan_strata.cayley_dickson import CDNumber, cd_mul
from jordan_strata.cli import main
from jordan_strata.reduction import WMap
from jordan_strata.strata import rand_cd
from jordan_strata.tkk import TKKAlgebra

README = Path(__file__).resolve().parents[1] / "README.md"
CASE_SUITES = sorted(name for name, cases in suites.SUITE_CASES.items() if cases)


def test_count_builds_only_the_first_failure_witness_before_moving_on():
    calls = []
    position = [None]

    def samples():
        for i, ok in enumerate([True, False, True, False, False]):
            position[0] = i

            def witness(i=i):
                calls.append((i, position[0]))
                return f"sample {i}"

            yield ok, witness
            position[0] = None  # the stream has moved on

    record = suites._count("check", None, samples())
    # one call, for sample 1, made while the stream still stood at sample 1
    assert calls == [(1, 1)]
    assert record == {
        "name": "check",
        "case": "-",
        "samples": 5,
        "failures": 3,
        "witness": "sample 1",
    }
    assert suites._count("check", "O", ((True, None) for _ in range(4)))["witness"] is None


def test_a_wrong_doubling_product_is_reported_with_the_first_pair(monkeypatch):
    monkeypatch.setattr(suites, "cd_mul_doubling", lambda a, b: cd_mul(a, b) + CDNumber.one(3))
    samples, seed = 3, 5
    rng = random.Random(seed)
    for _ in range(2 * samples):  # the pairs of composition-norm come first
        rand_cd(3, rng, span=3)
    first = (rand_cd(3, rng, span=3), rand_cd(3, rng, span=3))

    checks = suites.run_suite("division-algebra", samples=samples, seed=seed)
    record = next(c for c in checks if c["name"] == "doubling-vs-table")
    assert record["failures"] == samples and record["witness"] == repr(first)
    assert all(c["failures"] == 0 for c in checks if c is not record)

    args = ["verify", "--suite", "division-algebra", "--samples", str(samples), "--seed", str(seed)]
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(args)
    assert rc == 1
    report = json.loads(buf.getvalue())
    assert [c["witness"] for c in report["checks"] if c["failures"]] == [repr(first)]


@pytest.mark.parametrize(
    "minors",
    [
        lambda n: [1] * n,  # positive definite: p passes and k fails
        lambda n: [(-1) ** i for i in range(1, n + 1)],  # negative definite: k passes, p fails
    ],
)
def test_form_definiteness_needs_both_signatures(monkeypatch, minors):
    # the verdict is cached on the algebra, so the suite gets a fresh one
    monkeypatch.setattr(suites, "tkk_algebra", TKKAlgebra)
    monkeypatch.setattr(suites.linalg, "leading_minors", lambda gram: minors(len(gram)))
    checks = suites.run_suite("tkk", case="sp3", samples=1)
    assert [c["failures"] for c in checks if c["name"] == "form-definiteness"] == [1]


def test_form_definiteness_is_decided_once_per_algebra_and_not_at_build(monkeypatch):
    grams, leading_minors = [], linalg.leading_minors

    def counted(gram):
        grams.append(len(gram))
        return leading_minors(gram)

    monkeypatch.setattr(linalg, "leading_minors", counted)
    alg = TKKAlgebra("sp3")
    assert grams == []
    monkeypatch.setattr(suites, "tkk_algebra", lambda case: alg)
    for _ in range(2):
        checks = suites.run_suite("tkk", case="sp3", samples=1)
        assert [c["failures"] for c in checks if c["name"] == "form-definiteness"] == [0]
    # one Gram for k and one for p, on the first run only
    assert grams == [len(alg.k_basis()), len(alg.p_basis())]


@pytest.mark.parametrize("suite", CASE_SUITES)
def test_no_case_dash_and_all_run_the_same_checks(suite):
    runs = [suites.run_suite(suite, case, samples=1, seed=2) for case in (None, "-", "all")]
    assert runs[0] == runs[1] == runs[2]
    assert {c["case"] for c in runs[0]} >= set(suites.SUITE_DEFAULT[suite])


@pytest.mark.parametrize(
    "suite, case", [(s, c) for s in CASE_SUITES for c in suites.SUITE_CASES[s]]
)
def test_every_valid_case_passes_at_one_sample(suite, case):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["verify", "--suite", suite, "--case", case, "--samples", "1", "--seed", "4"])
    assert rc == 0
    assert json.loads(buf.getvalue())["verdict"] == "pass"


def test_jordan_identities_runs_five_algebras_and_accepts_all_eight():
    ran = {c["case"] for c in suites.run_suite("jordan-identities", samples=1)}
    assert ran == {"R", "C", "H", "O", "O_C"}
    assert len(suites.SUITE_CASES["jordan-identities"]) == 8
    ran = {c["case"] for c in suites.run_suite("jordan-identities", "R_C", samples=1)}
    assert ran == {"R_C"}


def test_readme_case_table_matches_the_registry():
    lines = README.read_text().splitlines()
    start = lines.index("| suite | `--case` values | runs with no `--case` |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, *cells = (re.findall(r"`([^`]+)`", cell) for cell in line.strip("|").split("|"))
        rows[name[0]] = tuple(tuple(cell) for cell in cells)
    want = {name: (suites.SUITE_CASES[name], suites.SUITE_DEFAULT[name]) for name in suites.SUITES}
    assert rows == want


def test_a_dagger_without_conjugation_fails_the_defining_identity(monkeypatch):
    def transpose_only(alpha):  # dagger with the conjugations left out
        xi, up = alpha.blocks()
        return tuple(ru + tuple(-q for q in rx) for ru, rx in zip(zip(*up), zip(*xi)))

    def failures(case):
        checks = suites.run_suite("moment-identity", case=case, samples=3, seed=0)
        return next(c for c in checks if c["name"] == "dagger-defining-identity")["failures"]

    assert [failures(c) for c in ("real", "complex", "quaternionic")] == [0, 0, 0]
    monkeypatch.setattr(suites, "dagger", transpose_only)
    # over R conjugation is the identity, so only C and H can tell
    assert failures("real") == 0
    assert failures("complex") == 3 and failures("quaternionic") == 3


@pytest.mark.parametrize(
    "name, wrong, cases",
    [
        (
            "act_g",
            lambda alpha, y: WMap(alpha.case, cdm.mul(cdm.mul(y, y), alpha.matrix)),
            {"real", "complex", "quaternionic"},
        ),
        # O(2) acts on its one-dimensional Lie algebra by det(x), the same for
        # x and x^-1, so over R at s = 2 alpha x is as equivariant as alpha x^-1
        (
            "act_h",
            lambda alpha, x: WMap(alpha.case, cdm.mul(alpha.matrix, x)),
            {"complex", "quaternionic"},
        ),
    ],
)
def test_a_wrong_group_action_fails_equivariance(monkeypatch, name, wrong, cases):
    # equivariance is checked cross-multiplied, mu(g . alpha) g = g mu(alpha),
    # so it must still reject an action that is not the one mu is equivariant for
    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["verify", "--suite", "moment-identity", "--samples", "4", "--seed", "3"])
        return rc, json.loads(buf.getvalue())["checks"]

    assert run()[0] == 0
    monkeypatch.setattr(suites, name, wrong)
    rc, checks = run()
    assert rc == 1
    failed = [c for c in checks if c["failures"]]
    assert {c["case"] for c in failed} == cases
    assert all(c["name"] == "equivariance" and c["witness"] for c in failed)
