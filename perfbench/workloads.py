"""Request pools, seeded request lists and cold set-up for each workload.

Every workload draws its requests from a fixed pool.  A pool request is a
`jordan-strata` argument vector, plus an input file for `classify` and
`reduce`.  The input files come from `data/inputs.json`, which
`make_golden.py` generated once, and `data/golden.json` holds the expected
report digest of every pool request.  The workload seed only chooses which
pool requests run and in which order, so the program receives nothing but
the generated inputs.

This module does not import `jordan_strata`: set-up imports it, so the
import is timed as part of set-up.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import NamedTuple

DATA_DIR = Path(__file__).resolve().parent / "data"
# Relative to the checkout root.  `classify` and `reduce` echo the path in
# their reports, so it is part of every golden digest.
WORK_DIR = ".perfbench_run"
INPUT_DIR = WORK_DIR + "/in"


class Request(NamedTuple):
    key: str  # unique within the pool; also the golden-table key
    kind: str  # requests of one kind are drawn together
    argv: tuple
    input_name: str | None  # entry of data/inputs.json, or None
    expect_stratum: int | None  # rank the report must state, or None


class Workload(NamedTuple):
    kinds: dict  # kind -> requests of that kind drawn per list
    budget_s: float  # per-request time budget
    algebras: str  # algebras whose first jordan_mul is part of set-up
    tkk_cases: tuple = ()  # tkk_algebra(case) builds in set-up
    poisson_cases: tuple = ()  # case_poisson(case).bivector_polys() in set-up
    pool: str | None = None  # the workload whose pool it draws from; None: its own


ALGEBRAS = ("R", "C", "H", "O")
SETUP_REPEATS = 3  # fresh set-ups per run; setup_s is their median

# (suite, case, samples) per request kind, and the pool seeds of each kind.
VERIFY_KINDS = {
    "identities": {
        "division-algebra": ("division-algebra", None, 4),
        "jordan-R": ("jordan-identities", "R", 6),
        "jordan-C": ("jordan-identities", "C", 4),
        "jordan-H": ("jordan-identities", "H", 2),
        "jordan-O": ("jordan-identities", "O", 1),
        "jordan-O_C": ("jordan-identities", "O_C", 1),
        "rank-identification": ("rank-identification", None, 4),
        "singular-locus": ("singular-locus", None, 1),
    },
    "lie": {
        "tkk-sp3": ("tkk", "sp3", 2),
        "tkk-u33": ("tkk", "u33", 1),
        "tkk-so12": ("tkk", "so12", 1),
    },
    "poisson": {
        "poisson-real": ("poisson-rank", "real", 1),
        "poisson-complex": ("poisson-rank", "complex", 1),
    },
    "reduction": {
        "moment-real": ("moment-identity", "real", 1),
        "moment-complex": ("moment-identity", "complex", 1),
        "moment-quaternionic": ("moment-identity", "quaternionic", 1),
        "reduction-real": ("reduction", "real", 4),
        "reduction-complex": ("reduction", "complex", 4),
        "reduction-quaternionic": ("reduction", "quaternionic", 4),
        "oscillator": ("oscillator", None, 8),
    },
}
POOL_SEEDS = {"identities": 12, "lie": 6, "poisson": 4, "reduction": 8}

# The lists of identities, classify, lie and dualpair take 2-8 s, so a run
# repeats them.  reduction and poisson are not in BENCHMARK.json and run one
# pass; WORKLOADS.md says why.  dualpair is reduction without its
# quaternionic `reduction` requests, the ones that can stall in four_squares.
WORKLOADS = {
    "identities": Workload(
        kinds={
            "division-algebra": 4,
            "jordan-R": 4,
            "jordan-C": 4,
            "jordan-H": 2,
            "jordan-O": 2,
            "jordan-O_C": 2,
            "rank-identification": 4,
            "singular-locus": 1,
        },
        budget_s=30.0,
        algebras="RCHO",
    ),
    "lie": Workload(
        kinds={"tkk-sp3": 4, "tkk-u33": 6, "tkk-so12": 1},
        budget_s=60.0,
        algebras="RCH",
        tkk_cases=("sp3", "u33", "so12"),
        poisson_cases=("sp3", "u33"),
    ),
    "poisson": Workload(
        kinds={"poisson-real": 1, "poisson-complex": 1},
        budget_s=120.0,
        algebras="RCO",
        tkk_cases=("sp3", "u33", "e7"),
        poisson_cases=("sp3", "u33"),
    ),
    "reduction": Workload(
        kinds={
            "moment-real": 1,
            "moment-complex": 1,
            "moment-quaternionic": 1,
            "reduction-real": 1,
            "reduction-complex": 1,
            "reduction-quaternionic": 4,
            "oscillator": 1,
            "reduce": 6,
        },
        budget_s=12.0,
        algebras="RCH",
    ),
    "dualpair": Workload(
        kinds={
            "moment-real": 1,
            "moment-complex": 1,
            "moment-quaternionic": 1,
            "reduction-real": 1,
            "reduction-complex": 1,
            "oscillator": 2,
            "reduce": 48,
        },
        budget_s=12.0,
        algebras="RCH",
        pool="reduction",
    ),
    "classify": Workload(
        kinds={
            **{
                f"classify-{alg}{tag}-r{rank}-{height}": 1
                for alg in ALGEBRAS
                for tag in ("", "_C")
                for rank in range(4)
                for height in ("small", "large")
            },
            "embed-veronese": 4,
            "embed-segre": 4,
            "embed-plucker": 4,
            "embed-octonionic": 4,
        },
        budget_s=5.0,
        algebras="RCHO",
    ),
}

CLASSIFY_VARIANTS = 3
EMBED_POOL = 8
REDUCE_VARIANTS = 6


def input_path(name: str) -> str:
    return f"{INPUT_DIR}/{name}.json"


def pool_name(workload: str) -> str:
    """The pool the workload draws from, and its key in data/golden.json."""
    return WORKLOADS[workload].pool or workload


def pool(name: str) -> list:
    """Every request of the pool `name`, in a fixed order."""
    out = []
    for kind, (suite, case, samples) in VERIFY_KINDS.get(name, {}).items():
        for seed in range(POOL_SEEDS[name]):
            argv = ["verify", "--suite", suite]
            if case is not None:
                argv += ["--case", case]
            argv += ["--samples", str(samples), "--seed", str(seed)]
            out.append(Request(f"{kind}/{seed}", kind, tuple(argv), None, None))
    if name == "reduction":
        for s in (3, 4):
            for rank in range(4):
                for v in range(REDUCE_VARIANTS):
                    key = f"reduce-s{s}-r{rank}-{v}"
                    argv = ("reduce", input_path(key))
                    out.append(Request(key, "reduce", argv, key, rank))
    if name == "classify":
        for kind in WORKLOADS["classify"].kinds:
            if kind.startswith("classify-"):
                rank = int(kind.split("-")[2][1:])
                for v in range(CLASSIFY_VARIANTS):
                    key = f"{kind}-{v}"
                    argv = ("classify", input_path(key))
                    out.append(Request(key, kind, argv, key, rank))
        for kind in ("veronese", "segre", "plucker"):
            for v in range(EMBED_POOL):
                key = f"embed-{kind}-{v}"
                argv = ("embed", "--kind", kind, "--vectors", f"@{key}")
                out.append(Request(key, f"embed-{kind}", argv, None, 1))
        for seed in range(EMBED_POOL):
            argv = ("embed", "--kind", "octonionic", "--seed", str(seed))
            out.append(Request(f"embed-octonionic-{seed}", "embed-octonionic", argv, None, 1))
    return out


def load_inputs() -> dict:
    with open(DATA_DIR / "inputs.json") as fh:
        return json.load(fh)


def resolve(req: Request, inputs: dict) -> Request:
    """Replace an `@name` argument by the pool's vector list for `name`."""
    argv = tuple(
        json.dumps(inputs[a[1:]], separators=(",", ":")) if a.startswith("@") else a
        for a in req.argv
    )
    return req._replace(argv=argv)


def request_list(workload: str, seed: int, inputs: dict) -> list:
    """The run's requests: a seeded draw of each kind's quota, shuffled."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    by_kind = {}
    for req in pool(pool_name(workload)):
        by_kind.setdefault(req.kind, []).append(req)
    chosen = []
    for kind, count in spec.kinds.items():
        chosen.extend(rng.sample(by_kind[kind], count))
    rng.shuffle(chosen)
    return [resolve(r, inputs) for r in chosen]


def list_bytes(reqs: list, inputs: dict) -> bytes:
    """Canonical bytes of a request list and of every input file it reads."""
    lines = []
    for r in reqs:
        lines.append(json.dumps(list(r.argv)))
        if r.input_name is not None:
            lines.append(input_bytes(inputs[r.input_name]).decode())
    return "\n".join(lines).encode()


def input_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def write_inputs(reqs: list, inputs: dict, root: Path) -> None:
    (root / INPUT_DIR).mkdir(parents=True, exist_ok=True)
    for r in reqs:
        if r.input_name is not None:
            (root / input_path(r.input_name)).write_bytes(input_bytes(inputs[r.input_name]))


def setup(workload: str, after_import=None) -> None:
    """Import the library and make the cold builds the workload needs.

    `after_import`, if given, is called with no arguments between the
    import and the builds (the traced run installs its wrappers there).
    """
    import jordan_strata.cli  # noqa: F401  (the requests enter here)

    if after_import is not None:
        after_import()
    from jordan_strata.jordan import JordanElement, jordan_mul

    spec = WORKLOADS[workload]
    for alg in spec.algebras:
        for gaussian in (False, True):
            one = JordanElement.identity(alg, gaussian)
            jordan_mul(one, one)
    if spec.tkk_cases:
        from jordan_strata.tkk import tkk_algebra

        for case in spec.tkk_cases:
            tkk_algebra(case)
    if spec.poisson_cases:
        from jordan_strata.poisson import case_poisson

        for case in spec.poisson_cases:
            case_poisson(case).bivector_polys()
