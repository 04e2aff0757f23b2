"""Regenerate the benchmark's input pool and golden report digests.

    python3 perfbench/make_golden.py [--inputs] [--pool NAME ...]

With `--inputs` it first rebuilds `data/inputs.json`: the `classify`
elements, the `reduce` configurations and the `embed` vectors.  It then
runs every request of the named pools (all by default) once and records
its exit code, verdict and report digest in `data/golden.json`.  A pool is
named after the workload that owns it; `dualpair` draws from `reduction`.

A request that overruns its workload's budget (a stall) is recorded with
verdict and digest null: runs check only that it exits 0, as a `verify`
whose checks all hold does.  Any other failure stops the script without
writing the table.

The golden table pins the reports of the commit it was made at.  Remake it
only when a change of report bytes is intended.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import runner  # noqa: E402
import workloads as wl  # noqa: E402


def _large_element(alg, gaussian, rng):
    """An element with coordinates of about 20 digits."""
    from jordan_strata.jordan import JordanElement
    from jordan_strata.scalars import Scalar

    def big():
        return Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 10**3))

    coords = [
        Scalar(big(), big() if gaussian else 0, gaussian)
        for _ in range(JordanElement.space_dim(alg))
    ]
    return JordanElement.from_coords(alg, coords, gaussian)


def _classify_element(kind, v):
    """U_a(x) for x of the kind's rank and an invertible a; a of about 20
    digits for the large-height kinds, so the element has about 40."""
    from jordan_strata.jordan import det, quadratic_rep
    from jordan_strata.strata import random_element, rank_k_sample

    _, alg, rank, height = kind.split("-")
    gaussian = alg.endswith("_C")
    alg = alg[:1]
    rng = random.Random(f"pool:{kind}:{v}")
    x = rank_k_sample(alg, int(rank[1:]), rng, gaussian)
    while True:
        if height == "large":
            a = _large_element(alg, gaussian, rng)
        else:
            a = random_element(alg, rng, gaussian)
        if not det(a).is_zero():
            return quadratic_rep(a, x).to_json()


def _entry(rng):
    n = rng.randint(-6, 6)
    return n if rng.random() < 0.7 else [n, rng.randint(1, 4)]


def _vectors(kind, v):
    rng = random.Random(f"pool:embed-{kind}:{v}")
    n, m = {"veronese": (1, 3), "segre": (2, 3), "plucker": (2, 6)}[kind]
    while True:
        vecs = [[_entry(rng) for _ in range(m)] for _ in range(n)]
        vals = [[Fraction(*e) if isinstance(e, list) else Fraction(e) for e in r] for r in vecs]
        if any(all(x == 0 for x in r) for r in vals):
            continue
        if kind == "plucker" and all(
            vals[0][i] * vals[1][j] == vals[0][j] * vals[1][i]
            for i in range(m)
            for j in range(m)
        ):
            continue
        return vecs


def make_inputs() -> dict:
    from jordan_strata.reduction import oscillator_sample

    inputs = {}
    for req in wl.pool("classify"):
        if req.input_name is not None:
            inputs[req.input_name] = _classify_element(req.kind, req.input_name[-1])
        elif req.argv[-1].startswith("@"):
            kind = req.argv[2]
            inputs[req.key] = _vectors(kind, req.key[-1])
    for req in wl.pool("reduction"):
        if req.input_name is not None:
            _, s, rank, v = req.input_name.split("-")
            rng = random.Random(f"pool:{req.input_name}")
            inputs[req.input_name] = oscillator_sample(int(s[1:]), int(rank[1:]), rng).to_json()
    return inputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", action="store_true", help="rebuild data/inputs.json first")
    ap.add_argument(
        "--pool",
        action="append",
        choices=sorted(w for w in wl.WORKLOADS if wl.pool_name(w) == w),
        help="remake this pool only (repeatable); all pools by default",
    )
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    wl.DATA_DIR.mkdir(exist_ok=True)
    if args.inputs:
        inputs = make_inputs()
        with open(wl.DATA_DIR / "inputs.json", "w") as fh:
            json.dump(inputs, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    inputs = wl.load_inputs()
    golden_path = wl.DATA_DIR / "golden.json"
    golden = json.loads(golden_path.read_text()) if golden_path.exists() else {}
    runner.install_alarm()
    pools = [w for w in wl.WORKLOADS if wl.pool_name(w) == w]
    for name in args.pool or pools:
        spec = wl.WORKLOADS[name]
        wl.setup(name)
        from jordan_strata import cli

        reqs = [wl.resolve(r, inputs) for r in wl.pool(name)]
        wl.write_inputs(reqs, inputs, ROOT)
        table = {}
        for req in reqs:
            out = runner.execute(cli.main, req.argv, spec.budget_s)
            if out.error is None:
                entry = {"rc": out.rc, "verdict": out.report["verdict"], "sha256": out.digest}
            elif out.error.startswith("over budget"):
                # Stalled: only the exit code of the CLI contract is known.
                entry = {"rc": 0, "verdict": None, "sha256": None}
                print(f"{name} {req.key}: {out.error}; no digest", file=sys.stderr)
            else:
                sys.exit(f"{name} {req.key}: {out.error}; golden table not written")
            table[req.key] = entry
            print(f"{name} {req.key} {out.seconds:.3f}s rc={out.rc}", file=sys.stderr, flush=True)
        golden[name] = table
        golden_path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
