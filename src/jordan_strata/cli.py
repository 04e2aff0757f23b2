"""Command-line front end: classify points, run verification campaigns,
reduce oscillator configurations and evaluate the homogeneous embeddings.

All verbs are thin wrappers over the library; reports are deterministic for
a fixed seed and are emitted as JSON (machine) or text (human).  Every number
a verb reads or prints goes through the codec in ``scalars``, and every check
record starts as ``suites.check`` before the verb adds its own keys.  Exit codes:
0 every check passed, 1 a mathematical check failed (the report carries an
exact witness), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import lru_cache

from .jordan import JordanElement, jordan_rank, matrix_model_rank, rank_det_sharp
from .reduction import (
    OscillatorConfig,
    angular_momentum,
    classify_config,
    encode_oscillator,
    reduced_point,
)
from .scalars import Scalar, json_entry, rational_to_json
from .strata import plucker, rank1_projective_factor, rank1_sample, segre, veronese
from .suites import SUITES, check, run_suite


class UsageError(Exception):
    pass


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report = args.handler(args)
        out = _render(report, args.format)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(out)
                fh.write("\n")
        print(out if args.format == "json" else out.rstrip("\n"), flush=True)
    except (UsageError, ValueError, KeyError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # stdout closed early: the exit flush must not raise
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report["verdict"] == "pass" else 1


@lru_cache(maxsize=1)
def _build_parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(prog="jordan-strata")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write the full report here")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("classify", help="stratify a Jordan element from JSON")
    p.add_argument("input", help="path to the element JSON, or - for stdin")
    common(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--case", default=None)
    p.add_argument("--samples", type=int, default=25)
    common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("reduce", help="reduce an oscillator configuration")
    p.add_argument("input", help="path to the configuration JSON, or - for stdin")
    common(p)
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("embed", help="evaluate a homogeneous embedding")
    p.add_argument(
        "--kind", required=True, choices=("veronese", "segre", "plucker", "octonionic")
    )
    p.add_argument(
        "--vectors",
        default=None,
        help="JSON list of input vectors (entries: int, [n,d], or [[rn,rd],[in,id]])",
    )
    common(p)
    p.set_defaults(handler=cmd_embed)
    return parser


def _read_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _decode(decoder, obj):
    """Decode parsed JSON input; a malformed encoding is a usage error."""
    try:
        return decoder(obj)
    except (TypeError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed input: {exc}") from exc


def _scalar_from_entry(entry) -> Scalar:
    """A vector entry, read over Q(i)."""
    re, im = json_entry(entry)
    return Scalar(re, im or 0, True)


def _report(command, seed, checks):
    failures = sum(c["failures"] for c in checks)
    return {
        "command": command,
        "seed": seed,
        "checks": sorted(checks, key=lambda c: (c["name"], str(c["case"]))),
        "verdict": "pass" if failures == 0 else "fail",
    }


def _render(report, fmt):
    if fmt == "json":
        return json.dumps(report, sort_keys=True)
    lines = [f"# {' '.join(report['command'])}  (seed {report['seed']})"]
    for c in report["checks"]:
        status = "PASS" if c["failures"] == 0 else "FAIL"
        lines.append(
            f"{status}  {c['name']} [{c['case']}]  samples={c['samples']} failures={c['failures']}"
        )
        if c["failures"] and c.get("witness"):
            lines.append(f"      witness: {c['witness']}")
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines)


def cmd_classify(args):
    elt = _decode(JordanElement.from_json, _read_json(args.input))
    rank, d, s = rank_det_sharp(elt)
    record = check("classify", elt.algebra + ("_C" if elt.gaussian else ""), 1, 0)
    record.update(stratum=rank, det=d.to_json(), sharp=s.to_json())
    if elt.algebra in ("R", "C", "H") and elt.gaussian:
        record["matrix_rank"] = matrix_model_rank(elt)
        if rank == 1:
            factor = rank1_projective_factor(elt)
            if factor is not None:
                kind, data = factor
                vectors = [data] if kind == "veronese" else list(data)
                record["rank1_factor"] = {
                    "kind": kind,
                    "vectors": [[s.to_json() for s in vec] for vec in vectors],
                }
    return _report(["classify", args.input], args.seed, [record])


def cmd_verify(args):
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    checks = run_suite(args.suite, case=args.case, samples=args.samples, seed=args.seed)
    return _report(
        [
            "verify",
            f"--suite={args.suite}",
            f"--case={args.case or '-'}",
            f"--samples={args.samples}",
        ],
        args.seed,
        checks,
    )


def cmd_reduce(args):
    config = _decode(OscillatorConfig.from_json, _read_json(args.input))
    j = angular_momentum(config)
    record = check("reduce", "real", 1, 0)
    record.update(
        angular_momentum=[[rational_to_json(x) for x in row] for row in j],
        mechanical_stratum=classify_config(config),
    )
    if all(x == 0 for row in j for x in row):
        alpha = encode_oscillator(config)
        z = reduced_point(alpha)
        record["reduced_point"] = z.to_json()
        record["stratum"] = jordan_rank(z)
    else:
        record["obstruction"] = "nonzero angular momentum"
    return _report(["reduce", args.input], args.seed, [record])


# kind -> (embedding, number of vectors, their length, usage wording)
_EMBEDDINGS = {
    "veronese": (veronese, 1, 3, "one 3-vector"),
    "segre": (segre, 2, 3, "two 3-vectors"),
    "plucker": (plucker, 2, 6, "two 6-vectors"),
}


def cmd_embed(args):
    rng = random.Random(args.seed)
    if args.kind == "octonionic":
        elt = rank1_sample("O", rng)
    else:
        if args.vectors is None:
            raise UsageError(f"--vectors is required for kind={args.kind}")
        parsed = _decode(
            lambda vectors: [[_scalar_from_entry(e) for e in vec] for vec in vectors],
            json.loads(args.vectors),
        )
        embedding, count, length, what = _EMBEDDINGS[args.kind]
        if len(parsed) != count or any(len(v) != length for v in parsed):
            raise UsageError(f"{args.kind} expects {what}")
        elt = embedding(*parsed)
    rank, _, s = rank_det_sharp(elt)
    element = elt.to_json()
    failed = rank != 1
    record = check(f"embed-{args.kind}", elt.algebra, 1, int(failed), element if failed else None)
    record.update(element=element, stratum=rank, sharp_vanishes=s.is_zero())
    return _report(["embed", args.kind], args.seed, [record])


if __name__ == "__main__":
    sys.exit(main())
