"""Seeded fuzz test of the CLI exit-code contract.

Valid ``classify``, ``reduce`` and ``embed --vectors`` encodings are mutated
at random, structurally (a node replaced, dropped or duplicated) and as raw
text (cut short or with a character changed).  Whatever the input, ``main``
must return 0, 1 or 2 and let no exception escape.
"""

import copy
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout

from jordan_strata.cli import main
from jordan_strata.reduction import oscillator_sample
from jordan_strata.strata import rank_k_sample

ROUNDS = 120
TIME_LIMIT_S = 10


def leaf(rng):
    return rng.choice(
        [
            0,
            1,
            -1,
            rng.randint(-10**6, 10**6),
            2.5,
            True,
            None,
            "x",
            [],
            {},
            [1, 0],
            [[1, 2], [3, 0]],
            [1, 2, 3],
        ]
    )


def nodes(obj, path=()):
    """Every (path, value) in a JSON value, the root included."""
    yield path, obj
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from nodes(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from nodes(value, path + (i,))


def mutate(obj, rng):
    """A copy of the JSON value with one node replaced, dropped or duplicated."""
    obj = copy.deepcopy(obj)
    path, target = rng.choice(list(nodes(obj)))
    op = rng.choice(["replace", "drop", "duplicate", "nest"])
    if not path:
        return leaf(rng) if op == "replace" else [obj]
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "replace":
        parent[key] = leaf(rng)
    elif op == "nest":
        parent[key] = [target]
    elif op == "drop":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(target))
    else:
        parent[key + "_extra" if isinstance(key, str) else key] = copy.deepcopy(target)
    return obj


def mutate_text(text, rng):
    if rng.random() < 0.5:
        return text[: rng.randrange(len(text))]
    i = rng.randrange(len(text))
    return text[:i] + rng.choice('[]{},:"0-x ') + text[i + 1 :]


def valid_inputs(rng):
    """(verb, JSON value) pairs that the CLI accepts as they are."""
    out = []
    for algebra in ("R", "C", "H", "O"):
        for gaussian in (False, True):
            elt = rank_k_sample(algebra, rng.randint(0, 3), rng, gaussian=gaussian).to_json()
            out.append(("classify", elt))
    out.append(("classify", {**rank_k_sample("H", 1, rng).to_json(), "projective": True}))
    for s, k in ((2, 1), (3, 2), (3, 0)):
        out.append(("reduce", oscillator_sample(s, k, rng).to_json()))
    out.append(("veronese", [[1, [1, 2], [[0, 1], [1, 3]]]]))
    out.append(("segre", [[1, 0, 2], [[1, 3], 0, -1]]))
    out.append(("plucker", [[1, 0, 0, 0, 0, 0], [0, 1, 0, [2, 5], 0, 0]]))
    return out


def run(verb, text, tmp_path):
    if verb in ("classify", "reduce"):
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = [verb, str(path)]
    else:
        argv = ["embed", "--kind", verb, "--vectors", text]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


def test_cli_exit_codes_under_mutated_input(tmp_path):
    rng = random.Random(2024)
    seeds = valid_inputs(rng)
    t0 = time.perf_counter()
    for verb, obj in seeds:
        assert run(verb, json.dumps(obj), tmp_path) in (0, 1)
    escaped = []
    codes = set()
    for _ in range(ROUNDS):
        verb, obj = rng.choice(seeds)
        if rng.random() < 0.2:
            text = mutate_text(json.dumps(obj), rng)
        else:
            text = json.dumps(mutate(obj, rng))
        try:
            rc = run(verb, text, tmp_path)
        except Exception as exc:  # noqa: BLE001 -- any escape breaks the contract
            escaped.append((verb, text, repr(exc)))
            continue
        assert rc in (0, 1, 2), (verb, text, rc)
        codes.add(rc)
    assert not escaped, escaped[:3]
    assert codes >= {0, 2}
    assert time.perf_counter() - t0 < TIME_LIMIT_S
