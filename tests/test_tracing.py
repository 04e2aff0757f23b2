"""The contract between the library and the benchmark's tracer.

``perfbench/tracing.py`` looks up every traced function by name and counts
the Scalar operators in ``Scalar.__dict__``; a rename or a removal breaks
``--trace 1``.  The tracer is loaded from its file, installed on the
package and uninstalled again.
"""

import importlib.util
import sys
from pathlib import Path

import jordan_strata  # noqa: F401
from jordan_strata import cdmatrix, cli, lifts, poisson, reduction, strata, suites, tkk  # noqa: F401
from jordan_strata.scalars import Scalar

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_state():
    """Every name of every package module, the traced classes and the suite registry."""
    mods = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "jordan_strata"}
    state = {n: dict(vars(m)) for n, m in mods.items()}
    classes = [Scalar, tkk.TKKAlgebra, poisson.CasePoisson]
    state.update({c.__qualname__: dict(vars(c)) for c in classes})
    state["SUITES"] = dict(suites.SUITES)
    return state


def test_the_tracer_resolves_every_name_and_puts_every_original_back():
    tracing = load_tracing()
    assert set(tracing.SCALAR_OPS) <= set(vars(Scalar))
    before = package_state()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = package_state()
        for module, attr in tracing.SPANNED:
            owner = sys.modules[f"jordan_strata.{module}"]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                assert vars(owner)[attr] is not before[owner.__qualname__][attr], attr
            else:
                assert getattr(owner, attr) is not before[owner.__name__][attr], attr
        for op in tracing.SCALAR_OPS:
            assert during["Scalar"][op] is not before["Scalar"][op], op
        assert all(during["SUITES"][s] is not f for s, f in before["SUITES"].items())
    finally:
        tracer.uninstall()
    after = package_state()
    assert after.keys() == before.keys()
    for name, names in before.items():
        assert after[name].keys() == names.keys(), name
        moved = [k for k, v in names.items() if after[name][k] is not v]
        assert not moved, (name, moved)
