"""Outside-in tracing of the library's layers, and the per-layer metrics.

`Tracer.install()` replaces each traced function by a timing wrapper in
every `jordan_strata` namespace that holds it (the defining module, modules
that imported the name, the package itself, the suite registry), and each
traced method on its class.  `uninstall()` puts the originals back.

A wrapper records one span per call: name, start, end, parent span and
request.  Spans stay in flat arrays in memory and are written out when the
run ends.  Scalar arithmetic is only counted, since a span per call would
cost more than the call.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (module, attribute) of every traced function; "Class.method" for methods.
SPANNED = (
    ("scalars", "four_squares"),
    ("scalars", "two_squares"),
    ("cayley_dickson", "cd_mul"),
    ("jordan", "jordan_mul"),
    ("jordan", "det"),
    ("jordan", "sharp"),
    ("jordan", "jordan_rank"),
    ("jordan", "matrix_model_rank"),
    ("linalg", "rank"),
    ("linalg", "solve"),
    ("linalg", "inverse"),
    ("linalg", "kernel_basis"),
    ("linalg", "frac_rank"),
    ("linalg", "congruent_diagonal"),
    ("cdmatrix", "mul"),
    ("cdmatrix", "inverse"),
    ("tkk", "tkk_algebra"),
    ("tkk", "TKKAlgebra.bracket"),
    ("tkk", "TKKAlgebra.invariant_form"),
    ("tkk", "TKKAlgebra.form_against_basis"),
    ("poisson", "case_poisson"),
    ("poisson", "CasePoisson.bivector_polys"),
    ("poisson", "CasePoisson.bracket"),
    ("poisson", "poisson_rank_at"),
    ("poisson", "poisson_rank_at_matrix"),
    ("strata", "rank_k_sample"),
    ("strata", "rank1_sample"),
    ("strata", "random_element"),
    ("strata", "rank1_projective_factor"),
    ("reduction", "zero_level_sample"),
    ("reduction", "mu_h"),
    ("reduction", "mu_g"),
    ("reduction", "symplectic_form"),
    ("reduction", "reduced_point"),
    ("lifts", "hilbert_lift"),
    ("lifts", "liftable_sample"),
    ("cli", "main"),
)
SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "inverse",
)
SUITES = (
    "division-algebra", "jordan-identities", "rank-identification", "singular-locus",
    "tkk", "moment-identity", "reduction", "oscillator", "poisson-rank", "dimension-audit",
)
TKK_CASES = ("sp3", "u33", "so12", "e7")
POISSON_CASES = ("sp3", "u33", "so12")

ERR_OTHER, ERR_LIFT = 1, 2


def metric_names() -> list:
    """Every per-layer metric, in report order, with its unit."""
    out = [
        ("scalars.four_squares.calls", "count"),
        ("scalars.four_squares.busy_s", "s"),
        ("scalars.four_squares.max_s", "s"),
        ("scalars.two_squares.busy_s", "s"),
        ("scalars.Scalar.ops", "count"),
    ]
    calls_self = [
        "cayley_dickson.cd_mul",
        *(f"jordan.{f}" for f in ("jordan_mul", "det", "sharp", "jordan_rank", "matrix_model_rank")),
        *(f"linalg.{f}" for f in ("rank", "solve", "inverse", "kernel_basis", "frac_rank", "congruent_diagonal")),
        "cdmatrix.mul",
        "cdmatrix.inverse",
        *(f"tkk.TKKAlgebra.{f}" for f in ("bracket", "invariant_form", "form_against_basis")),
        "poisson.poisson_rank_at",
        "poisson.poisson_rank_at_matrix",
        "poisson.CasePoisson.bracket",
        *(f"reduction.{f}" for f in ("zero_level_sample", "mu_h", "mu_g", "symplectic_form", "reduced_point")),
    ]
    for name in calls_self:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"tkk.tkk_algebra.cold_s.{c}", "s") for c in TKK_CASES]
    out += [(f"poisson.case_poisson.cold_s.{c}", "s") for c in POISSON_CASES]
    for f in ("rank_k_sample", "rank1_sample"):
        out += [(f"strata.{f}.self_s", "s"), (f"strata.{f}.attempts_per_call", "ratio")]
    out.append(("strata.rank1_projective_factor.self_s", "s"))
    for f in ("hilbert_lift", "liftable_sample"):
        out += [(f"lifts.{f}.calls", "count"), (f"lifts.{f}.self_s", "s"), (f"lifts.{f}.max_s", "s")]
    out.append(("lifts.hilbert_lift.error_frac", "ratio"))
    out += [(f"suites.{s}.busy_s", "s") for s in SUITES]
    out += [
        ("cli.main.self_s", "s"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.names = []  # span name per name id
        self.sid = array("q")
        self.nid = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.req = array("q")
        self.err = array("b")
        self.next_id = 0
        self.current = -1
        self.request = -1  # -1 while setting up
        self.scalar_ops = [0]
        self.cold = {}  # "tkk.tkk_algebra.cold_s.<case>" etc. -> seconds
        self._undo = []
        self._seen_polys = set()

    # -- wrappers ------------------------------------------------------------

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _span(self, fn, name, lift_error):
        nid = self._name_id(name)
        tr = self
        rec_sid, rec_nid = self.sid.append, self.nid.append
        rec_t0, rec_t1 = self.t0.append, self.t1.append
        rec_parent, rec_req, rec_err = self.parent.append, self.req.append, self.err.append

        def wrapper(*args, **kwargs):
            parent = tr.current
            sid = tr.next_id
            tr.next_id = sid + 1
            tr.current = sid
            err = 0
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                err = ERR_LIFT if isinstance(exc, lift_error) else ERR_OTHER
                raise
            finally:
                t1 = perf_counter()
                tr.current = parent
                rec_sid(sid)
                rec_nid(nid)
                rec_t0(t0)
                rec_t1(t1)
                rec_parent(parent)
                rec_req(tr.request)
                rec_err(err)

        return wrapper

    def _cold_cache(self, fn, prefix):
        """Time the calls of an lru-cached constructor that miss its cache."""
        cold = self.cold

        def wrapper(case):
            misses = fn.cache_info().misses
            t0 = perf_counter()
            out = fn(case)
            if fn.cache_info().misses != misses:
                key = f"{prefix}.{case}"
                cold[key] = cold.get(key, 0.0) + perf_counter() - t0
            return out

        return wrapper

    def _cold_polys(self, fn):
        """Charge the first bivector_polys() of each CasePoisson to its case."""
        cold, seen = self.cold, self._seen_polys

        def wrapper(obj):
            if id(obj) in seen:
                return fn(obj)
            seen.add(id(obj))
            t0 = perf_counter()
            out = fn(obj)
            key = f"poisson.case_poisson.cold_s.{obj.case}"
            cold[key] = cold.get(key, 0.0) + perf_counter() - t0
            return out

        return wrapper

    def _counter(self, fn):
        cell = self.scalar_ops

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        old = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self) -> None:
        pkg = "jordan_strata"
        mods = [m for n, m in list(sys.modules.items()) if n == pkg or n.startswith(pkg + ".")]
        lift_error = sys.modules[pkg + ".reduction"].LiftError
        for mod_name, attr in SPANNED:
            mod = sys.modules[f"{pkg}.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                if attr == "CasePoisson.bivector_polys":
                    fn = self._cold_polys(fn)
                self._set(cls, meth, self._span(fn, name, lift_error))
                continue
            orig = getattr(mod, attr)
            fn = orig
            if attr in ("tkk_algebra", "case_poisson"):
                fn = self._cold_cache(orig, f"{name}.cold_s")
            wrapped = self._span(fn, name, lift_error)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapped)
        scalar = sys.modules[pkg + ".scalars"].Scalar
        for op in SCALAR_OPS:
            self._set(scalar, op, self._counter(scalar.__dict__[op]))
        registry = sys.modules[pkg + ".suites"].SUITES
        for suite, fn in list(registry.items()):
            self._set(registry, suite, self._span(fn, f"suites.{suite}", lift_error))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- results -------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as a tab-separated line, in order of ending."""
        names = self.names
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\trequest\terror\n")
            for i in range(len(self.sid)):
                fh.write(
                    f"{self.sid[i]}\t{names[self.nid[i]]}\t{self.t0[i]:.9f}\t{self.t1[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.req[i]}\t{self.err[i]}\n"
                )

    def metrics(self, first_request: int) -> dict:
        """Per-layer metrics over the spans of requests >= first_request."""
        n = self.next_id
        names = self.names
        dur = [0.0] * n
        child = [0.0] * n
        name_of = [""] * n
        for i in range(len(self.sid)):
            s = self.sid[i]
            dur[s] = self.t1[i] - self.t0[i]
            name_of[s] = names[self.nid[i]]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[s]
        stats = {}
        attempts = {}
        for i in range(len(self.sid)):
            if self.req[i] < first_request:
                continue
            s = self.sid[i]
            name = name_of[s]
            st = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "busy_s": 0.0, "max_s": 0.0, "errors": 0})
            st["calls"] += 1
            st["self_s"] += dur[s] - child[s]
            st["busy_s"] += dur[s]
            st["max_s"] = max(st["max_s"], dur[s])
            st["errors"] += self.err[i] == ERR_LIFT
            p = self.parent[i]
            if name == "strata.random_element" and p >= 0:
                attempts[name_of[p]] = attempts.get(name_of[p], 0) + 1
        out = {}
        for metric, _unit in metric_names():
            if metric.startswith("trace.") or ".cold_s." in metric or metric == "scalars.Scalar.ops":
                continue
            base, stat = metric.rsplit(".", 1)
            st = stats.get(base, {"calls": 0, "self_s": 0.0, "busy_s": 0.0, "max_s": 0.0, "errors": 0})
            if stat == "attempts_per_call":
                value = attempts.get(base, 0) / st["calls"] if st["calls"] else 0.0
            elif stat == "error_frac":
                value = st["errors"] / st["calls"] if st["calls"] else 0.0
            else:
                value = st[stat]
            out[metric] = value
        for metric, _unit in metric_names():
            if ".cold_s." in metric:
                out[metric] = self.cold.get(metric, 0.0)
        out["scalars.Scalar.ops"] = self.scalar_ops[0]
        out["trace.spans"] = len(self.sid)
        return out
