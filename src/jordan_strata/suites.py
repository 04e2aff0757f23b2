"""Named verification campaigns over the whole library.

Each suite returns a list of check records

    {"name": ..., "case": ..., "samples": n, "failures": k, "witness": ...}

computed deterministically from a seed.  The command-line front end only
formats these records; all mathematics happens in the library modules.

``register`` records, per suite, the cases ``--case`` may name and the cases
it runs when none is named.  ``run_suite`` decides both for every suite: it
checks the case, resolves it to a tuple (``-``, ``all`` or no case mean the
default set), and calls the suite as ``suite(cases, samples, rng)``, with
``rng`` the one random source seeded by ``seed``.  The paper's numbers the
suites check against are the one table ``PAPER``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from . import cdmatrix as cdm
from . import linalg
from .cayley_dickson import CDNumber, basis as cd_basis, cd_associator, cd_mul, cd_mul_doubling
from .jordan import (
    ALGEBRAS,
    JordanElement,
    det,
    jordan_mul,
    jordan_rank,
    matrix_model_rank,
    quadratic_rep,
    rank_det_sharp,
    sharp,
    sigma,
    trace_form,
)
from .lifts import LiftError, hilbert_lift, liftable_sample
from .poisson import (
    PolyFn,
    case_poisson,
    embed_reduced_point,
    poisson_rank_at,
    poisson_rank_at_matrix,
)
from .reduction import (
    CASE_ALGEBRA,
    CASE_LEVEL,
    OscillatorConfig,
    WMap,
    _random_hermitian,
    act_g,
    act_h,
    angular_momentum,
    b_form,
    classify_config,
    dagger,
    dims_projective_chain,
    encode_oscillator,
    g_group_element,
    g_infinitesimal,
    h_group_element,
    h_infinitesimal,
    in_lie_g,
    in_lie_h,
    moment_identity_residual_g,
    moment_identity_residual_h,
    mu_g,
    mu_h,
    oscillator_sample,
    reduced_point,
    stratum,
    symplectic_form,
    symplectic_gram,
    zero_level_point,
    zero_level_sample,
)
from .scalars import Scalar
from .strata import (
    ProjPoint,
    chord,
    closed_orbit_tangent_dim,
    closure_chain_audit,
    cubic_gradient,
    det_curve_coefficients,
    rank1_sample,
    rank_k_sample,
    rand_cd,
    rand_cd_matrix,
    rand_scalar,
    random_element,
)
from .tkk import ALGEBRA_TO_CASE, CASES as TKK_CASES, tkk_algebra

CLASSICAL_CASES = tuple(CASE_ALGEBRA)

# The paper's numbers.  By Jordan algebra, in ALGEBRAS order (R, C, H, O):
# dim J, the ambient P^m and the dimension n of the Severi variety, and
# dim str(J) and dim g of the TKK algebra (TKK_CASES, in the same order).  By
# dual-pair case: the complex dimensions of P[W(1)] in P[W(2)] in P[W(3)].
PAPER = {
    "jordan-dims": [6, 9, 15, 27],
    "m": [5, 8, 14, 26],
    "n": [2, 4, 8, 16],
    "str-dims": [9, 17, 36, 79],
    "tkk-dims": [21, 35, 66, 133],
    "projective-chains": {"real": (2, 5, 8), "complex": (5, 11, 17), "quaternionic": (11, 23, 35)},
}

SUITES = {}
SUITE_CASES = {}  # suite -> the cases --case may name; empty when it takes none
SUITE_DEFAULT = {}  # suite -> the cases it runs when none is named


def register(name, cases=(), default=None):
    def deco(fn):
        SUITES[name] = fn
        SUITE_CASES[name] = tuple(cases)
        SUITE_DEFAULT[name] = tuple(cases if default is None else default)
        return fn

    return deco


def run_suite(name, case=None, samples=25, seed=0):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    valid = SUITE_CASES[name]
    if case in (None, "-", "all"):
        cases = SUITE_DEFAULT[name]
    elif case in valid:
        cases = (case,)
    elif not valid:
        raise ValueError(f"suite {name} takes no --case")
    else:
        raise ValueError(
            f"unknown case {case!r} for suite {name}; valid cases: {', '.join(valid)}"
        )
    return SUITES[name](cases, samples, random.Random(seed))


def check(name, case, samples, failures, witness=None):
    """The check record of every report; a verb adds its own keys to it."""
    return {
        "name": name,
        "case": case or "-",
        "samples": samples,
        "failures": failures,
        "witness": witness,
    }


def _count(name, case, iterator):
    """The record of (ok, witness) samples; a witness is a callable, called
    for the first failure only and before the samples move on."""
    failures = 0
    witness = None
    n = 0
    for ok, wit in iterator:
        n += 1
        if not ok:
            failures += 1
            if failures == 1:
                witness = wit()
    return check(name, case, n, failures, witness)


def _table(name, got, want, case="-"):
    """The record of a computed row of the paper's numbers against ``PAPER``."""
    return check(name, case, len(want), 0 if got == want else 1, str(got))


def _severi_checks(m_name, n_name):
    """m and n of the four Severi varieties, and the critical relation
    3n/2 + 2 = m between them."""
    m = [JordanElement.space_dim(a) - 1 for a in ALGEBRAS]
    n = [closed_orbit_tangent_dim(a) - 1 for a in ALGEBRAS]
    rel = all(Fraction(3, 2) * nn + 2 == mm for nn, mm in zip(n, m))
    return [
        _table(m_name, m, PAPER["m"]),
        _table(n_name, n, PAPER["n"]),
        check("critical-relation", "-", 4, 0 if rel else 1),
    ]


# -- division algebras -------------------------------------------------------------


@register("division-algebra")
def division_algebra_suite(cases, samples, rng):
    checks = []

    def pairs():
        for _ in range(samples):
            a, b = rand_cd(3, rng, span=3), rand_cd(3, rng, span=3)
            yield a, b

    checks.append(
        _count(
            "composition-norm",
            "O",
            (((a * b).norm() == a.norm() * b.norm(), lambda: repr((a, b))) for a, b in pairs()),
        )
    )
    checks.append(
        _count(
            "doubling-vs-table",
            "O",
            ((cd_mul(a, b) == cd_mul_doubling(a, b), lambda: repr((a, b))) for a, b in pairs()),
        )
    )
    checks.append(
        _count(
            "conjugation-antiautomorphism",
            "O",
            (
                ((a * b).conjugate() == b.conjugate() * a.conjugate(), lambda: repr((a, b)))
                for a, b in pairs()
            ),
        )
    )

    def alternativity():
        for _ in range(samples):
            a, b = rand_cd(3, rng, span=3), rand_cd(3, rng, span=3)
            ok = cd_associator(a, a, b).is_zero() and cd_associator(a, b, b).is_zero()
            yield ok, lambda: repr((a, b))

    checks.append(_count("alternativity", "O", alternativity()))

    def unit_law():
        one = CDNumber.one(3)
        for _ in range(samples):
            a = rand_cd(3, rng, span=3)
            yield (one * a == a and a * one == a), lambda: repr(a)

    checks.append(_count("unit-law", "O", unit_law()))

    for level in (0, 1, 2):
        units = cd_basis(level)
        bad = sum(not cd_associator(*t).is_zero() for t in product(units, repeat=3))
        checks.append(check(f"associative-level-{level}", "-", len(units) ** 3, bad))
    witness = next(
        (
            f"({a!r}, {b!r}, {c!r})"
            for a, b, c in product(cd_basis(3), repeat=3)
            if not cd_associator(a, b, c).is_zero()
        ),
        None,
    )
    checks.append(
        check("octonion-nonassociativity-witness", "O", 512, 0 if witness else 1, witness)
    )
    iso = CDNumber(3, [Scalar(1, 0, True), Scalar(0, 1, True)] + [Scalar.zero(True)] * 6)
    checks.append(
        check(
            "gaussian-norm-isotropy",
            "O_C",
            1,
            0 if (iso.norm().is_zero() and not iso.is_zero()) else 1,
            repr(iso),
        )
    )
    return checks


# -- Jordan identities ---------------------------------------------------------------


@register(
    "jordan-identities",
    cases=ALGEBRAS + tuple(a + "_C" for a in ALGEBRAS),
    default=ALGEBRAS + ("O_C",),
)
def jordan_suite(cases, samples, rng):
    checks = []
    for tag in cases:
        algebra, gaussian = tag.removesuffix("_C"), tag.endswith("_C")
        ident = JordanElement.identity(algebra, gaussian)

        def elems():
            for _ in range(samples):
                yield random_element(algebra, rng, gaussian)

        checks.append(
            _count(
                "commutativity",
                tag,
                (
                    (jordan_mul(x, y) == jordan_mul(y, x), lambda: repr((x, y)))
                    for x, y in zip(elems(), elems())
                ),
            )
        )

        def jordan_identity():
            for x, y in zip(elems(), elems()):
                x2 = jordan_mul(x, x)
                lhs = jordan_mul(jordan_mul(x2, y), x)
                rhs = jordan_mul(x2, jordan_mul(y, x))
                yield lhs == rhs, lambda: repr((x, y))

        checks.append(_count("jordan-identity", tag, jordan_identity()))

        def adjugate():
            for x in elems():
                _, d, s = rank_det_sharp(x)
                yield jordan_mul(x, s) == ident.scale(d), lambda: repr(x)

        checks.append(_count("adjugate-identity", tag, adjugate()))

        def cayley_hamilton():
            for x in elems():
                x2 = jordan_mul(x, x)
                x3 = jordan_mul(x2, x)
                c = sigma(x)
                lhs = x3 - x2.scale(c.tr) + x.scale(c.sigma2) - ident.scale(c.det)
                yield lhs.is_zero(), lambda: repr(x)

        checks.append(_count("cayley-hamilton", tag, cayley_hamilton()))

        def det_multiplicativity():
            for a, x in zip(elems(), elems()):
                lhs = det(quadratic_rep(a, x))
                da = det(a)
                rhs = da * da * det(x)
                yield lhs == rhs, lambda: repr((a, x))

        checks.append(_count("det-quadratic-rep", tag, det_multiplicativity()))

        def rank_invariance():
            for _ in range(samples):
                a = random_element(algebra, rng, gaussian)
                if det(a).is_zero():
                    continue
                x = rank_k_sample(algebra, rng.choice([1, 2, 3]), rng, gaussian)
                yield jordan_rank(quadratic_rep(a, x)) == jordan_rank(x), lambda: repr((a, x))

        checks.append(_count("rank-invariance", tag, rank_invariance()))

        if not gaussian:

            def positivity():
                for x in elems():
                    if x.is_zero():
                        continue
                    yield trace_form(x, x).re > 0, lambda: repr(x)

            checks.append(_count("trace-form-positivity", tag, positivity()))
    return checks


@register("rank-identification", cases=("R", "C", "H"))
def rank_identification_suite(cases, samples, rng):
    checks = []
    for algebra in cases:
        def ranks():
            for k in (0, 1, 2, 3):
                for _ in range(max(1, samples // 4)):
                    x = rank_k_sample(algebra, k, rng)
                    yield matrix_model_rank(x) == jordan_rank(x) == k, lambda: repr(x)

        checks.append(_count("jordan-vs-matrix-rank", algebra, ranks()))
    return checks


@register("singular-locus")
def singular_locus_suite(cases, samples, rng):
    checks = _severi_checks("ambient-dims-m", "closed-orbit-dims-n")
    audit = closure_chain_audit(rng, samples=max(2, samples // 10))
    checks.append(
        check("degeneration-rank-bound", "-", 1, 0 if audit["rank_never_exceeds"] else 1)
    )
    for algebra in ALGEBRAS:
        def gradient():
            for _ in range(samples):
                x = random_element(algebra, rng, gaussian=True)
                h = random_element(algebra, rng, gaussian=True)
                c = det_curve_coefficients(x, h)
                ok = c[1] == trace_form(sharp(x), h) and c[0] == det(x)
                yield ok, lambda: repr((x, h))

        checks.append(_count("gradient-is-adjugate", algebra, gradient()))

        def vanishing():
            for k in (0, 1, 2, 3):
                for _ in range(max(1, samples // 4)):
                    x = rank_k_sample(algebra, k, rng)
                    grad_zero = cubic_gradient(x).is_zero()
                    yield grad_zero == (jordan_rank(x) <= 1), lambda: repr(x)

        checks.append(_count("gradient-vanishing-locus", algebra, vanishing()))

        def chords():
            for _ in range(samples):
                p = ProjPoint(rank1_sample(algebra, rng))
                q = ProjPoint(rank1_sample(algebra, rng))
                lam = rand_scalar(rng, True, 3)
                mu = rand_scalar(rng, True, 3)
                if lam.is_zero() and mu.is_zero():
                    lam = Scalar.one(True)
                try:
                    c = chord(p, q, lam, mu)
                except ValueError:
                    continue
                yield det(c.rep).is_zero(), lambda: repr((p.rep, q.rep))

        checks.append(_count("chords-inside-cubic", algebra, chords()))

        def generic_triple():
            hits = 0
            for _ in range(samples):
                x = rank1_sample(algebra, rng) + rank1_sample(algebra, rng) + rank1_sample(algebra, rng)
                if not det(x).is_zero():
                    hits += 1
            yield hits > 0, lambda: "no rank-one triple left the cubic"

        checks.append(_count("cubic-is-proper", algebra, generic_triple()))
    return checks


@register("tkk", cases=TKK_CASES)
def tkk_suite(cases, samples, rng):
    checks = []
    for cname in cases:
        alg = tkk_algebra(cname)
        i = TKK_CASES.index(cname)
        sdim, gdim = PAPER["str-dims"][i], PAPER["tkk-dims"][i]
        checks.append(
            check("str-dimension", cname, 1, 0 if alg.str_dim == sdim else 1, str(alg.str_dim))
        )
        checks.append(
            check("algebra-dimension", cname, 1, 0 if alg.dim == gdim else 1, str(alg.dim))
        )

        def rand_elt():
            # (x, L_w + [L_a, L_b], y), drawn in the order w, a, b, x, y
            w, a, b = (alg.lmul_element(random_element(alg.algebra, rng)) for _ in range(3))
            xy = alg.element(
                plus=random_element(alg.algebra, rng), minus=random_element(alg.algebra, rng)
            )
            return xy + w + alg.bracket(a, b)

        def jacobi():
            for _ in range(samples):
                a, b, c = rand_elt(), rand_elt(), rand_elt()
                j = (
                    alg.bracket(alg.bracket(a, b), c)
                    + alg.bracket(alg.bracket(b, c), a)
                    + alg.bracket(alg.bracket(c, a), b)
                )
                yield j.is_zero() and alg.bracket(a, a).is_zero(), lambda: repr((a, b, c))

        checks.append(_count("jacobi", cname, jacobi()))

        z = alg.h_element()
        k_basis, p_basis = alg.k_basis(), alg.p_basis()
        bad = sum(0 if alg.bracket(z, kb).is_zero() else 1 for kb in k_basis)
        checks.append(check("h-element-central", cname, len(k_basis), bad))
        bad = sum(
            0 if alg.bracket(z, alg.bracket(z, pb)) == (-pb) else 1 for pb in p_basis
        )
        checks.append(check("h-element-square", cname, len(p_basis), bad))
        bad = sum(
            0
            if alg.p_to_complexified(alg.bracket(z, pb))
            == alg.p_to_complexified(pb).scale(Scalar.i())
            else 1
            for pb in p_basis
        )
        checks.append(check("complex-structure-intertwines", cname, len(p_basis), bad))

        d = alg.grading_element()
        xp = alg.element(plus=random_element(alg.algebra, rng))
        ym = alg.element(minus=random_element(alg.algebra, rng))
        ok = alg.bracket(d, xp) == xp and alg.bracket(d, ym) == (-ym)
        checks.append(check("grading-element", cname, 2, 0 if ok else 1))

        def invariance():
            for _ in range(samples):
                a, b, c = rand_elt(), rand_elt(), rand_elt()
                lhs = alg.invariant_form(alg.bracket(c, a), b) + alg.invariant_form(
                    a, alg.bracket(c, b)
                )
                yield lhs == 0, lambda: repr((a, b, c))

        checks.append(_count("form-ad-invariance", cname, invariance()))

        size = len(k_basis) + len(p_basis)
        checks.append(check("form-definiteness", cname, size, int(not alg.form_definite)))

        def brackets_split():
            for _ in range(max(4, samples // 4)):
                k1, k2 = rng.choice(k_basis), rng.choice(k_basis)
                p1, p2 = rng.choice(p_basis), rng.choice(p_basis)
                kk = alg.bracket(k1, k2)
                kp = alg.bracket(k1, p1)
                pp = alg.bracket(p1, p2)
                in_k = lambda v: alg.theta(v) == v
                in_p = lambda v: alg.theta(v) == (-v)
                yield in_k(kk) and in_p(kp) and in_k(pp), lambda: repr((k1, p1))

        checks.append(_count("cartan-relations", cname, brackets_split()))
    return checks


@register("moment-identity", cases=CLASSICAL_CASES)
def moment_suite(cases, samples, rng):
    checks = []
    for cname in cases:
        level = CASE_LEVEL[cname]
        s = 2

        def rand_wmap():
            return WMap(cname, rand_cd_matrix(level, 6, s, rng))

        def rand_lie_h():
            rows = [[CDNumber.zero(level) for _ in range(s)] for _ in range(s)]
            for i in range(s):
                coeffs = [Scalar(0)] + [
                    Scalar(Fraction(rng.randint(-2, 2)))
                    for _ in range((1 << level) - 1)
                ]
                rows[i][i] = CDNumber(level, coeffs)
            for i in range(s):
                for j in range(i + 1, s):
                    q = rand_cd(level, rng)
                    rows[i][j] = q
                    rows[j][i] = -q.conjugate()
            return cdm.from_rows(rows)

        def rand_lie_g():
            a = rand_cd_matrix(level, 3, 3, rng)
            x, y = _random_hermitian(level, 3, rng), _random_hermitian(level, 3, rng)
            ma = cdm.neg(cdm.conj_transpose(a))
            return tuple(ra + rx for ra, rx in zip(a, x)) + tuple(
                ry + rm for ry, rm in zip(y, ma)
            )

        def dagger_identity():
            # (dagger(alpha) e_r, e_t) is conj(dagger(alpha)[t][r]) and alpha e_t
            # is column t of alpha, so B(e_r, alpha e_t) must equal it
            units = [
                tuple(CDNumber.one(level) if i == r else CDNumber.zero(level) for i in range(6))
                for r in range(6)
            ]
            for _ in range(samples):
                alpha = rand_wmap()
                dag, cols = dagger(alpha), list(zip(*alpha.matrix))
                ok = all(
                    dag[t][r].conjugate() == b_form(cname, u, cols[t])
                    for r, u in enumerate(units)
                    for t in range(s)
                )
                yield ok, lambda: repr(alpha.matrix)

        checks.append(_count("dagger-defining-identity", cname, dagger_identity()))

        def membership():
            for _ in range(samples):
                alpha = rand_wmap()
                ok = in_lie_h(mu_h(alpha)) and in_lie_g(mu_g(alpha))
                yield ok, lambda: repr(alpha.matrix)

        checks.append(_count("momentum-membership", cname, membership()))

        def residuals():
            for _ in range(samples):
                alpha, delta = rand_wmap(), rand_wmap()
                xi, eta = rand_lie_h(), rand_lie_g()
                ok = (
                    moment_identity_residual_h(alpha, xi, delta).is_zero()
                    and moment_identity_residual_g(alpha, eta, delta).is_zero()
                )
                yield ok, lambda: repr((alpha.matrix, xi, eta))

        checks.append(_count("moment-identity", cname, residuals()))

        def equivariance():
            # mu(g . alpha) = g mu(alpha) g^-1, cross-multiplied: every group
            # element drawn is invertible, so no second inverse is needed
            for _ in range(max(4, samples // 2)):
                alpha = rand_wmap()
                x = h_group_element(cname, s, rng)
                if cdm.mul(mu_h(act_h(alpha, x)), x) != cdm.mul(x, mu_h(alpha)):
                    yield False, lambda: repr((alpha.matrix, x))
                    continue
                y = g_group_element(cname, rng)
                ok = cdm.mul(mu_g(act_g(alpha, y)), y) == cdm.mul(y, mu_g(alpha))
                yield ok, lambda: repr(alpha.matrix)

        checks.append(_count("equivariance", cname, equivariance()))

        def dual_pair():
            for _ in range(samples):
                alpha = rand_wmap()
                xi, eta = rand_lie_h(), rand_lie_g()
                lhs = h_infinitesimal(g_infinitesimal(alpha, eta), xi)
                rhs = g_infinitesimal(h_infinitesimal(alpha, xi), eta)
                yield lhs == rhs, lambda: repr(alpha.matrix)

        checks.append(_count("dual-pair-commutes", cname, dual_pair()))

        def antisymmetry():
            for _ in range(samples):
                alpha = rand_wmap()
                yield symplectic_form(alpha, alpha).is_zero(), lambda: repr(alpha.matrix)

        checks.append(_count("symplectic-antisymmetry", cname, antisymmetry()))

        width = (1 << level) * 6 * s
        real_basis = []
        for r in range(6):
            for t in range(s):
                for k in range(1 << level):
                    rows = [[CDNumber.zero(level) for _ in range(s)] for _ in range(6)]
                    rows[r][t] = CDNumber.unit(level, k)
                    real_basis.append(WMap(cname, rows))
        rank = linalg.rank(symplectic_gram(real_basis))
        checks.append(
            check("symplectic-nondegenerate", cname, width, 0 if rank == width else 1, str(rank))
        )
    return checks


@register("reduction", cases=CLASSICAL_CASES)
def reduction_suite(cases, samples, rng):
    checks = []
    for cname in cases:
        def strata_hit():
            for k in (0, 1, 2, 3):
                for _ in range(max(1, samples // 4)):
                    alpha = zero_level_sample(cname, 3, k, rng)
                    z = zero_level_point(alpha)
                    yield z is not None and jordan_rank(z) == k, lambda: repr(alpha.matrix)

        checks.append(_count("zero-level-strata", cname, strata_hit()))

        def h_invariance():
            for _ in range(samples):
                alpha = zero_level_sample(cname, 3, rng.choice([1, 2]), rng)
                x = h_group_element(cname, 3, rng)
                yield reduced_point(act_h(alpha, x)) == reduced_point(alpha), lambda: repr(
                    alpha.matrix
                )

        checks.append(_count("reduced-point-h-invariant", cname, h_invariance()))

        def saturation():
            for k in (1, 2, 3):
                for _ in range(max(1, samples // 3)):
                    alpha = zero_level_sample(cname, 4, k, rng)
                    yield stratum(alpha) <= 3, lambda: repr(alpha.matrix)

        checks.append(_count("saturation-above-rank", cname, saturation()))

        def lifts():
            for _ in range(samples):
                rank = rng.choice([0, 1, 1, 2, 2])
                z = liftable_sample(cname, rank, 2, rng)
                try:
                    alpha = hilbert_lift(z, 2)
                except LiftError:
                    yield False, lambda: repr(z)
                    continue
                yield zero_level_point(alpha) == z, lambda: repr(z)

        checks.append(_count("hilbert-lift-round-trip", cname, lifts()))

        got, want = dims_projective_chain(cname), PAPER["projective-chains"][cname]
        checks.append(_table("projective-dimension-chain", got, want, cname))
    return checks


@register("oscillator")
def oscillator_suite(cases, samples, rng):
    checks = []

    def zero_j_classification():
        for _ in range(samples):
            k = rng.choice([0, 1, 2, 3])
            s = rng.choice([3, 4])
            c = oscillator_sample(s, k, rng)
            j = angular_momentum(c)
            ok = all(x == 0 for row in j for x in row)
            ok = ok and classify_config(c) == stratum(encode_oscillator(c)) == k
            yield ok, lambda: repr(c.to_json())

    checks.append(_count("mechanical-vs-jordan-stratum", "real", zero_j_classification()))

    def parallel_momenta():
        for _ in range(samples):
            q = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            lam = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
            p = [[lam * x for x in row] for row in q]
            c = OscillatorConfig(q, p)
            j = angular_momentum(c)
            yield all(x == 0 for row in j for x in row), lambda: repr(c.to_json())

    checks.append(_count("parallel-momenta-zero-j", "real", parallel_momenta()))

    zero = OscillatorConfig([[0] * 3] * 3, [[0] * 3] * 3)
    ok = classify_config(zero) == 0 and stratum(encode_oscillator(zero)) == 0
    checks.append(check("zero-configuration", "real", 1, 0 if ok else 1))
    return checks


@register("poisson-rank", cases=CLASSICAL_CASES)
def poisson_suite(cases, samples, rng):
    checks = []
    for cname in cases:
        per_stratum = {}
        bad = 0
        witness = None
        for k in (1, 2, 3):
            vals = set()
            for _ in range(samples):
                alpha = zero_level_sample(cname, 3, k, rng)
                vals.add(poisson_rank_at_matrix(cname, mu_g(alpha)))
            per_stratum[k] = vals
            if len(vals) != 1:
                bad += 1
                witness = f"stratum {k}: ranks {sorted(vals)}"
        checks.append(check("rank-constant-per-stratum", cname, 3 * samples, bad, witness))
        seq = [min(per_stratum[k]) for k in (1, 2, 3)]
        ok = seq[0] < seq[1] < seq[2]
        checks.append(
            check("rank-strictly-monotone", cname, 3, 0 if ok else 1, str(seq))
        )
    for cname in cases:
        tkk_case = ALGEBRA_TO_CASE[CASE_ALGEBRA[cname]]
        cp = case_poisson(tkk_case)
        cas = cp.casimir()

        def casimir_commutes():
            for _ in range(samples * 2):
                coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(cp.dim)]
                g = PolyFn.linear(cp.case, cp.dim, coeffs)
                if rng.random() < 0.5:
                    g = g * g
                yield cp.bracket(cas, g).is_zero(), lambda: f"coeffs {coeffs}"

        checks.append(_count("casimir-commutes", tkk_case, casimir_commutes()))

        def linear_bracket():
            alg = cp.alg
            for _ in range(max(3, samples // 2)):
                u = alg.from_coords([Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)])
                v = alg.from_coords([Fraction(rng.randint(-2, 2)) for _ in range(alg.dim)])
                lhs = cp.bracket(cp.linear_fn(u), cp.linear_fn(v))
                yield lhs == cp.linear_fn(alg.bracket(u, v)), lambda: "-"

        checks.append(_count("linear-functions-bracket", tkk_case, linear_bracket()))

    # octonionic stratum detection through the e7 algebra at embedded points
    vals = []
    for k in (1, 2):
        x = rank_k_sample("O", k, rng)
        vals.append(poisson_rank_at(embed_reduced_point(x)))
    checks.append(
        check("e7-embedded-rank-monotone", "e7", 2, 0 if vals[0] < vals[1] else 1, str(vals))
    )
    return checks


@register("dimension-audit")
def dimension_audit_suite(cases, samples, rng):
    lie = [tkk_algebra(c) for c in TKK_CASES]
    chains = {c: dims_projective_chain(c) for c in CLASSICAL_CASES}
    return [
        _table("jordan-dims", [JordanElement.space_dim(a) for a in ALGEBRAS], PAPER["jordan-dims"]),
        *_severi_checks("ambient-m-table", "closed-orbit-n-table"),
        _table("tkk-dims", [alg.dim for alg in lie], PAPER["tkk-dims"]),
        _table("str-dims", [alg.str_dim for alg in lie], PAPER["str-dims"]),
        _table("projective-chains", chains, PAPER["projective-chains"]),
    ]
