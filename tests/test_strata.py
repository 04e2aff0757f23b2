import hashlib
import json
import random
from fractions import Fraction

import pytest

from jordan_strata import linalg, reduction
from jordan_strata.cayley_dickson import CDNumber
from jordan_strata.jordan import (
    JordanElement,
    det,
    from_symmetric_matrix,
    jordan_rank,
    sharp,
    to_symmetric_matrix,
    trace_form,
)
from jordan_strata.lifts import liftable_sample
from jordan_strata.scalars import Scalar
from jordan_strata.strata import (
    MAX_DRAWS,
    ProjPoint,
    SamplerExhausted,
    chord,
    closed_orbit_tangent_dim,
    closure_chain_audit,
    cubic_gradient,
    det_curve_coefficients,
    plucker,
    rand_cd,
    rand_cd_matrix,
    rand_scalar,
    rank1_sample,
    rank_k_sample,
    random_element,
    segre,
    veronese,
)

ALGEBRAS = ("R", "C", "H", "O")


def rank1_factor_symmetric(x: JordanElement):
    """Recover v with x = v v^T for a rank-one complexified symmetric element.

    Returns None when the element is not in the image of the Veronese map
    over Q(i) (the pivot must be a Gaussian square).
    """
    m = to_symmetric_matrix(x.complexify() if not x.gaussian else x)
    for i in range(3):
        if not m[i][i].is_zero():
            root = m[i][i].sqrt()
            if root is None:
                return None
            inv = root.inverse()
            v = tuple(m[i][j] * inv for j in range(3))
            ok = all(m[r][c] == v[r] * v[c] for r in range(3) for c in range(3))
            return v if ok else None
    return None


def test_proj_point_equality_is_proportionality():
    rng = random.Random(0)
    x = rank1_sample("O", rng)
    lam = Scalar(Fraction(3, 2), Fraction(-1, 3), True)
    assert ProjPoint(x) == ProjPoint(x.scale(lam))
    assert hash(ProjPoint(x)) == hash(ProjPoint(x.scale(lam)))
    assert len({ProjPoint(x.scale(Scalar(k, Fraction(1, 5), True))) for k in range(-3, 4)}) == 1
    y = rank1_sample("O", rng)
    if ProjPoint(x) != ProjPoint(y):
        assert hash(ProjPoint(x)) != hash(ProjPoint(y)) or True
    with pytest.raises(ValueError):
        ProjPoint(JordanElement.zero("O", gaussian=True))


def test_rand_cd_matrix_draws_row_by_row():
    for level in (0, 1, 2):
        a, b = random.Random(level), random.Random(level)
        m = rand_cd_matrix(level, 3, 2, a)
        assert m == tuple(tuple(rand_cd(level, b) for _ in range(2)) for _ in range(3))
        assert a.getstate() == b.getstate()


def stratify(x: JordanElement) -> int:
    """Jordan rank; constant on punctured lines through the origin."""
    return jordan_rank(x)


def test_stratify_basics():
    rng = random.Random(1)
    assert stratify(JordanElement.zero("O", gaussian=True)) == 0
    assert stratify(veronese([1, 0, 0])) == 1
    # random elements are generically rank 3
    hits = sum(
        1 for _ in range(25) if stratify(random_element("O", rng, gaussian=True)) == 3
    )
    assert hits >= 20
    # scale invariance
    x = rank_k_sample("H", 2, rng)
    assert stratify(x.scale(Scalar(5, -7, True))) == 2


def test_veronese():
    assert veronese([1, 0, 0]) == JordanElement.diagonal("R", 1, 0, 0, gaussian=True)
    rng = random.Random(2)
    for _ in range(15):
        v = [rng.randint(-4, 4) for _ in range(3)]
        if not any(v):
            v[0] = 1
        x = veronese(v)
        assert jordan_rank(x) == 1
        f = rank1_factor_symmetric(x)
        assert f is not None
    with pytest.raises(ValueError):
        veronese([0, 0, 0])


def test_segre():
    from jordan_strata.jordan import to_general_matrix

    x = segre([1, 0, 0], [0, 1, 0])
    m = to_general_matrix(x)
    assert m[0][1] == Scalar.one(True)
    assert sum(1 for i in range(3) for j in range(3) if not m[i][j].is_zero()) == 1
    assert jordan_rank(x) == 1
    rng = random.Random(3)
    for _ in range(15):
        u = [rng.randint(-3, 3) for _ in range(3)]
        w = [rng.randint(-3, 3) for _ in range(3)]
        if not any(u):
            u[0] = 1
        if not any(w):
            w[1] = 1
        assert jordan_rank(segre(u, w)) == 1


def test_plucker():
    e = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    x = plucker(e[0], e[1])
    assert jordan_rank(x) == 1
    from jordan_strata.jordan import to_skew_matrix
    from jordan_strata import linalg

    assert linalg.rank(to_skew_matrix(x)) == 2
    rng = random.Random(4)
    for _ in range(10):
        u = [rng.randint(-3, 3) for _ in range(6)]
        w = [rng.randint(-3, 3) for _ in range(6)]
        try:
            x = plucker(u, w)
        except ValueError:
            continue
        assert jordan_rank(x) == 1
    with pytest.raises(ValueError):
        plucker(e[0], e[0])


def test_rank1_sample():
    rng = random.Random(5)
    for algebra in ALGEBRAS:
        for _ in range(10):
            x = rank1_sample(algebra, rng)
            assert not x.is_zero()
            assert sharp(x).is_zero()


def test_chord_properties():
    rng = random.Random(6)
    e11 = ProjPoint(JordanElement.diagonal("O", 1, 0, 0, gaussian=True))
    e22 = ProjPoint(JordanElement.diagonal("O", 0, 1, 0, gaussian=True))
    c = chord(e11, e22, Scalar.one(True), Scalar.one(True))
    assert c.stratum() == 2 and det(c.rep).is_zero()
    for algebra in ALGEBRAS:
        for _ in range(10):
            p = ProjPoint(rank1_sample(algebra, rng))
            q = ProjPoint(rank1_sample(algebra, rng))
            lam, mu = Scalar(2, 1, True), Scalar(-1, 3, True)
            assert det(chord(p, q, lam, mu).rep).is_zero()
    with pytest.raises(ValueError):
        chord(e11, e22, Scalar.zero(True), Scalar.zero(True))
    rank2 = ProjPoint(JordanElement.diagonal("O", 1, 1, 0, gaussian=True))
    with pytest.raises(ValueError):
        chord(rank2, e22, Scalar.one(True), Scalar.one(True))


def test_generic_triple_sum_escapes_cubic():
    rng = random.Random(7)
    for algebra in ALGEBRAS:
        found = False
        for _ in range(20):
            x = (
                rank1_sample(algebra, rng)
                + rank1_sample(algebra, rng)
                + rank1_sample(algebra, rng)
            )
            if not det(x).is_zero():
                found = True
                break
        assert found, algebra


def test_gradient_is_adjugate_by_interpolation():
    rng = random.Random(8)
    for algebra in ALGEBRAS:
        for _ in range(8):
            x = random_element(algebra, rng, gaussian=True)
            h = random_element(algebra, rng, gaussian=True)
            c0, c1, c2, c3 = det_curve_coefficients(x, h)
            assert c0 == det(x)
            assert c3 == det(h)
            assert c1 == trace_form(sharp(x), h)


def test_gradient_vanishing_is_rank_le_one():
    rng = random.Random(9)
    for algebra in ALGEBRAS:
        for k in (0, 1, 2, 3):
            x = rank_k_sample(algebra, k, rng)
            assert cubic_gradient(x).is_zero() == (k <= 1)


def test_closure_chain_audit():
    rng = random.Random(10)
    rep = closure_chain_audit(rng, samples=3)
    assert rep["rank_never_exceeds"]
    assert rep["rank_drop_witnessed"]


def test_closed_orbit_tangent_dims():
    assert [closed_orbit_tangent_dim(a) for a in ALGEBRAS] == [3, 5, 9, 17]


def test_closed_orbit_tangent_dims_are_ranked_once(monkeypatch):
    ranks = []

    def counted_rank(m):
        ranks.append(len(m[0]))
        return frac_rank(m)

    frac_rank = linalg.frac_rank
    monkeypatch.setattr(linalg, "frac_rank", counted_rank)
    assert [closed_orbit_tangent_dim(a) for a in ALGEBRAS] == [3, 5, 9, 17]
    assert ranks == [6, 9, 15, 27]  # one rank of the cross operator at E11 per algebra


def test_image_characterization_reverse():
    # every rank-one element factors projectively through its embedding
    rng = random.Random(12)
    from jordan_strata.strata import rank1_projective_factor

    expected = {"R": "veronese", "C": "segre", "H": "plucker"}
    for algebra, kind in expected.items():
        for _ in range(10):
            x = rank1_sample(algebra, rng)
            factor = rank1_projective_factor(x)
            assert factor is not None and factor[0] == kind
        y = rank_k_sample(algebra, 2, rng)
        assert rank1_projective_factor(y) is None
    # the closing projective test decides the rank: zero, rank two and three
    # (a zero diagonal over R included) all give None
    o, one = Scalar.zero(True), Scalar(1, 0, True)
    off_diagonal = from_symmetric_matrix(((o, one, o), (one, o, o), (o, o, o)))
    assert jordan_rank(off_diagonal) == 2
    others = [off_diagonal] + [
        rank_k_sample(algebra, k, rng) for algebra in expected for k in (0, 2, 3)
    ]
    for y in others:
        assert rank1_projective_factor(y) is None
    with pytest.raises(ValueError, match="octonionic"):
        rank1_projective_factor(rank_k_sample("O", 2, rng))


def test_proj_point_json():
    rng = random.Random(11)
    p = ProjPoint(rank1_sample("H", rng))
    obj = p.to_json()
    assert obj["projective"] is True
    assert ProjPoint.from_json(obj) == p


class _StuckRandom:
    """A degenerate random source: randint always 0, choice always the first item."""

    def randint(self, a, b):
        return 0

    def choice(self, seq):
        return seq[0]


def test_rejection_samplers_give_up_on_a_stuck_source():
    stuck = _StuckRandom()
    samplers = {
        "strata.rank1_sample": lambda: rank1_sample("O", stuck),
        "strata.rank_k_sample": lambda: rank_k_sample("H", 2, stuck),
        "lifts._real_liftable": lambda: liftable_sample("real", 2, 3, stuck),
        "lifts._quat_liftable": lambda: liftable_sample("quaternionic", 1, 3, stuck),
        "reduction._g_block_diag": lambda: reduction._g_block_diag("quaternionic", stuck),
        "reduction.zero_level_sample": lambda: reduction.zero_level_sample("complex", 3, 2, stuck),
    }
    for name, draw in samplers.items():
        with pytest.raises(SamplerExhausted) as info:
            draw()
        assert name in str(info.value) and str(MAX_DRAWS) in str(info.value)


def scalar_route_draw(rng, gaussian, span):
    """One coordinate the way the samplers drew it on Scalars: the real part
    as an integer in [-span, span] over 1 or 2, then likewise the imaginary
    part over Q(i)."""
    re = Fraction(rng.randint(-span, span), rng.choice([1, 2]))
    if gaussian:
        return Scalar(re, Fraction(rng.randint(-span, span), rng.choice([1, 2])), True)
    return Scalar(re)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_integer_draws_match_the_scalar_route_draw_for_draw(seed):
    for gaussian in (False, True):
        for span in (2, 3):
            new, old = random.Random(seed), random.Random(seed)
            for _ in range(3):
                for level in range(4):
                    x = rand_cd(level, new, gaussian, span)
                    coeffs = [scalar_route_draw(old, gaussian, span) for _ in range(1 << level)]
                    y = CDNumber(level, coeffs)
                    assert (x.v, x.den) == (y.v, y.den) and x.coeffs == y.coeffs
                    assert repr(x) == repr(y) and x.to_json() == y.to_json()
                    assert new.getstate() == old.getstate()
                for algebra in ALGEBRAS:
                    x = random_element(algebra, new, gaussian, span)
                    coords = [
                        scalar_route_draw(old, gaussian, span)
                        for _ in range(JordanElement.space_dim(algebra))
                    ]
                    y = JordanElement.from_coords(algebra, coords, gaussian)
                    assert (x.v, x.den) == (y.v, y.den) and x.coords() == tuple(coords)
                    assert repr(x) == repr(y) and x.to_json() == y.to_json()
                    assert new.getstate() == old.getstate()
                s = rand_scalar(new, gaussian, span)
                t = scalar_route_draw(old, gaussian, span)
                assert (s.re, s.im, s.gaussian, str(s)) == (t.re, t.im, t.gaussian, str(t))
                assert new.getstate() == old.getstate()


CASES = ("real", "complex", "quaternionic")

# A few outputs of each public sampler, all drawn from one rng.
SAMPLER_DRAWS = {
    "rand_scalar": lambda rng: [rand_scalar(rng, g, span) for g in (False, True) for span in (2, 3)],
    "rand_cd": lambda rng: [rand_cd(level, rng, g) for level in range(4) for g in (False, True)],
    "rand_cd_matrix": lambda rng: [rand_cd_matrix(level, 2, 3, rng) for level in range(4)],
    "random_element": lambda rng: [
        random_element(a, rng, g) for a in ALGEBRAS for g in (False, True)
    ],
    "rank_k_sample": lambda rng: [rank_k_sample(a, k, rng) for a in ALGEBRAS for k in (1, 2, 3)],
    "rank1_sample": lambda rng: [rank1_sample(a, rng) for a in ALGEBRAS],
    "zero_level_sample": lambda rng: [
        reduction.zero_level_sample(c, 3, k, rng) for c in CASES for k in (1, 2, 3)
    ],
    "h_group_element": lambda rng: [
        [reduction.h_group_element(c, 3, rng) for _ in range(2)] for c in CASES
    ],
    "g_group_element": lambda rng: [
        [reduction.g_group_element(c, rng) for _ in range(2)] for c in CASES
    ],
    "oscillator_sample": lambda rng: [reduction.oscillator_sample(3, k, rng) for k in range(4)],
    "liftable_sample": lambda rng: [liftable_sample(c, k, 2, rng) for c in CASES for k in (1, 2)],
}

# sha256 of the JSON of those outputs, seed 0 then seed 1.
SAMPLER_SHA256 = {
    "g_group_element": "08ea344120615bf070a576f612dbd5e9be7e975b03005f6f2922a32da275f740",
    "h_group_element": "6818025010f4700925e73700adff36295be6eca6726b7676f53aed442d63f26e",
    "liftable_sample": "9890d8b34f23fbb5e578acc7f49832c6d5e9836bac583708bb1e7f054145b10e",
    "oscillator_sample": "a60bd61b806a1b00cecab5f0992fd40ef8594e58e70f0c1d98c848d15133dda8",
    "rand_cd": "f634358d24506b9fbd095a011198d143658a35d573e768551d0138ba4e940ed4",
    "rand_cd_matrix": "c4e54002a05df7b213a183e1fa816ec6b31d6571a554c3c42e2902bb5ace34e1",
    "rand_scalar": "9d0833672e405372c6181adf8ea8000b38c6d4743516e2078ec24b73ded9ac69",
    "random_element": "934c3f6b23acb3701ff5e1a374e0b05599f74a4de46a7395420303883cec20b5",
    "rank1_sample": "fc1ee0551bda9c58c47cf9976cba31164e96533527e3680ba1cbddfb0cef4041",
    "rank_k_sample": "08522864817f96db43f470e9383f231990afbef884b46e0e7ed273ddaeb0ea26",
    "zero_level_sample": "f56ba82273b25161f9d7f1911ec4e64d98cfd745dde29d992b919c41287cf031",
}


def _encode(x):
    if hasattr(x, "to_json"):
        return x.to_json()
    return [_encode(y) for y in x]


@pytest.mark.parametrize("name", sorted(SAMPLER_DRAWS))
def test_sampler_draws_are_pinned(name):
    # the report digests hold counts only, and a final rng state cannot see
    # the same values drawn into other places, so pin the values themselves
    out = [_encode(SAMPLER_DRAWS[name](random.Random(seed))) for seed in (0, 1)]
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == SAMPLER_SHA256[name]
