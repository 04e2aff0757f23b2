import random
from fractions import Fraction
from math import gcd

import pytest

from jordan_strata import jordan, linalg
from jordan_strata.bilinear import Bilinear, box
from jordan_strata.cayley_dickson import CDNumber, cd_mul, cd_mul_doubling
from jordan_strata.jordan import (
    ALGEBRAS,
    JordanElement,
    cross,
    det,
    from_general_matrix,
    from_skew_matrix,
    from_symmetric_matrix,
    jordan_mul,
    jordan_mul_matrices,
    jordan_rank,
    matrix_model_rank,
    pfaffian,
    quadratic_rep,
    rank_det_sharp,
    sharp,
    sigma2,
    to_general_matrix,
    to_skew_matrix,
    to_symmetric_matrix,
    trace,
    trace_form,
)
from jordan_strata.scalars import Scalar
from jordan_strata.strata import (
    ProjPoint,
    plucker,
    rand_cd,
    random_element,
    rank1_projective_factor,
    rank_k_sample,
    segre,
    veronese,
)


def combine_real_imag(re_part, im_part):
    """re_part + i im_part for two elements over Q."""
    if re_part.gaussian or im_part.gaussian:
        raise ValueError("real and imaginary parts must lie over Q")
    return re_part.complexify() + im_part.complexify().scale(Scalar.i())


# -- oracles for the invariants: the hermitian-matrix formulas, on the matrix
# route (jordan_mul_matrices, cd_mul_doubling), sharing no kernel with the
# cross-product tensor behind sharp, det, sigma2 and jordan_rank


def trace_form_oracle(x, y):
    acc = x.diag[0] * y.diag[0] + x.diag[1] * y.diag[1] + x.diag[2] * y.diag[2]
    for p, q in zip(x.off, y.off):
        acc = acc + (cd_mul_doubling(p, q.conjugate()) + cd_mul_doubling(q, p.conjugate())).real()
    return acc


def sharp_oracle(x):
    """x o x - tr(x) x + sigma2(x) I with sigma2 = (tr(x)^2 - T(x, x)) / 2."""
    t = trace(x)
    s2 = (t * t - trace_form_oracle(x, x)) * Scalar(Fraction(1, 2), 0, x.gaussian)
    ident = JordanElement.identity(x.algebra, x.gaussian)
    return jordan_mul_matrices(x, x) - x.scale(t) + ident.scale(s2)


def det_oracle(x):
    """abc - a N(x) - b N(y) - c N(z) + 2 Re((z x) conj(y))."""
    a, b, c = x.diag
    p, q, r = x.off  # x = X_23, y = X_13, z = X_12
    cross = cd_mul_doubling(cd_mul_doubling(r, p), q.conjugate()).real()
    return a * b * c - a * p.norm() - b * q.norm() - c * r.norm() + cross + cross


def invariant_samples(rng):
    """(algebra, gaussian, elements): small random, ranks 0-3 and 40-digit."""

    def big():  # 0 now and then, else 40-digit over unrelated denominators
        if rng.random() < 0.15:
            return Fraction(0)
        return Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40))

    for algebra in ALGEBRAS:
        dim = JordanElement.space_dim(algebra)
        for gaussian in (False, True):
            elts = [random_element(algebra, rng, gaussian) for _ in range(3)]
            ranked = [rank_k_sample(algebra, k, rng, gaussian) for k in (0, 1, 2, 3)]
            # ranks 0-3 at small height, then at 40-digit height
            elts += ranked + [x.scale(Scalar(big() or 1, 0, gaussian)) for x in ranked]
            elts += [
                JordanElement.from_coords(
                    algebra, [Scalar(big(), big() if gaussian else 0, gaussian)
                              for _ in range(dim)], gaussian
                )
            ]
            yield algebra, gaussian, elts


TAGS = [algebra + suffix for algebra in ALGEBRAS for suffix in ("", "_C")]


def classify_element(tag, rank, height):
    """U_a(x) for x of Jordan rank ``rank`` on the algebra ``tag`` and an
    invertible a whose parts have up to 1 digit ("small") or 20 ("large"),
    so a large element has about 40; rank 0 is the zero element."""
    gaussian = tag.endswith("_C")
    rng = random.Random(f"{tag}-r{rank}-{height}")
    x = rank_k_sample(tag[0], rank, rng, gaussian)
    span = 10**20 if height == "large" else 2
    while True:
        a = random_element(tag[0], rng, gaussian, span)
        if not det(a).is_zero():
            return quadratic_rep(a, x)


def test_unit_and_idempotent():
    for algebra in ALGEBRAS:
        ident = JordanElement.identity(algebra)
        e11 = JordanElement.diagonal(algebra, 1, 0, 0)
        x = random_element(algebra, random.Random(0))
        assert jordan_mul(x, ident) == x
        assert jordan_mul(e11, e11) == e11
        assert trace(ident) == Scalar(3)
        assert det(ident) == Scalar(1)
        assert sharp(ident) == ident
        assert sharp(e11).is_zero()


def test_product_is_hermitian_closed():
    rng = random.Random(1)
    for algebra in ("O",):
        for gaussian in (False, True):
            for _ in range(15):
                x = random_element(algebra, rng, gaussian)
                y = random_element(algebra, rng, gaussian)
                # from_matrix inside the matrix route validates hermitian symmetry
                jordan_mul_matrices(x, y)


def test_table_route_matches_matrix_route():
    from jordan_strata.jordan import jordan_mul_matrices as mat_route

    rng = random.Random(21)
    for algebra in ALGEBRAS:
        for gaussian in (False, True):
            for _ in range(10):
                x = random_element(algebra, rng, gaussian)
                y = random_element(algebra, rng, gaussian)
                assert jordan_mul(x, y) == mat_route(x, y)

    def big():  # 0 now and then, else 40-digit over unrelated denominators
        if rng.random() < 0.15:
            return Fraction(0)
        return Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40))

    for algebra in ALGEBRAS:
        dim = JordanElement.space_dim(algebra)
        for _ in range(3):
            x, y = (
                JordanElement.from_coords(
                    algebra, [Scalar(big(), big(), True) for _ in range(dim)], True
                )
                for _ in range(2)
            )
            assert jordan_mul(x, y) == mat_route(x, y)


def test_generated_table_matches_matrix_route_on_basis_pairs():
    for algebra in ALGEBRAS:
        basis = JordanElement.space_basis(algebra)
        for i, x in enumerate(basis):
            for y in basis[i:]:
                assert jordan_mul(x, y) == jordan_mul_matrices(x, y)


def test_table_is_generated_without_the_matrix_route(monkeypatch):
    from jordan_strata import jordan

    def refuse(x, y):
        raise AssertionError("the table must not be built from the matrix route")

    before = {a: jordan._mult_table(a) for a in ALGEBRAS}
    monkeypatch.setattr(jordan, "jordan_mul_matrices", refuse)
    jordan._mult_table.cache_clear()
    jordan.structure_tensor.cache_clear()
    rng = random.Random(23)
    for algebra in ALGEBRAS:
        assert jordan._mult_table(algebra) == before[algebra]
        x = random_element(algebra, rng, True)
        assert jordan_mul(x, JordanElement.identity(algebra, True)) == x


def test_trace_form():
    rng = random.Random(2)
    e11 = JordanElement.diagonal("O", 1, 0, 0)
    e22 = JordanElement.diagonal("O", 0, 1, 0)
    assert trace_form(e11, e22).is_zero()
    for _ in range(20):
        x = random_element("O", rng)
        y = random_element("O", rng)
        assert trace_form(x, y) == trace_form(y, x)
        if not x.is_zero():
            assert trace_form(x, x).re > 0


def test_trace_form_is_associative():
    # <x o y, z> = <x, y o z>: the identity behind the operator adjoints
    rng = random.Random(13)
    for algebra in ALGEBRAS:
        for gaussian in (False, True):
            for _ in range(8):
                x = random_element(algebra, rng, gaussian)
                y = random_element(algebra, rng, gaussian)
                z = random_element(algebra, rng, gaussian)
                assert trace_form(jordan_mul(x, y), z) == trace_form(
                    x, jordan_mul(y, z)
                )


def test_det_against_classical_oracle():
    rng = random.Random(3)
    for _ in range(60):
        x = random_element("R", rng)
        assert det(x) == linalg.determinant(to_symmetric_matrix(x))
    for _ in range(60):
        x = random_element("C", rng)
        assert det(x).to_gaussian() == linalg.determinant(to_general_matrix(x))
    assert det(JordanElement.diagonal("O", 2, 3, -5)) == Scalar(-30)


def test_adjugate_identity_all_algebras():
    rng = random.Random(4)
    for algebra in ALGEBRAS:
        ident = JordanElement.identity(algebra)
        identc = JordanElement.identity(algebra, True)
        for _ in range(15):
            x = random_element(algebra, rng)
            assert jordan_mul(x, sharp(x)) == ident.scale(det(x))
            xc = random_element(algebra, rng, gaussian=True)
            assert jordan_mul(xc, sharp(xc)) == identc.scale(det(xc))


def test_cayley_hamilton():
    rng = random.Random(5)
    for algebra in ALGEBRAS:
        ident = JordanElement.identity(algebra)
        for _ in range(10):
            x = random_element(algebra, rng)
            x2 = jordan_mul(x, x)
            x3 = jordan_mul(x2, x)
            lhs = x3 - x2.scale(trace(x)) + x.scale(sigma2(x)) - ident.scale(det(x))
            assert lhs.is_zero()


def test_jordan_identity():
    rng = random.Random(6)
    for algebra in ALGEBRAS:
        for _ in range(10):
            x = random_element(algebra, rng)
            y = random_element(algebra, rng)
            x2 = jordan_mul(x, x)
            assert jordan_mul(jordan_mul(x2, y), x) == jordan_mul(x2, jordan_mul(y, x))


def test_rank_classification():
    assert jordan_rank(JordanElement.zero("O")) == 0
    assert jordan_rank(JordanElement.diagonal("O", 1, 0, 0)) == 1
    assert jordan_rank(JordanElement.diagonal("O", 1, 1, 0)) == 2
    assert jordan_rank(JordanElement.diagonal("O", 1, 1, 1)) == 3


def test_rank_against_matrix_oracle():
    rng = random.Random(7)
    for algebra in ("R", "C", "H"):
        for k in (0, 1, 2, 3):
            for _ in range(15):
                x = rank_k_sample(algebra, k, rng)
                assert jordan_rank(x) == k
                assert matrix_model_rank(x) == k


def test_det_multiplicativity_under_quadratic_rep():
    rng = random.Random(8)
    for algebra in ALGEBRAS:
        for _ in range(8):
            a = random_element(algebra, rng, gaussian=True)
            x = random_element(algebra, rng, gaussian=True)
            assert det(quadratic_rep(a, x)) == det(a) * det(a) * det(x)


# -- oracle for the quadratic representation: the four-product formula on the
# matrix route, which reads neither the cross tensor nor the half tables


def quadratic_rep_oracle(a, x):
    """U_a(x) = 2 a o (a o x) - (a o a) o x."""
    axa = jordan_mul_matrices(a, jordan_mul_matrices(a, x))
    return axa + axa - jordan_mul_matrices(jordan_mul_matrices(a, a), x)


def test_quadratic_rep_matches_the_four_product_oracle():
    rng = random.Random(46)
    seen = set()
    for algebra, gaussian, elts in invariant_samples(rng):
        zero = JordanElement.zero(algebra, gaussian)
        # small, ranks 0-3 (singular a among them) and 40-digit elements
        for a, x in zip(elts, elts[1:] + elts[:1]):
            for y in (x, zero, a):
                assert quadratic_rep(a, y) == quadratic_rep_oracle(a, y), (algebra, gaussian)
            seen.add((algebra, gaussian, jordan_rank(a) < 3))
    assert len(seen) == 4 * 2 * 2  # every tag, with singular and invertible a


# -- oracle for the skew model: psi(X) J6 through the 2x2 block of each unit
# and a dense product, the route the closed-form blocks replaced


def _g(re, im=0):
    return Scalar(re, im, True)


QUAT_BLOCKS = (  # 1, e1, e2, e3 as 2x2 complex matrices
    ((_g(1), _g(0)), (_g(0), _g(1))),
    ((_g(0, 1), _g(0)), (_g(0), _g(0, -1))),
    ((_g(0), _g(1)), (_g(-1), _g(0))),
    ((_g(0), _g(0, 1)), (_g(0, 1), _g(0))),
)
# diag(J2, J2, J2) with J2 = [[0, 1], [-1, 0]]
J6 = tuple(
    tuple(_g((c == r + 1) - (c == r - 1)) if r // 2 == c // 2 else _g(0) for c in range(6))
    for r in range(6)
)


def psi_block(q):
    out = [[_g(0), _g(0)], [_g(0), _g(0)]]
    for c, blk in zip(q.coeffs, QUAT_BLOCKS):
        for i in range(2):
            for j in range(2):
                out[i][j] = out[i][j] + c.to_gaussian() * blk[i][j]
    return out


def skew_oracle(x):
    m = x.to_matrix()
    blocks = [[psi_block(m[i][j]) for j in range(3)] for i in range(3)]
    psi = tuple(
        tuple(e for j in range(3) for e in blocks[i][j][r]) for i in range(3) for r in range(2)
    )
    return linalg.mul(psi, J6)


def test_skew_model_matches_the_block_table_route():
    rng = random.Random(45)
    for algebra, gaussian, elts in invariant_samples(rng):
        if algebra != "H":
            continue
        for x in elts:
            a = to_skew_matrix(x)
            assert a == skew_oracle(x)
            assert all(type(e) is Scalar and e.gaussian for row in a for e in row)
            assert from_skew_matrix(a) == (x if gaussian else x.complexify())
    assert to_skew_matrix(JordanElement.identity("H")) == J6


def test_det_is_the_pfaffian_of_the_skew_model():
    # the Pfaffian cubic: an oracle for det on H sharing nothing with cross_tensor
    rng = random.Random(46)
    xs = [random_element("H", rng, gaussian) for gaussian in (True, False) for _ in range(20)]
    xs += [rank_k_sample("H", k, rng) for k in (0, 1, 2, 3) for _ in range(5)]
    for x in xs:
        assert pfaffian(to_skew_matrix(x)) == det(x).to_gaussian()


def test_symmetric_model_round_trip():
    rng = random.Random(47)
    for algebra, gaussian, elts in invariant_samples(rng):
        if algebra != "R":
            continue
        for x in elts:
            m = to_symmetric_matrix(x)
            assert all(m[i][j] == m[j][i] for i in range(3) for j in range(3))
            assert from_symmetric_matrix(m) == x
    s = lambda v: Scalar(v)
    with pytest.raises(ValueError):
        from_symmetric_matrix(((s(1), s(2), s(0)), (s(3), s(1), s(0)), (s(0), s(0), s(1))))


def test_pfaffian():
    rng = random.Random(9)
    assert pfaffian(J6) == Scalar.one(True)
    for _ in range(40):
        raw = [[Scalar(Fraction(rng.randint(-4, 4), rng.choice([1, 2])), 0, True)
                for _ in range(6)] for _ in range(6)]
        skew = tuple(
            tuple(raw[i][j] - raw[j][i] for j in range(6)) for i in range(6)
        )
        p = pfaffian(skew)
        assert p * p == linalg.determinant(skew)
    with pytest.raises(ValueError):
        pfaffian(((Scalar(1, 0, True),),))


def test_skew_model_round_trip_and_half_rank():
    rng = random.Random(10)
    for _ in range(25):
        x = random_element("H", rng, gaussian=True)
        a = to_skew_matrix(x)
        assert all(a[i][j] == -a[j][i] for i in range(6) for j in range(6))
        assert from_skew_matrix(a) == x
        assert linalg.rank(a) == 2 * jordan_rank(x)


def test_skew_model_rank_is_half_the_echelon_rank():
    # matrix_model_rank ranks the skew realification through linalg.skew_rank;
    # the echelon ranks the model over Q(i) itself
    rng = random.Random(12)
    seen = set()
    for algebra, gaussian, elts in invariant_samples(rng):
        if algebra != "H":
            continue
        for x in elts:
            k = matrix_model_rank(x)
            assert k == linalg.rank(to_skew_matrix(x)) // 2 == jordan_rank(x)
            seen.add((gaussian, k))
    assert seen == {(g, k) for g in (False, True) for k in range(4)}
    # the ring map rho: a + bi -> [[a, -b], [b, a]] does not keep the model skew
    x = rank_k_sample("H", 2, rng)
    with pytest.raises(ValueError, match="not a skew-symmetric matrix"):
        linalg.skew_rank(linalg._realify(to_skew_matrix(x)))


def test_general_matrix_model_is_jordan_isomorphism():
    rng = random.Random(11)
    half = Scalar(Fraction(1, 2), 0, True)
    for _ in range(20):
        x = random_element("C", rng, gaussian=True)
        y = random_element("C", rng, gaussian=True)
        mx, my = to_general_matrix(x), to_general_matrix(y)
        sym = linalg.scale(
            linalg.add(linalg.mul(mx, my), linalg.mul(my, mx)), half
        )
        assert to_general_matrix(jordan_mul(x, y)) == sym
        assert from_general_matrix(mx) == x


def test_sigma_triple():
    from jordan_strata.jordan import sigma

    x = JordanElement.diagonal("O", 1, 2, 3)
    s = sigma(x)
    assert (s.tr, s.sigma2, s.det) == (Scalar(6), Scalar(11), Scalar(6))
    # the generic cubic annihilates the diagonal entries
    for lam in (1, 2, 3):
        assert Scalar(lam**3) - s.tr * lam**2 + s.sigma2 * lam - s.det == Scalar(0)


@pytest.mark.parametrize("tag", TAGS)
def test_rank_det_sharp_is_the_three_invariants(tag):
    for rank in range(4):
        for height in ("small", "large"):
            x = classify_element(tag, rank, height)
            assert x.is_zero() == (rank == 0) and jordan_rank(x) == rank
            assert rank_det_sharp(x) == (rank, det(x), sharp(x))


def test_dimension_audit():
    assert [JordanElement.space_dim(a) for a in ALGEBRAS] == [6, 9, 15, 27]


def test_json_round_trip():
    rng = random.Random(12)
    for algebra in ALGEBRAS:
        for gaussian in (False, True):
            x = random_element(algebra, rng, gaussian)
            assert JordanElement.from_json(x.to_json()) == x


def test_invariants_match_matrix_route_oracles():
    rng = random.Random(41)
    seen_ranks = set()
    for algebra, gaussian, elts in invariant_samples(rng):
        for x in elts:
            sx, dx = sharp_oracle(x), det_oracle(x)
            assert sharp(x) == sx, (algebra, gaussian, x)
            assert det(x) == dx, (algebra, gaussian, x)
            assert sigma2(x) == trace(sx)
            assert trace_form(x, x) == trace_form_oracle(x, x)
            rank = 0 if x.is_zero() else 1 if sx.is_zero() else 2 if dx.is_zero() else 3
            assert jordan_rank(x) == rank
            seen_ranks.add((algebra, gaussian, rank))
    assert len(seen_ranks) == 4 * 2 * 4


def test_trace_form_matches_oracle_on_pairs():
    rng = random.Random(42)
    for algebra, gaussian, elts in invariant_samples(rng):
        for x, y in zip(elts, elts[1:] + elts[:1]):
            assert trace_form(x, y) == trace_form_oracle(x, y)


def test_sharp_polarization_is_twice_the_cross_product():
    # sharp(x + h) - sharp(x) - sharp(h) = 2 x × h, the linearization of sharp
    rng = random.Random(43)
    for algebra, gaussian, elts in invariant_samples(rng):
        small = elts[:7]  # the 40-digit elements are covered by the oracle test
        oracle = [sharp_oracle(x) for x in small]
        for i, x in enumerate(small):
            j = (i + 2) % len(small)
            h = small[j]
            lhs = sharp_oracle(x + h) - oracle[i] - oracle[j]
            assert cross(x, h) + cross(x, h) == lhs
            assert sharp(x + h) - sharp(x) - sharp(h) == lhs


def test_cross_tensor_is_built_lazily():
    # structure_tensor (and so the first jordan_mul) must not pay for it
    jordan.cross_tensor.cache_clear()
    jordan.structure_tensor.cache_clear()
    x = random_element("O", random.Random(44), True)
    jordan_mul(x, x)
    assert jordan.cross_tensor.cache_info().currsize == 0
    jordan_rank(x)
    assert jordan.cross_tensor.cache_info().currsize == 1


# -- storage: one integer vector over one denominator, whatever the route


def assert_same(x, y):
    """Equal values: equal, equal hashes, one storage, and that storage canonical."""
    assert x == y and hash(x) == hash(y)
    assert (x.algebra, x.gaussian, x.v, x.den) == (y.algebra, y.gaussian, y.v, y.den)
    assert type(x.v) is tuple and x.den > 0
    assert gcd(x.den, *x.v) == 1


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("gaussian", [False, True])
def test_coords_are_the_boxed_integers(algebra, gaussian):
    # coords() boxes the stored integers on each read, whichever route made
    # the value (the constructor, an engine result, a sum)
    rng = random.Random(700 + 2 * ALGEBRAS.index(algebra) + gaussian)
    dim = JordanElement.space_dim(algebra)
    big = lambda: Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40))
    tall = JordanElement.from_coords(
        algebra, [Scalar(big(), big() if gaussian else 0, gaussian) for _ in range(dim)], gaussian
    )
    x, y = random_element(algebra, rng, gaussian), random_element(algebra, rng, gaussian)
    for z in (x, tall, jordan_mul(x, y), jordan_mul(tall, x), x + tall,
              JordanElement(algebra, tall.diag, tall.off)):
        c = z.coords()
        assert c == box(z.v, z.den, z.gaussian)
        assert len(c) == dim and all(type(s) is Scalar and s.gaussian == gaussian for s in c)


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("gaussian", [False, True])
def test_storage_is_canonical_whatever_the_route(algebra, gaussian):
    rng = random.Random(500 + 2 * ALGEBRAS.index(algebra) + gaussian)
    dim = JordanElement.space_dim(algebra)
    zero = JordanElement.zero(algebra, gaussian)
    half, two = (Scalar(c, 0, gaussian) for c in (Fraction(1, 2), 2))

    def tall():  # 40-digit coordinates over unrelated denominators
        big = lambda: Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40))
        coords = [Scalar(big(), big() if gaussian else 0, gaussian) for _ in range(dim)]
        return JordanElement.from_coords(algebra, coords, gaussian)

    for make in (lambda: random_element(algebra, rng, gaussian), tall):
        for _ in range(2):
            x, y = make(), make()
            assert_same(JordanElement(algebra, x.diag, x.off), x)
            assert_same(JordanElement.from_coords(algebra, x.coords(), gaussian), x)
            assert_same(JordanElement.from_json(x.to_json()), x)
            assert_same(x - x, zero)
            assert x.is_zero() == (x == zero)
            assert_same(x + y - y, x)
            assert_same(y + x, x + y)
            assert_same(-(-x), x)
            prod = jordan_mul(x, y)
            assert_same(prod, jordan_mul_matrices(x, y))
            assert_same(JordanElement(algebra, prod.diag, prod.off), prod)
            assert_same(cross(x, y), cross(y, x))
            assert_same(cross(x, x), sharp_oracle(x))
            assert_same(x.scale(half).scale(two), x)
            assert_same(x.scale(Scalar(0, 0, gaussian)), zero)
            if gaussian:
                re, im = x.split_real_imag()
                assert_same(re, JordanElement.from_coords(algebra, [Scalar(c.re) for c in x.coords()]))
                assert_same(im, JordanElement.from_coords(algebra, [Scalar(c.im) for c in x.coords()]))
                assert_same(combine_real_imag(re, im), x)
            else:
                cx = x.complexify()
                assert_same(cx, JordanElement(algebra, [s.to_gaussian() for s in x.diag],
                                              [q.complexify() for q in x.off]))
                assert_same(combine_real_imag(x, zero), cx)
                assert_same(cx.split_real_imag()[0], x)
    # equal integer vectors over different denominators are different values
    one = JordanElement.identity(algebra, gaussian)
    a, b = (one.scale(Fraction(1, d)) for d in (2, 3))
    assert a.v == b.v and a != b
    # a product whose integers share a factor with its denominator
    assert_same(jordan_mul(a, one.scale(2)), one)


def test_repr_and_json_are_pinned():
    x = JordanElement(
        "C",
        [Scalar(Fraction(1, 2)), Scalar(-3), Scalar(0)],
        [CDNumber(1, [Scalar(1), Scalar(Fraction(-4, 6))]), CDNumber.zero(1),
         CDNumber(1, [Scalar(0), Scalar(5)])],
    )
    assert repr(x) == (
        "JordanElement(C, diag=['1/2', '-3', '0'], off=(CDNumber(1, ['1', '-2/3']), "
        "CDNumber(1, ['0', '0']), CDNumber(1, ['0', '5'])))"
    )
    assert x.to_json() == {
        "algebra": "C", "complexified": False, "diag": [[1, 2], [-3, 1], [0, 1]],
        "off": [{"level": 1, "coeffs": [[1, 1], [-2, 3]]}, {"level": 1, "coeffs": [[0, 1], [0, 1]]},
                {"level": 1, "coeffs": [[0, 1], [5, 1]]}],
    }
    k = jordan_mul(x, x)  # views boxed from an engine result
    assert repr(k) == (
        "JordanElement(C, diag=['101/4', '319/9', '13/9'], off=(CDNumber(1, ['-3', '2']), "
        "CDNumber(1, ['10/3', '5']), CDNumber(1, ['0', '-25/2'])))"
    )
    assert k.to_json() == {
        "algebra": "C", "complexified": False, "diag": [[101, 4], [319, 9], [13, 9]],
        "off": [{"level": 1, "coeffs": [[-3, 1], [2, 1]]}, {"level": 1, "coeffs": [[10, 3], [5, 1]]},
                {"level": 1, "coeffs": [[0, 1], [-25, 2]]}],
    }
    g = JordanElement.diagonal("R", Scalar(Fraction(1, 2), Fraction(-2, 3), True), 0, 1, gaussian=True)
    h = cross(g, JordanElement.identity("R", True))
    assert repr(h) == (
        "JordanElement(R, diag=['(1/2+0i)', '(3/4-1/3i)', '(1/4-1/3i)'], off=(CDNumber(0, "
        "['(0+0i)']), CDNumber(0, ['(0+0i)']), CDNumber(0, ['(0+0i)'])))"
    )
    zero = {"level": 0, "coeffs": [[[0, 1], [0, 1]]]}
    assert h.to_json() == {
        "algebra": "R", "complexified": True,
        "diag": [[[1, 2], [0, 1]], [[3, 4], [-1, 3]], [[1, 4], [-1, 3]]], "off": [zero] * 3,
    }
    assert repr(JordanElement.zero("H")) == (
        "JordanElement(H, diag=['0', '0', '0'], off=(CDNumber(2, ['0', '0', '0', '0']), "
        "CDNumber(2, ['0', '0', '0', '0']), CDNumber(2, ['0', '0', '0', '0'])))"
    )


def test_immutable():
    rng = random.Random(13)
    x, y = random_element("O", rng, True), random_element("O", rng, True)
    before = (x.v, x.den, y.v, y.den)
    for name in ("algebra", "gaussian", "v", "den", "diag", "off"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    x + y, x - y, -x, jordan_mul(x, y), cross(x, y), x.scale(Scalar(3, 1, True))
    x.split_real_imag(), x.coords(), x.to_json()
    assert (x.v, x.den, y.v, y.den) == before
    assert type(x.v) is tuple and type(x.diag) is tuple and type(x.off) is tuple


# -- the matrix models on the stored integers against the Scalar formulas they
# replaced, entry by entry and read from the diag and off views; the models
# share the integer tables, so these oracles check the tables themselves

_HALF, _IHALF, _I = Scalar(Fraction(1, 2), 0, True), Scalar(0, Fraction(-1, 2), True), Scalar.i()


def symmetric_oracle(x):
    (a, b, c), (p, q, r) = x.diag, (o.real() for o in x.off)
    return ((a, r, q), (r, b, p), (q, p, c))


def general_oracle(x):
    m = x.to_matrix()
    lift = lambda q: Scalar(q.coeffs[0].re - q.coeffs[1].im, q.coeffs[0].im + q.coeffs[1].re, True)
    return tuple(tuple(lift(m[i][j]) for j in range(3)) for i in range(3))


def from_symmetric_oracle(m):
    off = (m[1][2], m[0][2], m[0][1])
    return JordanElement("R", (m[0][0], m[1][1], m[2][2]), (CDNumber(0, (s,)) for s in off))


def from_general_oracle(m):
    rows = tuple(
        tuple(
            CDNumber(1, ((m[i][j] + m[j][i]) * _HALF, (m[i][j] - m[j][i]) * _IHALF))
            for j in range(3)
        )
        for i in range(3)
    )
    return JordanElement.from_matrix("C", rows)


def from_skew_oracle(a):
    """Block [[p, b], [c, d]] is (b - c)/2 + (b + c)/(2i) e1 - (p + d)/2 e2 + (d - p)/(2i) e3."""

    def quaternion(i, j):
        (p, b), (c, d) = a[2 * i][2 * j : 2 * j + 2], a[2 * i + 1][2 * j : 2 * j + 2]
        return CDNumber(2, ((b - c) * _HALF, (b + c) * _IHALF, -(p + d) * _HALF, (d - p) * _IHALF))

    diag = tuple(a[2 * k][2 * k + 1] for k in range(3))
    return JordanElement("H", diag, (quaternion(1, 2), quaternion(0, 2), quaternion(0, 1)))


def _gauss_vec(v):
    return tuple(
        c.to_gaussian() if isinstance(c, Scalar) else Scalar(Fraction(c), 0, True) for c in v
    )


def veronese_oracle(v):
    v = _gauss_vec(v)
    return from_symmetric_oracle(tuple(tuple(a * b for b in v) for a in v))


def segre_oracle(u, w):
    u, w = _gauss_vec(u), _gauss_vec(w)
    return from_general_oracle(tuple(tuple(u[i] * w[j] for j in range(3)) for i in range(3)))


def plucker_oracle(u, w):
    u, w = _gauss_vec(u), _gauss_vec(w)
    return from_skew_oracle(tuple(tuple(u[i] * w[j] - u[j] * w[i] for j in range(6)) for i in range(6)))


MODELS = {  # algebra -> (to, from, the oracle of to, the oracle of from)
    "R": (to_symmetric_matrix, from_symmetric_matrix, symmetric_oracle, from_symmetric_oracle),
    "C": (to_general_matrix, from_general_matrix, general_oracle, from_general_oracle),
    "H": (to_skew_matrix, from_skew_matrix, skew_oracle, from_skew_oracle),
}
EMBEDDINGS = {"veronese": (veronese, veronese_oracle), "segre": (segre, segre_oracle),
              "plucker": (plucker, plucker_oracle)}


def large_model_elements():
    """(tag, k, x): ``classify_element`` at 40-digit height, R, C and H over both rings."""
    for tag in ("R", "R_C", "C", "C_C", "H", "H_C"):
        for k in range(4):
            yield tag, k, classify_element(tag, k, "large")


def test_models_at_40_digit_height():
    for tag, k, x in large_model_elements():
        to, back, to_oracle, back_oracle = MODELS[tag[0]]
        m = to(x)
        assert m == to_oracle(x), tag
        # off R the model lives over Q(i), so a rational element comes back complexified
        same = x if x.gaussian or tag == "R" else x.complexify()
        assert back(m) == back_oracle(m) == same, tag
        assert matrix_model_rank(x) == jordan_rank(x) == k, tag


def test_rank_one_factors_at_40_digit_height():
    kinds = {"R": "veronese", "C": "segre", "H": "plucker"}
    for tag, k, x in large_model_elements():
        xc = x.complexify()
        factor = rank1_projective_factor(xc)
        if k != 1:
            assert factor is None, tag
            continue
        kind, data = factor
        assert kind == kinds[tag[0]]
        vectors = [data] if kind == "veronese" else data
        assert ProjPoint(EMBEDDINGS[kind][0](*vectors)) == ProjPoint(xc), tag


def big_gaussian(rng):
    """A Gaussian rational with 40-digit parts over unrelated denominators, or now and
    then a bare integer or a rational Scalar."""
    part = lambda: Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40))
    roll = rng.random()
    if roll < 0.1:
        return rng.randint(-3, 3)
    if roll < 0.2:
        return Scalar(part())
    return Scalar(part(), part(), True)


def test_embeddings_match_the_scalar_formulas_at_40_digit_height():
    rng = random.Random(29)
    for kind, (embedding, oracle) in EMBEDDINGS.items():
        count, length = {"veronese": (1, 3), "segre": (2, 3), "plucker": (2, 6)}[kind]
        for _ in range(12):
            vectors = [[big_gaussian(rng) for _ in range(length)] for _ in range(count)]
            x = embedding(*vectors)
            assert x == oracle(*vectors) and jordan_rank(x) == 1, kind
    u = [big_gaussian(rng) for _ in range(6)]
    with pytest.raises(ValueError, match="dependent"):
        plucker(u, [c * 3 for c in u])
    with pytest.raises(ValueError, match="zero vector"):
        segre([0, 0, 0], [1, 2, 3])


def test_the_models_read_no_structure_table(monkeypatch):
    # the models never reach the bilinear engine behind jordan_rank, so a wrong
    # structure table cannot agree with itself through matrix_model_rank
    elements = list(large_model_elements())
    factors = [rank1_projective_factor(x.complexify()) for _, _, x in elements]
    rng = random.Random(30)
    vectors = {
        kind: [[big_gaussian(rng) for _ in range(n)] for _ in range(count)]
        for kind, (count, n) in {"veronese": (1, 3), "segre": (2, 3), "plucker": (2, 6)}.items()
    }
    embedded = {kind: EMBEDDINGS[kind][1](*vs) for kind, vs in vectors.items()}

    def broken(*args, **kwargs):
        raise RuntimeError("structure table read")

    for name in ("square", "product", "contract", "left"):
        monkeypatch.setattr(Bilinear, name, broken)
    for (tag, k, x), factor in zip(elements, factors):
        to, back, _, _ = MODELS[tag[0]]
        assert matrix_model_rank(x) == k, tag
        assert back(to(x)) == (x if x.gaussian or tag == "R" else x.complexify()), tag
        assert rank1_projective_factor(x.complexify()) == factor, tag
    for kind, vs in vectors.items():
        assert EMBEDDINGS[kind][0](*vs) == embedded[kind]
    with pytest.raises(RuntimeError):
        jordan_rank(elements[-1][2])


def test_the_oracles_read_no_structure_table(monkeypatch):
    # cd_mul_doubling, jordan_mul_matrices and the cofactor determinant are the
    # oracles of cd_mul, jordan_mul and det, so they must answer without the
    # bilinear engine behind those routes
    rng = random.Random(31)
    rings = (False, True)
    cd_pairs = [
        (rand_cd(level, rng, g), rand_cd(level, rng, g)) for level in range(4) for g in rings
    ]
    pairs = [
        (random_element(a, rng, g), random_element(a, rng, g)) for a in ALGEBRAS for g in rings
    ]
    models = [(a, random_element(a, rng, g)) for a in ("R", "C") for g in rings for _ in range(3)]
    cd_products = [cd_mul(a, b) for a, b in cd_pairs]
    products = [jordan_mul(x, y) for x, y in pairs]
    dets = [det(x).to_gaussian() for _, x in models]

    def broken(*args, **kwargs):
        raise RuntimeError("structure table read")

    for name in ("square", "product", "contract", "left"):
        monkeypatch.setattr(Bilinear, name, broken)
    assert [cd_mul_doubling(a, b) for a, b in cd_pairs] == cd_products
    assert [jordan_mul_matrices(x, y) for x, y in pairs] == products
    model = {"R": to_symmetric_matrix, "C": to_general_matrix}
    assert [linalg.determinant(model[a](x)).to_gaussian() for a, x in models] == dets
    for route, args in ((cd_mul, cd_pairs[-1]), (jordan_mul, pairs[-1]), (det, models[-1][1:])):
        with pytest.raises(RuntimeError):
            route(*args)
