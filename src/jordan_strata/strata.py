"""Rank stratification of the complexified Jordan algebras and the closed
rank-one orbit: projective points, the three classical homogeneous embeddings,
chords of the rank-one locus, and the gradient of the cubic norm.

Everything is projective-exact: proportionality over Q(i) is decided by
cross-multiplication, and all rank and gradient statements are zero tests in
exact arithmetic.  The embeddings and ``rank1_projective_factor`` work on the
classical models of ``jordan`` as Gaussian integers over one denominator:
v v^T, u w^T and u ^ w are formed there and mapped back by the models'
inverse, with no Scalar arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import linalg
from .bilinear import box, over_lcm
from .cayley_dickson import CDNumber
from .jordan import (
    JordanElement,
    _from_model_ints,
    _model_ints,
    cross_tensor,
    det,
    invertible_quadratic_rep,
    jordan_rank,
    quadratic_rep,
    sharp,
)
from .scalars import Scalar

# Draws a rejection sampler may make before it gives up.  Every sampler here
# accepts most draws, so an honest stream needs a handful; only a degenerate
# random source comes near this.
MAX_DRAWS = 1000


class SamplerExhausted(RuntimeError):
    """A rejection sampler made MAX_DRAWS draws and accepted none."""


def draws(sampler: str):
    """The attempts of a rejection loop: MAX_DRAWS of them, then an error."""
    yield from range(MAX_DRAWS)
    raise SamplerExhausted(f"{sampler}: no acceptable draw in {MAX_DRAWS} attempts")


class ProjPoint:
    """A point of P(J_C): a nonzero complexified element up to scale."""

    __slots__ = ("rep",)

    def __init__(self, rep: JordanElement):
        if not rep.gaussian:
            raise ValueError("projective points live on the complexified algebra")
        if rep.is_zero():
            raise ValueError("zero vector does not define a projective point")
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    def _gaussian_ints(self):
        """The coordinates of the representative as Gaussian integers
        (re, im), up to its denominator, a positive factor no projective
        test sees."""
        v = self.rep.v
        n = len(v) // 2
        return list(zip(v[:n], v[n:]))

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        if self.rep.algebra != other.rep.algebra:
            return False
        ca, cb = self._gaussian_ints(), other._gaussian_ints()
        pivot = next(i for i, c in enumerate(ca) if c != (0, 0))
        (lr, li), (mr, mi) = cb[pivot], ca[pivot]
        if not (lr or li):
            return False
        # cb[pivot] * ca == ca[pivot] * cb, cross-multiplied in Gaussian integers
        return all(
            lr * xr - li * xi == mr * yr - mi * yi and lr * xi + li * xr == mr * yi + mi * yr
            for (xr, xi), (yr, yi) in zip(ca, cb)
        )

    def __hash__(self):
        # times the conjugate of the first nonzero coordinate, which makes
        # that coordinate positive real, then over the content of the result
        coords = self._gaussian_ints()
        pr, pi = next(c for c in coords if c != (0, 0))
        w = [c for xr, xi in coords for c in (pr * xr + pi * xi, pr * xi - pi * xr)]
        g = gcd(*w)
        return hash((self.rep.algebra, tuple(c // g for c in w)))

    def __repr__(self):
        return f"ProjPoint({self.rep!r})"

    def stratum(self) -> int:
        return jordan_rank(self.rep)

    def to_json(self):
        obj = self.rep.to_json()
        obj["projective"] = True
        return obj

    @staticmethod
    def from_json(obj) -> "ProjPoint":
        return ProjPoint(JordanElement.from_json(obj))


def _embed(algebra: str, u, w, den: int = 1, skew=False) -> JordanElement:
    """The element whose model is u w^T / den, or u ^ w / den = (u w^T - w u^T) / den
    when ``skew``, for vectors u, w of Gaussian integers (re, im)."""
    n = len(u)
    cells = [(a * c - b * d, a * d + b * c) for a, b in u for c, d in w]
    if skew:  # u ^ w = u w^T - (u w^T)^T
        t = [cells[j * n + i] for i in range(n) for j in range(n)]
        cells = [(p - r, q - s) for (p, q), (r, s) in zip(cells, t)]
    return _from_model_ints(algebra, [c[0] for c in cells] + [c[1] for c in cells], den)


def _embedding(algebra: str, vectors, length: int, skew=False) -> JordanElement:
    """``_embed`` of Scalar or rational vectors, denominators cleared once."""
    if any(len(v) != length for v in vectors):
        raise ValueError(f"the model of {algebra} needs {length}-vectors")
    entries = [c if isinstance(c, Scalar) else Scalar(c) for v in vectors for c in v]
    pairs, den = over_lcm([c.complexify() for c in entries])  # (re, im) over one den
    u, w = pairs[:length], pairs[-length:]
    x = _embed(algebra, u, w, den * den, skew)
    if x.is_zero():
        raise ValueError("vectors are linearly dependent" if skew else "zero vector")
    return x


def veronese(v) -> JordanElement:
    """v -> v v^T in Gaussian integers, a rank-one symmetric matrix (algebra R, complexified)."""
    return _embedding("R", [v], 3)


def segre(u, w) -> JordanElement:
    """(u, w) -> u w^T in Gaussian integers, the full-matrix model (algebra C, complexified)."""
    return _embedding("C", [u, w], 3)


def plucker(u, w) -> JordanElement:
    """(u, w) -> u ^ w in Gaussian integers, the skew model (algebra H, complexified).

    Inputs are 6-vectors; they must be linearly independent.
    """
    return _embedding("H", [u, w], 6, skew=True)


def rank1_sample(algebra: str, rng) -> JordanElement:
    """A random rank-one element, U_A(E11) for random invertible A; U_A keeps
    the rank, so it is not re-tested (``_transported``)."""
    e11 = JordanElement.diagonal(algebra, 1, 0, 0, gaussian=True)
    return _transported(algebra, e11, rng, True, "strata.rank1_sample")


def _transported(algebra: str, seed: JordanElement, rng, gaussian: bool, sampler: str):
    """U_a(seed) for the first random a with det(a) != 0.  U_a then keeps the
    rank (U_a(x)# = U_{a#}(x#), det U_a(x) = det(a)^2 det(x): McCrimmon, A Taste
    of Jordan Algebras, II.4), so a rank re-test could only hide a wrong ``jordan_rank``."""
    for _ in draws(sampler):
        out = invertible_quadratic_rep(random_element(algebra, rng, gaussian), seed)
        if out is not None:
            return out


def _draw(rng, n: int, gaussian: bool, span: int):
    """n coordinates, each part an integer in [-span, span] over 1 or 2 (real
    part drawn first), as integers over 2 in storage order."""
    count = 2 * n if gaussian else n
    parts = [rng.randint(-span, span) * (2 // rng.choice([1, 2])) for _ in range(count)]
    return parts[::2] + parts[1::2] if gaussian else parts


def rand_scalar(rng, gaussian=False, span=2) -> Scalar:
    return box(_draw(rng, 1, gaussian, span), 2, gaussian)[0]


def rand_cd(level: int, rng, gaussian=False, span=2) -> CDNumber:
    return CDNumber._of(level, gaussian, _draw(rng, 1 << level, gaussian, span), 2)


def rand_cd_matrix(level: int, rows: int, cols: int, rng) -> tuple:
    """A rows x cols matrix of ``rand_cd`` entries, drawn row by row."""
    return tuple(tuple(rand_cd(level, rng) for _ in range(cols)) for _ in range(rows))


def random_element(algebra: str, rng, gaussian=False, span=2) -> JordanElement:
    v = _draw(rng, JordanElement.space_dim(algebra), gaussian, span)
    return JordanElement._of(algebra, gaussian, v, 2)


def rank_k_sample(algebra: str, k: int, rng, gaussian=True) -> JordanElement:
    """An element of Jordan rank k (0 <= k <= 3), U_A(E11 + ... + Ekk) for random
    invertible A; U_A keeps the rank, so it is not re-tested (``_transported``)."""
    if k == 0:
        return JordanElement.zero(algebra, gaussian)
    seed = JordanElement.diagonal(algebra, 1, 1 if k > 1 else 0, 1 if k > 2 else 0, gaussian)
    return _transported(algebra, seed, rng, gaussian, "strata.rank_k_sample")


def chord(p: ProjPoint, q: ProjPoint, lam: Scalar, mu: Scalar) -> ProjPoint:
    """lam p + mu q for rank-one p, q; lands in the cubic (rank <= 2)."""
    if p.stratum() != 1 or q.stratum() != 1:
        raise ValueError("chord endpoints must have Jordan rank one")
    if lam.is_zero() and mu.is_zero():
        raise ValueError("(0, 0) does not give a chord point")
    rep = p.rep.scale(lam.to_gaussian()) + q.rep.scale(mu.to_gaussian())
    if rep.is_zero():
        raise ValueError("chord coefficients annihilate the pair")
    return ProjPoint(rep)


def cubic_gradient(x: JordanElement) -> JordanElement:
    """Trace-form gradient of det; coincides with the adjugate sharp(x) = x × x.

    Vanishes exactly on the rank <= 1 locus, which is the algebraic singular
    locus of the cubic hypersurface.  Its linearization at x in direction h
    is 2 x × h, whose kernel at E11 is the tangent space of the closed orbit
    (``closed_orbit_tangent_dim`` ranks the operator h -> E11 × h).
    """
    return sharp(x)


def det_curve_coefficients(x: JordanElement, h: JordanElement):
    """Exact coefficients (c0, c1, c2, c3) of t -> det(x + t h).

    Computed by evaluation at t = 0, 1, -1, 2 and solving the Vandermonde
    system; this is the independent oracle for the gradient identity
    c1 = trace_form(sharp(x), h).
    """
    g = x.gaussian
    ts = (0, 1, -1, 2)
    vals = []
    for t in ts:
        vals.append(det(x + h.scale(Scalar(Fraction(t), 0, g))))
    v = tuple(
        tuple(Scalar(Fraction(t**k), 0, g) for k in range(4)) for t in ts
    )
    sol = linalg.solve(v, tuple(vals))
    if sol is None:
        raise ArithmeticError("Vandermonde solve failed")
    return sol


def closed_orbit_tangent_dim(algebra: str) -> int:
    """dim of the affine cone over the closed orbit, from the tangent space
    of {sharp = 0} at E11: the kernel of h -> E11 × h, ranked on the integer
    operator of ``cross_tensor``.  E11 is rational, so the rank over Q is
    the rank over Q(i)."""
    e11 = JordanElement.diagonal(algebra, 1, 0, 0)
    return len(e11.v) - linalg.frac_rank(cross_tensor(algebra).left(e11.v))


def closure_chain_audit(rng, samples=20):
    """Desk-scale audit of the rank behaviour along degenerating curves.

    Returns a dict: whether the rank never rose above the stratum of the
    curve (``rank_never_exceeds``) and whether some curve dropped rank
    (``rank_drop_witnessed``).
    """
    report = {}
    drops = []
    never_exceeds = True
    for algebra in ("R", "C", "H", "O"):
        for _ in range(samples):
            s = rng.choice([1, 2, 3])
            x = rank_k_sample(algebra, s, rng)
            seen_drop = False
            for tnum in (0, 1, -1, 2, -2, 3):
                t = Scalar(Fraction(tnum), 0, True)
                r = jordan_rank(x.scale(t))
                if r > s:
                    never_exceeds = False
                if r < s:
                    seen_drop = True
            drops.append(seen_drop)
        # curves U_{A + t B}(seed) stay inside the rank-<= s locus and can
        # only drop where A + t B degenerates
        for _ in range(max(1, samples // 2)):
            s = rng.choice([1, 2, 3])
            seed = JordanElement.diagonal(
                algebra, 1, 1 if s > 1 else 0, 1 if s > 2 else 0, gaussian=True
            )
            a = random_element(algebra, rng, gaussian=True)
            b = random_element(algebra, rng, gaussian=True)
            seen_drop = False
            for tnum in (0, 1, -1, 2, -2):
                t = Scalar(Fraction(tnum), 0, True)
                x_t = quadratic_rep(a + b.scale(t), seed)
                r = jordan_rank(x_t)
                if r > s:
                    never_exceeds = False
                if r < s:
                    seen_drop = True
            drops.append(seen_drop)
    report["rank_never_exceeds"] = never_exceeds
    report["rank_drop_witnessed"] = any(drops)
    return report


def rank1_projective_factor(x: JordanElement):
    """Witness that [x] lies on the closed orbit, as embedding input vectors.

    Works projectively, so no square classes obstruct it: returns
    ("veronese", v) / ("segre", (u, w)) / ("plucker", (u, w)) with the
    embedded point proportional to x.  Raises for the octonionic algebra and
    off the complexified algebra, and returns None when x is not rank one:
    the embedding of nonzero vectors has rank one, so the closing ProjPoint
    test decides the rank.  The model of x, its pivot and its vectors stay
    Gaussian integers over x.den; only the returned vectors are boxed.
    """
    if not x.gaussian:
        raise ValueError("projective points live on the complexified algebra")
    size, m = _model_ints(x)
    n = size * size
    rows = [list(zip(m[r : r + size], m[n + r : n + r + size])) for r in range(0, n, size)]
    nonzero = lambda c: c != (0, 0)
    if x.algebra != "H":  # m_pq m = col_q row_p^T on the closed orbit
        pivot = next(((i, j) for i in range(3) for j in range(3) if nonzero(rows[i][j])), None)
        if pivot is None:
            return None
        u = [row[pivot[1]] for row in rows]
        w = u if x.algebra == "R" else rows[pivot[0]]  # over R then p = q and v = col_p
    else:  # the first nonzero column and the first one independent of it
        cols = [c for c in zip(*rows) if any(map(nonzero, c))]
        w = next((c for c in cols[1:] if not _embed("H", cols[0], c, skew=True).is_zero()), None)
        if w is None:
            return None
        u = cols[0]
    if ProjPoint(_embed(x.algebra, u, w, skew=x.algebra == "H")) != ProjPoint(x):
        return None
    vec = lambda v: box([a for a, _ in v] + [b for _, b in v], x.den, True)
    if x.algebra == "R":
        return "veronese", vec(u)
    if x.algebra == "H":
        return "plucker", (vec(u), vec(w))
    c, d = rows[pivot[0]][pivot[1]]
    q = c * c + d * d  # w / (c + di) = w (c - di) / q
    w = [Scalar._of(None, True, (a * c + b * d, b * c - a * d), q) for a, b in w]
    return "segre", (vec(u), tuple(w))
