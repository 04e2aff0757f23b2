"""Rank stratification of the complexified Jordan algebras and the closed
rank-one orbit: projective points, the three classical homogeneous embeddings,
chords of the rank-one locus, and the gradient of the cubic norm.

Everything is projective-exact: proportionality over Q(i) is decided by
cross-multiplication, and all rank and gradient statements are zero tests in
exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import linalg
from .bilinear import box
from .cayley_dickson import CDNumber
from .jordan import (
    JordanElement,
    cross,
    det,
    from_general_matrix,
    from_skew_matrix,
    from_symmetric_matrix,
    invertible_quadratic_rep,
    jordan_rank,
    quadratic_rep,
    sharp,
    to_general_matrix,
    to_skew_matrix,
    to_symmetric_matrix,
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


def _gauss_vec(v):
    """A vector of Scalars or rationals as Scalars over Q(i)."""
    return tuple(
        c.to_gaussian() if isinstance(c, Scalar) else Scalar(Fraction(c), 0, True) for c in v
    )


def veronese(v) -> JordanElement:
    """v -> v v^T, a rank-one symmetric matrix (algebra R, complexified)."""
    v = _gauss_vec(v)
    if all(c.is_zero() for c in v):
        raise ValueError("zero vector")
    return from_symmetric_matrix(tuple(tuple(a * b for b in v) for a in v))


def segre(u, w) -> JordanElement:
    """(u, w) -> u w^T in the full-matrix model (algebra C, complexified)."""
    u, w = _gauss_vec(u), _gauss_vec(w)
    if all(c.is_zero() for c in u) or all(c.is_zero() for c in w):
        raise ValueError("zero vector")
    m = tuple(tuple(u[i] * w[j] for j in range(3)) for i in range(3))
    return from_general_matrix(m)


def plucker(u, w) -> JordanElement:
    """(u, w) -> u ^ w in the skew model (algebra H, complexified).

    Inputs are 6-vectors; they must be linearly independent.
    """
    u, w = _gauss_vec(u), _gauss_vec(w)
    if len(u) != 6 or len(w) != 6:
        raise ValueError("plucker needs two 6-vectors")
    skew = tuple(
        tuple(u[i] * w[j] - u[j] * w[i] for j in range(6)) for i in range(6)
    )
    if all(x.is_zero() for row in skew for x in row):
        raise ValueError("vectors are linearly dependent")
    return from_skew_matrix(skew)


def rank1_sample(algebra: str, rng) -> JordanElement:
    """A random rank-one element, as U_A(E11) for random invertible A."""
    e11 = JordanElement.diagonal(algebra, 1, 0, 0, gaussian=True)
    for _ in draws("strata.rank1_sample"):
        out = invertible_quadratic_rep(random_element(algebra, rng, gaussian=True), e11)
        if out is not None and not out.is_zero():
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


def rand_cd_matrix(level: int, rows: int, cols: int, rng, span=2) -> tuple:
    """A rows x cols matrix of ``rand_cd`` entries, drawn row by row."""
    return tuple(tuple(rand_cd(level, rng, span=span) for _ in range(cols)) for _ in range(rows))


def random_element(algebra: str, rng, gaussian=False, span=2) -> JordanElement:
    v = _draw(rng, JordanElement.space_dim(algebra), gaussian, span)
    return JordanElement._of(algebra, gaussian, v, 2)


def rank_k_sample(algebra: str, k: int, rng, gaussian=True) -> JordanElement:
    """A random element of Jordan rank exactly k (0 <= k <= 3)."""
    if k == 0:
        return JordanElement.zero(algebra, gaussian)
    seed = JordanElement.diagonal(algebra, 1, 1 if k > 1 else 0, 1 if k > 2 else 0, gaussian)
    for _ in draws("strata.rank_k_sample"):
        out = invertible_quadratic_rep(random_element(algebra, rng, gaussian), seed)
        if out is not None and jordan_rank(out) == k:
            return out


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
    is 2 x × h (``_sharp_derivative``), whose kernel at E11 is the tangent
    space of the closed orbit.
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


@lru_cache(maxsize=None)
def closed_orbit_tangent_dim(algebra: str) -> int:
    """dim of the affine cone over the closed orbit, from the tangent space
    of {sharp = 0} at E11 (exact kernel of the linearized adjugate)."""
    e11 = JordanElement.diagonal(algebra, 1, 0, 0, gaussian=True)
    basis = JordanElement.space_basis(algebra, gaussian=True)
    cols = [_sharp_derivative(e11, h).coords() for h in basis]
    m = tuple(zip(*cols))  # rows indexed by output coordinate
    return len(basis) - linalg.rank(m)


def _sharp_derivative(x: JordanElement, h: JordanElement) -> JordanElement:
    """d/dt sharp(x + t h) at t = 0, which is 2 x × h."""
    xh = cross(x, h)
    return xh + xh


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
    test decides the rank.
    """
    if not x.gaussian:
        raise ValueError("projective points live on the complexified algebra")
    if x.algebra == "R":
        m = to_symmetric_matrix(x)
        piv = next((i for i in range(3) if not m[i][i].is_zero()), None)
        if piv is None:
            return None
        v = tuple(m[piv])
        if ProjPoint(veronese(v)) != ProjPoint(x):
            return None
        return "veronese", v
    if x.algebra == "C":
        m = to_general_matrix(x)
        pivot = next(
            ((i, j) for i in range(3) for j in range(3) if not m[i][j].is_zero()), None
        )
        if pivot is None:
            return None
        pi, pj = pivot
        u = tuple(m[i][pj] for i in range(3))
        w = tuple(m[pi][j] * m[pi][pj].inverse() for j in range(3))
        if ProjPoint(segre(u, w)) != ProjPoint(x):
            return None
        return "segre", (u, w)
    if x.algebra == "H":
        n = to_skew_matrix(x)
        cols = [c for c in zip(*n) if any(not e.is_zero() for e in c)]
        w = next((c for c in cols[1:] if linalg.rank((cols[0], c)) == 2), None)
        if w is None:
            return None
        u = cols[0]
        if ProjPoint(plucker(u, w)) != ProjPoint(x):
            return None
        return "plucker", (u, w)
    raise ValueError("no classical factorization for the octonionic algebra")
