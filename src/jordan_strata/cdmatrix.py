"""Small dense matrices over a Cayley-Dickson algebra (levels 0..2 only:
matrix algebra needs associativity, so the octonions are excluded here).

Rows are tuples of CDNumber; entries must share level and base ring.  Used by
the momentum-map layer for the V = K^6 matrix models.  ``mul`` runs on the
bilinear engine: each entry already is an integer vector over one
denominator (the ``CDNumber`` storage), each output entry is one integer
contraction of the level's unit table (``Bilinear.sum_mul``) and is stored
as it comes, with no ``Scalar`` in between.  ``inverse`` goes through the
exact elimination core of ``linalg``.  ``add``, ``sub``, ``neg`` and
``from_rows`` (``linalg.mat``) are ``linalg``'s, which never look inside an
entry; ``conj_transpose`` serves ``Scalar`` matrices as well.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .cayley_dickson import CDNumber, _cd_product, cd_mul, unit_product
from .linalg import add, neg, sub
from .linalg import mat as from_rows
from .scalars import Scalar


def zero(m, n, level, gaussian=False):
    z = CDNumber.zero(level, gaussian)
    return tuple((z,) * n for _ in range(m))


def identity(n, level, gaussian=False):
    z, o = CDNumber.zero(level, gaussian), CDNumber.one(level, gaussian)
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def scale(a, s) -> tuple:
    """Left scalar multiple; s may be a Scalar or CDNumber."""
    if isinstance(s, Scalar):
        return tuple(tuple(x.scale(s) for x in row) for row in a)
    return tuple(tuple(cd_mul(s, x) for x in row) for row in a)


def mul(a, b):
    """The matrix product, one integer contraction per output entry.

    An output entry is the engine's ``sum_mul`` of the stored (v, den) pairs
    of its nonzero terms.  Every entry, zero or not, must share the level
    and ring of ``a[0][0]``.
    """
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    first = a[0][0]
    level, gaussian = first.level, first.gaussian
    table = _cd_product(level)

    def entry(x):
        first._check(x)
        return (x.v, x.den) if any(x.v) else None

    def dot(row, col):
        acc, den = table.sum_mul([(x, y) for x, y in zip(row, col) if x and y], gaussian)
        return CDNumber._of(level, gaussian, acc, den)

    rows = [[entry(x) for x in row] for row in a]
    cols = [[entry(y) for y in col] for col in zip(*b)]
    return tuple(tuple(dot(row, col) for col in cols) for row in rows)


def conj_transpose(a):
    return tuple(tuple(x.conjugate() for x in col) for col in zip(*a))


def is_zero(a):
    return all(x.is_zero() for row in a for x in row)


def trace_real(a) -> Scalar:
    """Real part of the trace (a base-ring scalar)."""
    g = a[0][0].gaussian
    acc = Scalar.zero(g)
    for i in range(len(a)):
        acc = acc + a[i][i].real()
    return acc


def inverse(a):
    """Inverse over an associative division level (0..2, rational base).

    x -> L_x, the rational matrix of y -> x y, is an injective ring map at
    the associative levels, so the block matrix (L_{a_ij}) inverts to
    (L_{(a^-1)_ij}), and column 0 of L_x holds the coordinates of x.
    """
    n = len(a)
    level = a[0][0].level
    gaussian = a[0][0].gaussian
    if gaussian and level > 0:
        raise ValueError("inverse over a non-division ring is not supported")
    blocks = [[_left_regular(x) for x in row] for row in a]
    d = len(blocks[0][0])
    big = [[v for blk in brow for v in blk[k]] for brow in blocks for k in range(d)]
    cols = linalg._inverse_columns(big, d)
    return tuple(
        tuple(
            CDNumber._of(level, gaussian, *linalg._int_row([cols[i * d + k][j] for k in range(d)]))
            for j in range(n)
        )
        for i in range(n)
    )


def _left_regular(x):
    """Rational matrix of y -> x y on the coordinates of x over Q, built
    from the stored integers of x."""
    v = x.v
    if x.gaussian:  # level 0 over Q(i): rho(a + bi) = [[a, -b], [b, a]]
        m = [[v[0], -v[1]], [v[1], v[0]]]
    else:
        d = 1 << x.level
        m = [[0] * d for _ in range(d)]
        for i, c in enumerate(v):
            if c:
                for j in range(d):
                    k, sign = unit_product(x.level, i, j)
                    m[k][j] += sign * c
    return m if x.den == 1 else [[Fraction(c, x.den) for c in row] for row in m]
