"""Small dense matrices over a Cayley-Dickson algebra (levels 0..2 only:
matrix algebra needs associativity, so the octonions are excluded here).

Rows are tuples of CDNumber; entries must share level and base ring.  Used by
the momentum-map layer for the V = K^6 matrix models.  ``mul`` and
``inverse`` run on one representation: x -> L(x), the left-regular operator
y -> x y as an integer matrix read off the level's compiled unit table
(``Bilinear.left``), an injective ring map at the associative levels.  A
row of a matrix becomes one integer block row (L(x_0) | ... | L(x_n)) over
the lcm of its denominators; ``mul`` dots it with the stacked integer
coordinates of a column of the other factor, and ``inverse`` hands the
block rows to the exact elimination core of ``linalg``.  ``add``, ``sub``,
``neg`` and ``from_rows`` (``linalg.mat``) are ``linalg``'s, which never
look inside an entry; ``conj_transpose`` serves ``Scalar`` matrices as well.
"""

from __future__ import annotations

from operator import mul as _times

from . import linalg
from .bilinear import over_lcm
from .cayley_dickson import CDNumber, _cd_product
from .linalg import add, neg, sub
from .linalg import mat as from_rows
from .scalars import Scalar, _int_row


def zero(m, n, level, gaussian=False):
    z = CDNumber.zero(level, gaussian)
    return tuple((z,) * n for _ in range(m))


def identity(n, level, gaussian=False):
    z, o = CDNumber.zero(level, gaussian), CDNumber.one(level, gaussian)
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def scale(a, s) -> tuple:
    """The multiple by a Scalar s."""
    return tuple(tuple(x.scale(s) for x in row) for row in a)


def mul(a, b):
    """The matrix product: coordinate k of entry (i, j) is one integer dot
    product of row k of the block row of row i of ``a`` with the stacked
    coordinates of column j of ``b``.

    Every entry, zero or not, must share the level and ring of ``a[0][0]``.
    """
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    first = a[0][0]
    den = _cd_product(first.level).den
    cols = [_over_lcm(col, first) for col in zip(*b)]
    cols = [([c for v in vs for c in v], e) for vs, e in cols]
    return tuple(
        tuple(first._like([sum(map(_times, r, c)) for r in block], d * e * den) for c, e in cols)
        for block, d in (_block_row(row, first) for row in a)
    )


def conj_transpose(a):
    return tuple(tuple(x.conjugate() for x in col) for col in zip(*a))


def is_zero(a):
    return all(x.is_zero() for row in a for x in row)


def trace_real(a) -> Scalar:
    """Real part of the trace (a base-ring scalar)."""
    return sum((row[i].real() for i, row in enumerate(a)), Scalar.zero(a[0][0].gaussian))


def inverse(a):
    """Inverse over an associative division level (0..2, rational base).

    x -> L(x) is an injective ring map, so the block matrix (L(a_ij))
    inverts to (L((a^-1)_ij)), and column 0 of L(x) holds the coordinates of
    x.  Raises ValueError when ``a`` is not square and ZeroDivisionError
    when it is singular.
    """
    first = a[0][0]
    if first.gaussian and first.level > 0:
        raise ValueError("inverse over a non-division ring is not supported")
    den, w = _cd_product(first.level).den, len(first.v)
    blocks = [_block_row(row, first) for row in a]
    cols = linalg._inverse_columns(
        [r for block, _ in blocks for r in block], w, [d * den for _, d in blocks for _ in range(w)]
    )
    # column j of rows i .. i + w - 1 holds the coordinates of entry (i / w, j)
    return tuple(
        tuple(first._like(*_int_row(x)) for x in zip(*cols[i : i + w]))
        for i in range(0, len(cols), w)
    )


def _over_lcm(entries, first):
    """``bilinear.over_lcm`` of ``entries``, each checked against the level
    and ring of ``first``."""
    for x in entries:
        first._check(x)
    return over_lcm(entries)


def _block_row(row, first):
    """(block, d) with block / (d * den) the rows of (L(x_0) | ... | L(x_n))
    for a matrix row, d the lcm of its denominators and den the table's."""
    vs, d = _over_lcm(row, first)
    table = _cd_product(first.level)
    ls = [table.left(v, first.gaussian) for v in vs]
    return [[c for m in ls for c in m[k]] for k in range(len(first.v))], d
