"""Small dense matrices over a Cayley-Dickson algebra (levels 0..2 only:
matrix algebra needs associativity, so the octonions are excluded here) or
over the Scalars Q and Q(i).

Rows are tuples of CDNumber, or of Scalar; entries must share type, level
and base ring.  Used by the momentum-map layer for the V = K^6 matrix
models and by the lifts.  ``mul`` and ``inverse`` run on one
representation: x -> L(x), the left-regular operator y -> x y as an integer
matrix read off a compiled unit table (``Bilinear.left``), an injective
ring map at the associative levels.  A Scalar takes the level-0 table, so
its L is [[a]] over Q and [[a, -b], [b, a]] over Q(i).  A row of a matrix
becomes one integer block row (L(x_0) | ... | L(x_n)) over the lcm of its
denominators (``cayley_dickson.block_row``); ``mul`` dots it with the
stacked integer coordinates of a column of the other factor, and
``inverse`` is ``linalg.inverse``, the exact elimination core on the same
block rows.  ``add``, ``sub``, ``neg``, ``scale`` and ``conj_transpose``
work entry by entry and never look inside an entry's table.
"""

from __future__ import annotations

from operator import mul as _times

from . import linalg
from .cayley_dickson import CDNumber, block_row, checked_lcm
from .scalars import Scalar


def from_rows(rows):
    return tuple(tuple(r) for r in rows)


def zero(m, n, level):
    z = CDNumber.zero(level)
    return tuple((z,) * n for _ in range(m))


def identity(n, level, gaussian=False):
    z, o = CDNumber.zero(level, gaussian), CDNumber.one(level, gaussian)
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def scale(a, s) -> tuple:
    """The multiple by a Scalar s."""
    return tuple(tuple(x.scale(s) for x in row) for row in a)


def mul(a, b):
    """The matrix product: coordinate k of entry (i, j) is one integer dot
    product of row k of the block row of row i of ``a`` with the stacked
    coordinates of column j of ``b``.

    Every entry, zero or not, must share the type, level and ring of
    ``a[0][0]``.
    """
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    first = a[0][0]
    cols = [checked_lcm(col, first) for col in zip(*b)]
    cols = [([c for v in vs for c in v], e) for vs, e in cols]
    return tuple(
        tuple(first._like([sum(map(_times, r, c)) for r in block], d * e) for c, e in cols)
        for block, d in (block_row(row, first) for row in a)
    )


def conj_transpose(a):
    return tuple(tuple(x.conjugate() for x in col) for col in zip(*a))


def is_zero(a):
    return all(x.is_zero() for row in a for x in row)


def trace_real(a) -> Scalar:
    """Real part of the trace (a base-ring scalar)."""
    return sum((row[i].real() for i, row in enumerate(a)), Scalar.zero(a[0][0].gaussian))


def inverse(a):
    """The inverse of a square matrix over an associative division ring
    (``linalg.inverse``)."""
    return linalg._inverse(a)
