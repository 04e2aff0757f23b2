"""Sparse integer bilinear products: the one engine behind ``cd_mul``,
the ``cdmatrix`` blocks, ``jordan_mul``, the Jordan cross product (``sharp``,
``det``, ``jordan_rank``), the coordinate product of ``tkk.JordanSpace``
and the Lie bracket of ``tkk.TKKAlgebra``.

A structure-constant table e_i e_j = sum_k c_ijk e_k arrives as integer
rows over one stated denominator, c_ijk = c / den: the one table a product
holds, for both base rings.  An operand is one integer
vector over one positive denominator (real parts, then imaginary parts over
Q(i)), which is how a ``CDNumber``, a ``JordanElement`` and a
``tkk.TKKElement`` store their coordinates (``scalars.IntVector``), so a
product reads its operands' integers as they are, sums in Python ints and
hands back the integer accumulator over the product of the denominators;
the caller stores it as it is.

Two products run as generated code: on the first call for a table, the
table is written out once as one straight-line Python function over the
integers, which serves both base rings.  ``product`` multiplies two
operands (``cd_mul``, ``jordan_mul`` and the cross product of two elements,
and a# × x inside U_a): block i of its function runs only when x_i is
nonzero and adds x_i (sum_j c_ijk y_j) into each output k of row i, so it
pays for the nonzero coordinates of its first operand, and callers put the
sparse one first.  Over Q(i) it takes Karatsuba's three real products,
x y = (ac - bd) + ((a + b)(c + d) - ac - bd) i for x = a + bi, y = c + di.
``square`` serves a commutative product, whose squared operands are mostly
dense: output coordinate k is sum_i x_i (sum_{j >= i} c'_ijk x_j) with
c' = c on the diagonal and 2c off it, and over Q(i)
x x = (a a - b b) + ((a + b)(a + b) - a a - b b) i by polarization.
Neither function is generated in a table's set-up, and a self-product of a
commutative table (``jordan_mul(x, x)``, ``sharp``) never generates
``product``'s.

``contract`` is the schoolbook loop over the nonzero coordinates, over Q(i)
meeting each real cell once per pair of Gaussian coordinates.  It is the
reference the tests compare ``product`` and ``square`` against, and it
still serves the Lie bracket of ``tkk`` and the column tables of
``reduction``: generating the so12 bracket as one function was measured
to cost an 8.9 MB compile transient (``lie`` peak memory 25.5 -> 33.7 MB),
and in pieces of 100-400 terms 0.75 MB more resident memory for 9-13%
less ``lie`` time.  ``left`` writes the table out as the integer matrix of
y -> x y, the left-regular operator on which ``cdmatrix`` multiplies and
``linalg`` eliminates (a Scalar through the level-0 table).

Two helpers serve the values on that storage: ``box`` makes the ``Scalar``
coordinates of an integer vector, which a value boxes from its integers on
each read, and ``over_lcm`` puts several values over one common
denominator.
"""

from __future__ import annotations

import operator
from math import lcm

from .scalars import Scalar


class Bilinear:
    """A bilinear product compiled from its structure constants.

    ``rows[i][j]`` lists the (k, c) with e_i e_j = sum (c / den) e_k and c a
    nonzero integer.
    """

    __slots__ = ("dim", "den", "rows", "_left_rows", "_square_fn", "_product_fn")

    def __init__(self, table, den):
        self.dim = len(table)
        self.den = den
        self.rows = table
        self._left_rows = None  # left's (j, i, c) tables, one per ring
        self._square_fn = None  # square's generated function, serving both rings
        self._product_fn = None  # product's generated function, serving both rings

    def contract(self, xv, yv, gaussian=False, acc=None):
        """den * (x y) for integer coordinate vectors x, y (2n long over Q(i)),
        added into ``acc`` when given; over Q(i) by the schoolbook rule
        (a + bi)(c + di) = (ac - bd) + (ad + bc)i on each coordinate pair, so
        it stays independent of ``square``'s polarization and of
        ``product``'s three real products."""
        rows, n = self.rows, self.dim
        if acc is None:
            acc = [0] * len(xv)
        if gaussian:
            xs = [(rows[i], a, b) for i, (a, b) in enumerate(zip(xv[:n], xv[n:])) if a or b]
            ys = [(j, c, d) for j, (c, d) in enumerate(zip(yv[:n], yv[n:])) if c or d]
            for row, a, b in xs:
                for j, c, d in ys:
                    cell = row[j]
                    if cell:
                        re, im = a * c - b * d, a * d + b * c
                        for k, e in cell:
                            acc[k] += re * e
                            acc[n + k] += im * e
            return acc
        ys = [(j, b) for j, b in enumerate(yv) if b]
        for i, a in enumerate(xv):
            if a:
                row = rows[i]
                for j, b in ys:
                    cell = row[j]
                    if cell:
                        p = a * b
                        for k, c in cell:
                            acc[k] += p * c
        return acc

    def _generate(self, name, params, body):
        """The straight-line function ``name(params)`` with the given body
        lines, compiled from generated source: the one code generator behind
        ``square`` and ``product``."""
        src = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in body)
        namespace = {}
        exec(compile(src, f"<{name} of a {self.dim}-dimensional table>", "exec"), namespace)
        return namespace[name]

    def _compiled_square(self):
        """square's real function, generated on the first square: output
        coordinate k is sum_i x_i (sum_{j >= i} c'_ijk x_j), with c' = c on
        the diagonal and c_ijk + c_jik = 2 c_ijk off it, one straight-line
        integer expression per coordinate."""
        if self._square_fn is None:
            n, rows = self.dim, self.rows
            if any(sorted(rows[i][j]) != sorted(rows[j][i]) for i in range(n) for j in range(i)):
                raise ValueError("square needs a commutative product table")
            terms = [[[] for _ in range(n)] for _ in range(n)]  # terms[k][i]: (j, c') for j >= i
            for i in range(n):
                for j in range(i, n):
                    for k, c in rows[i][j]:
                        terms[k][i].append((j, c if j == i else 2 * c))
            coords = [
                " + ".join(f"x{i}*({_linear(cs, 'x')})" for i, cs in enumerate(per_i) if cs) or "0"
                for per_i in terms
            ]
            params = ", ".join(f"x{i}" for i in range(n))
            self._square_fn = self._generate("square", params, [f"return [{', '.join(coords)}]"])
        return self._square_fn

    def square(self, xv, gaussian=False):
        """den * (x x) for an integer coordinate vector x (2n long over Q(i))
        of a commutative product, through one generated integer function of
        n coordinates; over Q(i), x = a + bi by polarization,
        x x = (a a - b b) + ((a + b)(a + b) - a a - b b) i.
        ``ValueError`` on a non-commutative table."""
        f = self._compiled_square()
        if not gaussian:
            return f(*xv)
        n = self.dim
        a, b = xv[:n], xv[n:]
        return _recombine(f(*a), f(*b), f(*map(operator.add, a, b)))

    def _compiled_product(self):
        """product's real function, generated on the first product: block i
        runs only when x_i is nonzero, and adds x_i (sum_j c_ijk y_j) into
        output coordinate k for each k that row i reaches."""
        if self._product_fn is None:
            n = self.dim
            xs, ys, acc = (", ".join(f"{v}{i}" for i in range(n)) for v in "xya")
            body = [f"{xs}, = x", f"{ys}, = y", f"{acc.replace(',', ' =')} = 0"]
            for i, row in enumerate(self.rows):
                per_k = {}
                for j, cell in enumerate(row):
                    for k, c in cell:
                        per_k.setdefault(k, []).append((j, c))
                if per_k:
                    body.append(f"if x{i}:")
                    for k, cs in per_k.items():
                        if len(cs) == 1 and cs[0][1] in (1, -1):
                            op = "+=" if cs[0][1] == 1 else "-="
                            body.append(f"    a{k} {op} x{i}*y{cs[0][0]}")
                        else:
                            body.append(f"    a{k} += x{i}*({_linear(cs, 'y')})")
            body.append(f"return [{acc}]")
            self._product_fn = self._generate("product", "x, y", body)
        return self._product_fn

    def product(self, xv, yv, gaussian=False):
        """den * (x y) for integer coordinate vectors x, y (2n long over
        Q(i)), the value of ``contract``, through one generated integer
        function whose blocks are guarded on the coordinates of x: it pays
        for the nonzero coordinates of x, so the sparse operand goes first.
        Over Q(i), x = a + bi and y = c + di by Karatsuba's three real
        products, x y = (ac - bd) + ((a + b)(c + d) - ac - bd) i."""
        f = self._compiled_product()
        if not gaussian:
            return f(xv, yv)
        n = self.dim
        a, b, c, d = xv[:n], xv[n:], yv[:n], yv[n:]
        return _recombine(f(a, c), f(b, d), f(map(operator.add, a, b), map(operator.add, c, d)))

    def left(self, xv, gaussian=False):
        """den * L(x) for an integer coordinate vector x (2n long over Q(i)):
        the integer matrix of y -> x y, row k holding coordinate k of the
        products x e_j; L(a + bi) = [[L(a), -L(b)], [L(b), L(a)]] over Q(i)."""
        if self._left_rows is None:
            # row k lists the (j, i, c) with c the coefficient of e_k in e_i e_j
            n = self.dim
            cs = [(k, j, i, c) for i, r in enumerate(self.rows)
                  for j, cell in enumerate(r) for k, c in cell]
            real = [[t[1:] for t in cs if t[0] == k] for k in range(n)]
            # the same over Q(i): the blocks of L(a + bi) as terms on (a, b)
            gauss = [r + [(n + j, n + i, -c) for j, i, c in r] for r in real] + [
                [(j, n + i, c) for j, i, c in r] + [(n + j, i, c) for j, i, c in r] for r in real
            ]
            self._left_rows = (real, gauss)
        out = []
        for row in self._left_rows[gaussian]:
            m = [0] * len(xv)
            for j, i, c in row:
                m[j] += c * xv[i]
            out.append(m)
        return out


def _recombine(ac, bd, ss):
    """(ac - bd) + (ss - ac - bd) i, real parts then imaginary parts: the
    product over Q(i) from three real ones, ss = (a + b)(c + d)."""
    return [p - q for p, q in zip(ac, bd)] + [s - p - q for s, p, q in zip(ss, ac, bd)]


def _linear(terms, var):
    """The integer linear form sum c * var_j of (j, c) terms, as source text."""
    return " + ".join(
        f"{var}{j}" if c == 1 else f"-{var}{j}" if c == -1 else f"{c}*{var}{j}" for j, c in terms
    )


def box(v, den, gaussian):
    """The Scalars v / den, one per coordinate of an integer vector (real
    parts, then imaginary parts over Q(i))."""
    if not gaussian:
        return tuple(Scalar._of(None, False, (x,), den) for x in v)
    n = len(v) // 2
    return tuple(Scalar._of(None, True, p, den) for p in zip(v[:n], v[n:]))


def over_lcm(values):
    """(vs, d): the integer vectors of ``values`` over the lcm d of their
    denominators, ``vs[i] / d`` the value ``values[i]``."""
    d = lcm(*[x.den for x in values])
    return [x.v if x.den == d else [c * (d // x.den) for c in x.v] for x in values], d
