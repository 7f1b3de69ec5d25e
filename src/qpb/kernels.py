"""The int-view kernels and density helpers that a curvature dump runs.

Tables are int views `(d, re, im)` (`views`); these functions compute
on views and never make a Scalar.  The builders of `potentials`, the
dump's rows and the checkers of `calculus` and `connection` run on them:
- `_differential_view` and `_star_view`, the views of the universal d
  and of ⋆, behind `calculus.differential` and `connection.star_delta`;
- `curvature_rows`, the rows of dθ·d + θ⋆θ a point pair at a time,
  which the curvature suite compares with the other routes pair by
  pair and `runner.curvature_payload` prints from;
- the density scans (`_rows_at` over the pair iterators, and the
  diagonal, unit-normalization and covariance witnesses), which the
  validators of a connection form and of a potential share: θ's
  ad-covariance and a potential's translation invariance are one
  covariance scan under two relabellings; and the small builders
  `_map_of`, `_unit_rows` and `_points_read`.

Keeping them apart keeps the checkers out of a dump: a curvature dump
on a framed bundle loads the parser, the runner, `potentials` and this
module with the data types of `groups`, `funcs` and `views`, and none
of `bundle`, `connection`, `calculus`, `gauge`, `linalg` or `scalars`.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable

from .funcs import FormValuedMap, first_difference, guard_table_size
from .groups import BundleSpec, FiniteGroup
from .views import gathered

__all__ = ["curvature_rows"]

# ---------------------------------------------------------------------------
# the universal d and the convolution product on int views


def _nonzero_rows(values: list[int], width: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Each row of a flat int table that has a nonzero entry, as its row
    number and its nonzero (column, value) pairs."""
    rows = []
    for r, base in enumerate(range(0, len(values), width)):
        row = [(c, v) for c, v in enumerate(values[base : base + width]) if v]
        if row:
            rows.append((r, row))
    return rows


def _differential_view(view, size: int, degree: int, width: int):
    """`differential` on the int view of a table with `width` values per
    point tuple; the result keeps the view's denominator."""
    npts = size ** (degree + 2)
    guard_table_size(npts)
    if width > 1:
        guard_table_size(npts * width)
    d, re, im = view
    if im is not None:
        im = _d_ints(im, size, degree, width)
    return d, _d_ints(re, size, degree, width), im


def _d_ints(values: list[int], size: int, degree: int, width: int) -> list[int]:
    """The alternating sum on one flat int table, read from its nonzero rows.

    Argument j inserted into source tuple s at value x gives the target
    (s // lo * size + x) * lo + s % lo, with lo = size ** (degree + 1 - j).
    """
    out = [0] * (size ** (degree + 2) * width)
    rows = _nonzero_rows(values, width)
    negated = [(s, [(c, -v) for c, v in row]) for s, row in rows]
    for j in range(degree + 2):
        lo = size ** (degree + 1 - j)
        step = lo * width
        for s, row in negated if j % 2 else rows:
            first = (s // lo * size * lo + s % lo) * width
            for base in range(first, first + size * step, step):
                for c, v in row:
                    out[base + c] += v
    return out


def _star_view(group: FiniteGroup, size: int, a, na: int, c, nc: int):
    """`star_delta` on the int views of a degree-na and a degree-nc
    density: a complex product is four int products, and a product with
    a side that has no imaginary part is not formed at all."""
    entries = size ** (na + nc + 1) * group.order
    guard_table_size(entries)
    da, ra, ia = a
    dc, rc, ic = c
    re = _convolve(entries, ((ra, rc, 1), (ia, ic, -1)), group, size, nc)
    im = _convolve(entries, ((ra, ic, 1), (ia, rc, 1)), group, size, nc)
    return da * dc, re, im


def _convolve(entries: int, terms, group: FiniteGroup, size: int, ny: int):
    """The sum of sign·(x⋆y) over the (x, y, sign) terms whose two flat int
    densities both exist, or None when no term has both."""
    m = group.order
    mul = group.table
    y_tail = size**ny
    out = None
    for x, y, sign in terms:
        if x is None or y is None:
            continue
        if out is None:
            out = [0] * entries
        y_rows = [None] * (size ** (ny + 1))
        for r, row in _nonzero_rows(y, m):
            y_rows[r] = row
        for ta, x_row in _nonzero_rows(x, m):
            x_row = [(mul[aa], sign * va) for aa, va in x_row]
            first = ta % size * y_tail
            for tc in range(first, first + y_tail):
                y_row = y_rows[tc]
                if y_row is None:
                    continue
                obase = (ta * y_tail + tc - first) * m
                for row, va in x_row:
                    for cc, vc in y_row:
                        out[obase + row[cc]] += va * vc
    return out


# ---------------------------------------------------------------------------
# curvature rows


def curvature_rows(theta: FormValuedMap, points: Iterable[int] | None = None):
    """dθ·d + θ⋆θ over d², the denominator of θ's view squared, a point
    pair at a time: returns d² and an iterator that gives, for each
    (p, q) in row-major order, the rows (p, q, r) for r = 0..n−1 end to
    end, as the pair (re, im) of int lists, im None when θ is real.
    Given `points`, it gives the pairs from each of them in turn instead
    of from every point.

    No cap is checked: the iterator holds copies of θ, which met the cap
    when it was built, and one pair's rows, which read θ from p, θ from
    q and θ at (p, q).
    """
    n = theta.size
    return theta.view[0] ** 2, _curvature_blocks(
        theta.group, n, theta.view, range(n) if points is None else points
    )


# (part of θ(p, q), part of θ(q, r), part of the product, sign) for
# each part of a complex product; the first alone for a real one
_PRODUCT_TERMS = ((0, 0, 0, 1), (1, 1, 0, -1), (0, 1, 1, 1), (1, 0, 1, 1))


def _curvature_blocks(g: FiniteGroup, n: int, view, points: Iterable[int]):
    """dθ·d + θ⋆θ over d² for the int view (d, re, im) of a degree-1
    density θ on n points, a point pair at a time: for each p of
    `points` and each q in turn, the rows (p, q, r), r = 0..n−1, end to
    end, as the pair (re, im) of int lists, im None when θ is real.

    A pair's rows read only θ from p, θ from q and θ at (p, q): the
    differential is three list passes, and the product adds each nonzero
    θ(p, q, a) times each nonzero θ(q, r, b) at a·b.
    """
    d, re, im = view
    parts = [re] if im is None else [re, im]
    terms = _PRODUCT_TERMS[:1] if im is None else _PRODUCT_TERMS
    m, mul = g.order, g.table
    w = n * m
    # θ(q, r, b) for every r and b, from each point q, as one list scaled
    # by d, and its nonzeros as (r·m, b, value)
    froms = [[part[q * w : (q + 1) * w] for q in range(n)] for part in parts]
    scaled = froms if d == 1 else [[[d * v for v in f] for f in fs] for fs in froms]
    nonzero = [[[(k - k % m, k % m, v) for k, v in enumerate(f) if v] for f in fs] for fs in froms]
    for p in points:
        for q in range(n):
            rows = [part[(p * n + q) * m : (p * n + q + 1) * m] for part in parts]
            # d·dθ(p, q, r) = d·(θ(q, r) − θ(p, r) + θ(p, q))
            blocks = [
                list(map(operator.add, map(operator.sub, f[q], f[p]), [d * v for v in row] * n))
                for f, row in zip(scaled, rows)
            ]
            for j, l, k, sign in terms:
                out = blocks[k]
                for a, va in enumerate(rows[j]):
                    if va:
                        moved, va = mul[a], sign * va
                        for base, b, vb in nonzero[l][q]:
                            out[base + moved[b]] += va * vb
            yield blocks[0], None if im is None else blocks[1]


# ---------------------------------------------------------------------------
# densities: spaces, scans and small builders


def _same_space(*maps: FormValuedMap) -> None:
    """Raise unless every map has the first one's group and points."""
    first = maps[0]
    if any(f.group != first.group or f.size != first.size for f in maps):
        raise ValueError("form-valued maps live on different spaces")


def _map_of(like: FormValuedMap, degree: int, view) -> FormValuedMap:
    """The map of a degree over `like`'s group and points holding a view."""
    return FormValuedMap(like.group, like.size, degree, view=view)


def _rows_at(part: list[int], n: int, m: int, pairs: Iterable[tuple[int, int]]) -> Iterable[int]:
    """The group rows of one part of a degree-1 view on n points at each
    point pair in turn, end to end."""
    return itertools.chain.from_iterable(
        part[(p * n + q) * m : (p * n + q + 1) * m] for p, q in pairs
    )


def _orbit_pairs(b: BundleSpec) -> Iterable[tuple[int, int]]:
    """(p, p.a) for every point p and group element a, in that order."""
    return ((p, q) for p, row in enumerate(b.action.table) for q in row)


def _translated_pairs(b: BundleSpec) -> Iterable[tuple[int, int]]:
    """(p.a, q.a) for every pair of points (p, q) and group element a, in that order."""
    act = b.action.table
    return ((rp[a], rq[a]) for rp in act for rq in act for a in range(b.group.order))


def _covariance_witness(gamma: FormValuedMap, b: BundleSpec, relabel: list[int]):
    """First (p, q, a, c) at which a degree-1 density γ differs between
    γ(p.a, q.a, c) and γ(p, q, relabel[a·m + c]), or None."""
    n, m = gamma.size, gamma.group.order
    read = operator.itemgetter(*relabel)

    def relabelled(part):
        # each (p, q) row read at every (a, c), in C; over the one-element
        # group `read` gives the entry itself, not a 1-tuple
        rows = map(read, zip(*[iter(part)] * m))
        return rows if m == 1 else itertools.chain.from_iterable(rows)

    translated = gathered(gamma.view, lambda part: _rows_at(part, n, m, _translated_pairs(b)))
    return first_difference(translated, gathered(gamma.view, relabelled), (n, n, m, m))


def _zeros():
    """The view of an all-zero table, as long as the other side of a comparison."""
    return 1, itertools.repeat(0), None


def _unit_normalization_witness(gamma: FormValuedMap) -> tuple[int, int] | None:
    """First point pair whose degree-1 density does not sum to zero over the group."""
    n, m = gamma.size, gamma.group.order
    # zip of m references to one iterator reads the part a row at a time
    sums = gathered(gamma.view, lambda part: map(sum, zip(*[iter(part)] * m)))
    return first_difference(sums, _zeros(), (n, n))


def _diagonal_witness(gamma: FormValuedMap) -> tuple[int, int] | None:
    """First (point, group element) where a degree-1 density is nonzero on the diagonal."""
    n, m = gamma.size, gamma.group.order
    diagonal = gathered(gamma.view, lambda part: _rows_at(part, n, m, ((p, p) for p in range(n))))
    return first_difference(diagonal, _zeros(), (n, m))


def _points_read(gamma: FormValuedMap, b: BundleSpec):
    """Where a potential on the base or on the total space reads each
    point of a framed bundle: through the orbit projection, or directly."""
    if b.phi is None:
        raise ValueError("bundle has no trivialization")
    if gamma.group != b.group or gamma.size not in (b.base.size, b.total_size):
        raise ValueError("potential does not match the bundle")
    return b.base.projection if gamma.size == b.base.size else range(b.total_size)


def _unit_rows(m: int, plus: Iterable[int], minus: Iterable[int]):
    """The view of rows of m entries, each 1 at its `plus` element and -1
    at its `minus` element, all zero where the two coincide; end to end."""

    def entries():
        for a, c in zip(plus, minus):
            row = [0] * m
            if a != c:
                row[a] = 1
                row[c] = -1
            yield from row

    return 1, entries(), None
