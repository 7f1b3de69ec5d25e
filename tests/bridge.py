"""Scalars in and out of tables, and the reference groups and maps, for
the tests.

qpb's tables take and give only their int view (d, re, im), and a
function on the total space, the base, B x G or a group is that bare
view.  The tests keep `Scalar` as their reference arithmetic, so they
build views and tables from Scalars and read entries back as Scalars
through this module: `to_ints` and `from_ints` turn a list of Scalars
into a view and back, `view_of` makes a canonical view, `map_of` and
`build` make tables, `plus` adds or subtracts two views or tables,
`scalars_of` reads either and `scalar_at` reads a table's entry by its
index, `is_zero` tests either, `parts` splits a Scalar into its
Fractions, `indices` walks a shape in row-major order, and `named`
finds a check of a report by its name.  A table is built from Scalars
only after the size guard, as the library reads a view.

The library compares its curvature routes a point pair at a time and
holds no whole table; the tests keep the whole-table path as their
reference.  `assembled` makes the table of a `(d, pairs)` stream, as
`kernels.curvature_rows`, `connection.curvature_from_potential` and
`connection.curvature_classical` give one; `curvature`,
`potential_curvature` and `classical_curvature` are the three routes'
tables; and `validate_form` is the scan of a table at its adjacent
repeats that the curvature suite's `form_validity` streams.

The tests' own constructions live here too, since no command reaches
them: the groups `cyclic` and `direct_product` and the element names
`label` they give, the elementary tensor `tensor_identify`, the pairing
`apply` of a form with a group table, `trivial_connection`, the
connection of a frame by the convolution route φ⁻¹⋆dφ, the composition
and inverse of bundle automorphisms, and the Hopf structure maps of a
group's function algebra, on views: the indicators `basis`, and the
coproduct, which is the library's `coaction` of the group acting on
itself by right multiplication; the counit, the antipode and the
adjoint coaction read a view's entries.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm, prod
from operator import attrgetter

from qpb import connection
from qpb.bundle import coaction
from qpb.calculus import differential
from qpb.connection import star_delta
from qpb.funcs import FormValuedMap, guard_table_size, unravel
from qpb.gauge import BundleAutomorphism
from qpb.groups import BundleSpec, FiniteGroup, RightAction
from qpb.kernels import curvature_rows
from qpb.potentials import _phi_form_valued
from qpb.report import CheckResult, Report
from qpb.scalars import ZERO, Scalar, _reduced
from qpb.views import add_views, canonical, gathered, indicator, lowest_terms, mul_views, take

_nums, _imags, _dens = attrgetter("_a"), attrgetter("_b"), attrgetter("_d")


def to_ints(values: list[Scalar]) -> tuple[int, list[int], list[int] | None]:
    """The common-denominator view (d, re, im) of a list of Scalars.

    Entry k is (re[k] + im[k]·i)/d with d the lcm of the denominators;
    im is None when every entry is real.
    """
    re = list(map(_nums, values))
    im = list(map(_imags, values)) if any(map(_imags, values)) else None
    dens = set(map(_dens, values))
    if len(dens) <= 1:
        return (dens.pop() if dens else 1), re, im
    d = lcm(*dens)
    scale = [d // e for e in map(_dens, values)]
    re = [a * k for a, k in zip(re, scale)]
    if im is not None:
        im = [b * k for b, k in zip(im, scale)]
    return d, re, im


def from_ints(d: int, re: list[int], im: list[int] | None) -> list[Scalar]:
    """The Scalars of a view: one canonical Scalar per nonzero entry, ZERO
    itself for every zero entry."""
    imag = itertools.repeat(0) if im is None else im
    return [_reduced(a, b, d) if a or b else ZERO for a, b in zip(re, imag)]


def indices(shape: tuple[int, ...]):
    """The index tuples of a shape in row-major order."""
    return itertools.product(*(range(n) for n in shape))


def _view(shape: tuple[int, ...], values):
    guard_table_size(prod(shape))
    return to_ints(values if isinstance(values, list) else list(values))


def view_of(values):
    """The canonical view of a list of Scalars, as the library keeps one."""
    return canonical(*to_ints(values if isinstance(values, list) else list(values)))


def map_of(group: FiniteGroup, size: int, degree: int, values) -> FormValuedMap:
    """The FormValuedMap whose density is the Scalars `values`."""
    shape = (size,) * (degree + 1) + (group.order,)
    return FormValuedMap(group, size, degree, view=_view(shape, values))


def build(group: FiniteGroup, size: int, degree: int, fn) -> FormValuedMap:
    """Density from fn(*points, c), points varying slowest-first."""
    shape = (size,) * (degree + 1) + (group.order,)
    return map_of(group, size, degree, (fn(*idx) for idx in indices(shape)))


def _view_of(x):
    """The view of a table, or the view itself."""
    return x.view if isinstance(x, FormValuedMap) else x


def scalars_of(x) -> list[Scalar]:
    """The entries of a table or a view as Scalars, row-major."""
    return from_ints(*_view_of(x))


def scalar_at(table: FormValuedMap, *idx: int) -> Scalar:
    """One entry of a table as a Scalar, at an index checked against its shape."""
    if len(idx) != len(table.shape) or not all(0 <= i < n for i, n in zip(idx, table.shape)):
        raise ValueError(f"index {idx} out of range for shape {table.shape}")
    k = 0
    for i, n in zip(idx, table.shape):
        k = k * n + i
    d, re, im = table.view
    return from_ints(d, re[k : k + 1], im and im[k : k + 1])[0]


def plus(x, y, sign: int = 1):
    """x + sign·y, sign ±1, of two tables of one layout or two views of
    one length, made from the sum of their views: the library has no
    sum or difference of tables."""
    y_view = _view_of(y)
    if sign < 0:
        y_view = gathered(y_view, lambda part: [-v for v in part])
    view = add_views(_view_of(x), y_view)
    if isinstance(x, FormValuedMap):
        return FormValuedMap(x.group, x.size, x.degree, view=view)
    return canonical(*view)


def is_zero(x) -> bool:
    """Whether every entry of a table or a view is zero."""
    _d, re, im = _view_of(x)
    return (im is None or not any(im)) and not any(re)


def scalar(triple: tuple[int, int, int]) -> Scalar:
    """The Scalar of a canonical triple (a, b, d), as `parse_scalar` gives one."""
    a, b, d = triple
    return from_ints(d, [a], [b])[0]


def parts(s: Scalar) -> tuple[Fraction, Fraction]:
    """The real and imaginary parts of a Scalar, as Fractions."""
    return Fraction(s._a, s._d), Fraction(s._b, s._d)


def named(report, name: str):
    """The check of a report that is called `name`."""
    return next(c for c in report.checks if c.name == name)


# ---------------------------------------------------------------------------
# the whole-table curvature path


def assembled(stream, group: FiniteGroup, size: int) -> FormValuedMap:
    """The degree-2 map on `size` points whose entries are a `(d, pairs)`
    curvature stream's blocks end to end."""
    d, blocks = stream
    re, im = [], []
    for block_re, block_im in blocks:
        re += block_re
        im += [0] * len(block_re) if block_im is None else block_im
    return FormValuedMap(group, size, 2, view=(d, re, im))


def curvature(theta: FormValuedMap) -> FormValuedMap:
    """dθ + θ⋆θ as one table: route 1's pairs, assembled."""
    return assembled(curvature_rows(theta), theta.group, theta.size)


def potential_curvature(gamma: FormValuedMap, b: BundleSpec) -> FormValuedMap:
    """Route 2 as one table: `connection.curvature_from_potential`, assembled."""
    return assembled(connection.curvature_from_potential(gamma, b), b.group, b.total_size)


def classical_curvature(tm, b: BundleSpec) -> FormValuedMap:
    """The classical route as one table: `connection.curvature_classical`, assembled."""
    return assembled(connection.curvature_classical(tm, b), b.group, b.total_size)


def validate_form(f: FormValuedMap) -> Report:
    """Check vanishing on adjacent repeated points.

    `f` is checked one group slice at a time, in order; the witness is
    (group element, *points).  Only the point tuples with an adjacent
    repeat are read.
    """
    width = f.group.order
    repeats = _adjacent_repeats(f.size, f.degree)
    _d, re, im = f.view
    witness = None
    for c in range(width):
        t = next((t for t in repeats if re[t * width + c] or im and im[t * width + c]), None)
        if t is not None:
            witness = (c,) + unravel(t, (f.size,) * (f.degree + 1))
            break
    report = Report()
    report.add(CheckResult("form.adjacent_vanishing", witness is None, witness))
    return report


def _adjacent_repeats(size: int, degree: int) -> list[int]:
    """Flat positions, ascending, of the (degree + 1)-tuples of points
    whose arguments j and j + 1 coincide for some j."""
    found = set()
    for j in range(degree):
        lo = size ** (degree - 1 - j)
        for head in range(size**j):
            for x in range(size):
                first = ((head * size + x) * size + x) * lo
                found.update(range(first, first + lo))
    return sorted(found)


# ---------------------------------------------------------------------------
# reference groups, the tensor and pairing of tables, the trivial connection


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["e"] + ["g" if k == 1 else f"g{k}" for k in range(1, n)]
    return FiniteGroup(table, labels)


def label(g: FiniteGroup, a: int) -> str:
    """The name of an element: its label, or its index when there are none."""
    return g.labels[a] if g.labels else str(a)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    n1, n2 = g1.order, g2.order
    table = [
        [
            g1.table[a1][b1] * n2 + g2.table[a2][b2]
            for b1 in range(n1)
            for b2 in range(n2)
        ]
        for a1 in range(n1)
        for a2 in range(n2)
    ]
    labels = [
        f"({label(g1, a1)},{label(g2, a2)})" for a1 in range(n1) for a2 in range(n2)
    ]
    return FiniteGroup(table, labels)


def tensor_identify(f, g):
    """C(X) tensor C(Y) = C(X x Y): the elementary tensor of two views as
    the view on X x Y, each entry of f repeated against the whole of g."""
    nf, ng = len(f[1]), len(g[1])
    guard_table_size(nf * ng)
    left = gathered(f, lambda part: [a for a in part for _ in range(ng)])
    right = gathered(g, lambda part: part * nf)
    return canonical(*mul_views(left, right))


def apply(form: FormValuedMap, alpha):
    """The form paired with a group-algebra element, given as a view on
    the group, as the view on point tuples, row-major."""
    m = form.group.order
    if len(alpha[1]) != m:
        raise ValueError(f"expected a view of {m} entries, got {len(alpha[1])}")
    # the group table tiled over the point tuples, then a sum per tuple
    npts = form.size ** (form.degree + 1)
    products = mul_views(form.view, gathered(alpha, lambda part: part * npts))
    return canonical(*gathered(products, lambda part: list(map(sum, zip(*[iter(part)] * m)))))


def trivial_connection(b: BundleSpec) -> FormValuedMap:
    """Connection of a trivialized bundle, via the convolution route."""
    phi_fv, phi_inv_fv = _phi_form_valued(b)
    return star_delta(phi_inv_fv, differential(phi_fv))


# ---------------------------------------------------------------------------
# the Hopf algebra of functions on a group


def basis(g: FiniteGroup):
    """The indicators of the group's elements, as views."""
    return (indicator(g.order, a) for a in range(g.order))


def coproduct(g: FiniteGroup, alpha):
    """[coproduct(a)](x, y) = a(xy), the view on G x G with (x, y) at
    x·n + y: the coaction of G acting on itself by right multiplication."""
    return coaction(BundleSpec(g, RightAction(g, g.table)), alpha)


def counit(g: FiniteGroup, alpha) -> tuple[int, int, int]:
    """a(e) as its canonical triple (a, b, d)."""
    if g.identity is None:
        raise ValueError("the counit needs a group with an identity")
    d, re, im = alpha
    return lowest_terms(re[g.identity], 0 if im is None else im[g.identity], d)


def antipode(g: FiniteGroup, alpha):
    """[antipode(a)](x) = a(x^-1)."""
    inverses = [g.inv(x) for x in range(g.order)]
    return gathered(alpha, lambda part: list(take(inverses)(part)))


def adjoint_coaction(g: FiniteGroup, alpha):
    """[adjoint(a)](x, y) = a(y^-1 x y), the view on G x G with (x, y)
    at x·n + y."""
    n = g.order
    positions = [g.conj(x, y) for x in range(n) for y in range(n)]
    return gathered(alpha, lambda part: list(take(positions)(part)))


# ---------------------------------------------------------------------------
# the group laws of bundle automorphisms


def compose(xi: BundleAutomorphism, other: BundleAutomorphism) -> BundleAutomorphism:
    """Point-map composition: xi after other."""
    if xi.group != other.group or xi.base_size != other.base_size:
        raise ValueError("automorphisms live on different bundles")
    return BundleAutomorphism(
        xi.group,
        [
            [xi.trans[x][other.trans[x][a]] for a in range(xi.group.order)]
            for x in range(xi.base_size)
        ],
    )


def inverse(xi: BundleAutomorphism) -> BundleAutomorphism:
    m = xi.group.order
    out = []
    for x in range(xi.base_size):
        row = [0] * m
        seen = [False] * m
        for a in range(m):
            row[xi.trans[x][a]] = a
            seen[xi.trans[x][a]] = True
        if not all(seen):
            raise ValueError(f"fiber map at base point {x} is not a bijection")
        out.append(row)
    return BundleAutomorphism(xi.group, out)
