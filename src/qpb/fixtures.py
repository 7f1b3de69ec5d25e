"""Built-in example bundles: three positive fixtures and a negative one.

These back the shipped specification documents and the test suite.
"""

from __future__ import annotations

from .groups import BundleSpec, RightAction, cyclic, make_product, symmetric

__all__ = [
    "fix_z2",
    "fix_s3",
    "fix_prod",
    "fix_nonfree",
    "fixture_documents",
]


def fix_z2() -> BundleSpec:
    """Four points, two-element group, shift-by-two action, two orbits."""
    g = cyclic(2)
    action = RightAction(g, [[p, (p + 2) % 4] for p in range(4)])
    return BundleSpec(g, action, phi=[0, 0, 1, 1], name="fix-z2")


def fix_s3() -> BundleSpec:
    """The symmetric group on three letters acting on itself."""
    g = symmetric(3)
    action = RightAction(g, [list(row) for row in g.table])
    return BundleSpec(g, action, phi=list(range(6)), name="fix-s3")


def fix_prod() -> BundleSpec:
    """Product bundle: two base points times a three-element cyclic group."""
    b = make_product(2, cyclic(3))
    b.name = "fix-prod"
    return b


def fix_nonfree() -> BundleSpec:
    """Trivial two-element-group action on two points; never free."""
    g = cyclic(2)
    action = RightAction(g, [[0, 0], [1, 1]])
    return BundleSpec(g, action, name="fix-nonfree")


def fixture_documents() -> dict[str, dict]:
    """Specification documents for the catalogue, keyed by file name."""
    z2 = {
        "format_version": 1,
        "name": "fix-z2",
        "group": {"mul": [[0, 1], [1, 0]], "labels": ["e", "g"]},
        "action": {"act": [[0, 2], [1, 3], [2, 0], [3, 1]]},
        "trivialization": {"phi": [0, 0, 1, 1]},
        "connections": [
            {"name": "cls", "kind": "classical", "transition": [[0, 1], [0, 0]]}
        ],
        "gauges": [{"name": "flip", "tau_hat": [1, 0]}],
    }
    s3 = symmetric(3)
    s3_doc = {
        "format_version": 1,
        "name": "fix-s3",
        "group": {"mul": [list(row) for row in s3.table], "labels": list(s3.labels)},
        "action": {"act": [list(row) for row in s3.table]},
        "trivialization": {"phi": list(range(6))},
        "connections": [{"name": "flat", "kind": "classical", "transition": [[0]]}],
        "gauges": [{"name": "rot", "tau_hat": [1]}],
    }
    prod = {
        "format_version": 1,
        "name": "fix-prod",
        "group": {"mul": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "labels": ["e", "g", "g2"]},
        "product_bundle": {"base_size": 2},
        "connections": [
            {"name": "cls", "kind": "classical", "transition": [[0, 1], [2, 0]]},
            {
                "name": "rational",
                "kind": "gamma_hat",
                "density": [
                    [["0", "0", "0"], ["1", "-1/2", "-1/2"]],
                    [["0", "1/3", "-1/3"], ["0", "0", "0"]],
                ],
            },
        ],
        "gauges": [{"name": "twist", "tau_hat": [1, 2]}],
    }
    nonfree = {
        "format_version": 1,
        "name": "fix-nonfree",
        "group": {"mul": [[0, 1], [1, 0]], "labels": ["e", "g"]},
        "action": {"act": [[0, 0], [1, 1]]},
    }
    return {
        "fix_z2.json": z2,
        "fix_s3.json": s3_doc,
        "fix_prod.json": prod,
        "fix_nonfree.json": nonfree,
    }
