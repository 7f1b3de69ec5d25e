"""Seeded document generator for the benchmark.

Everything here is built from the seed with the benchmark's own group
tables; nothing is produced by qpb.  Each document comes with the answer
the benchmark expects from the CLI (see ``oracle.py``).
"""

from __future__ import annotations

import copy
import itertools
import json
import random

from oracle import is_cocycle

# zero-sum triples of non-integer rationals for gamma_hat cells; every
# off-diagonal cell gets exactly one triple, so the nonzero count (and
# with it the work) does not depend on the seed
RATIONAL_TRIPLES = (
    ("1/2", "-1/3", "-1/6"),
    ("1", "-1/2", "-1/2"),
    ("2/3", "-1/3", "-1/3"),
    ("-1/2", "1/3", "1/6"),
    ("3/4", "-1/4", "-1/2"),
)
RATIONAL_PAIRS = (("1/2", "-1/2"), ("1/3", "-1/3"), ("-2/3", "2/3"))


class Group:
    """Multiplication table with identity 0 and an inverse table."""

    def __init__(self, table: list[list[int]]):
        self.table = table
        self.order = len(table)
        self.inv = [next(b for b in range(self.order) if table[a][b] == 0) for a in range(self.order)]

    def mul(self, *xs: int) -> int:
        out = 0
        for x in xs:
            out = self.table[out][x]
        return out


def cyclic(n: int) -> Group:
    return Group([[(a + b) % n for b in range(n)] for a in range(n)])


def s3() -> Group:
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    # lexicographic order, identity first; a*b applies a, then b
    table = [[index[tuple(b[a[i]] for i in range(3))] for b in perms] for a in perms]
    return Group(table)


GROUPS = {"S3": s3, "Z2": lambda: cyclic(2), "Z3": lambda: cyclic(3), "Z4": lambda: cyclic(4),
          "Z6": lambda: cyclic(6), "Z8": lambda: cyclic(8), "Z12": lambda: cyclic(12)}


class Doc:
    """One generated input file and what the benchmark knows about it.

    ``kind`` is ``product`` (positive product bundle), ``self`` (a group
    acting on itself), ``fixture``, ``mutant`` or ``malformed``.
    """

    def __init__(self, name: str, text: str, kind: str, group: Group | None = None,
                 base_size: int = 0, raw: dict | None = None, expect: dict | None = None):
        self.name = name
        self.text = text
        self.kind = kind
        self.group = group
        self.base_size = base_size
        self.raw = raw
        self.expect = expect or {}


def dump(raw: dict) -> str:
    return json.dumps(raw, separators=(",", ":")) + "\n"


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def non_cocycle_transition(g: Group, nb: int, rng: random.Random) -> list[list[int]]:
    """Random transition table with identity diagonal that is not a cocycle."""
    while True:
        t = [[0 if x == y else rng.randrange(g.order) for y in range(nb)] for x in range(nb)]
        if nb > 1 and not is_cocycle(g, t):
            return t


def rational_density(g: Group, nb: int, rng: random.Random) -> list:
    """gamma_hat density: zero on the diagonal, each cell a zero-sum tuple."""
    out = []
    for x in range(nb):
        plane = []
        for y in range(nb):
            cell = ["0"] * g.order
            if x != y:
                values = rng.choice(RATIONAL_TRIPLES if g.order >= 3 else RATIONAL_PAIRS)
                for c, v in zip(rng.sample(range(g.order), len(values)), values):
                    cell[c] = v
            plane.append(cell)
        out.append(plane)
    return out


def product_doc(seed: int, gname: str, nb: int, explicit: bool = False) -> Doc:
    """Product bundle G x nb with a classical, a rational and a gauge.

    With ``explicit`` the action and phi are written out as tables, so
    mutants can change single entries of them.
    """
    g = GROUPS[gname]()
    name = f"{gname}x{nb}"
    rng = _rng(seed, name)
    m = g.order
    raw: dict = {"format_version": 1, "name": name, "group": {"mul": g.table}}
    if explicit:
        raw["action"] = {"act": [[x * m + g.table[a][b] for b in range(m)]
                                 for x in range(nb) for a in range(m)]}
        raw["trivialization"] = {"phi": [a for _x in range(nb) for a in range(m)]}
    else:
        raw["product_bundle"] = {"base_size": nb}
    connections = []
    if nb > 1:
        connections.append({"name": "cls", "kind": "classical",
                            "transition": non_cocycle_transition(g, nb, rng)})
        connections.append({"name": "rat", "kind": "gamma_hat",
                            "density": rational_density(g, nb, rng)})
    raw["connections"] = connections
    raw["gauges"] = [{"name": "tau", "tau_hat": [rng.randrange(m) for _ in range(nb)]}]
    return Doc(name, dump(raw), "product", g, nb, raw)


def self_doc(gname: str = "S3") -> Doc:
    """A group acting on itself by right multiplication, frame synthesized."""
    g = GROUPS[gname]()
    name = f"{gname}-self"
    raw = {
        "format_version": 1,
        "name": name,
        "group": {"mul": g.table},
        "action": {"act": [list(row) for row in g.table]},
        "connections": [{"name": "flat", "kind": "classical", "transition": [[0]]}],
        "gauges": [{"name": "rot", "tau_hat": [1]}],
    }
    return Doc(name, dump(raw), "self", g, 1, raw)


def fixture_docs() -> list[Doc]:
    """The four example documents qpb ships, written out independently."""
    z2 = cyclic(2)
    s = s3()
    raws = {
        "fix-z2": {
            "format_version": 1, "name": "fix-z2",
            "group": {"mul": z2.table, "labels": ["e", "g"]},
            "action": {"act": [[0, 2], [1, 3], [2, 0], [3, 1]]},
            "trivialization": {"phi": [0, 0, 1, 1]},
            "connections": [{"name": "cls", "kind": "classical", "transition": [[0, 1], [0, 0]]}],
            "gauges": [{"name": "flip", "tau_hat": [1, 0]}],
        },
        "fix-s3": {
            "format_version": 1, "name": "fix-s3",
            "group": {"mul": s.table, "labels": ["012", "021", "102", "120", "201", "210"]},
            "action": {"act": [list(r) for r in s.table]},
            "trivialization": {"phi": list(range(6))},
            "connections": [{"name": "flat", "kind": "classical", "transition": [[0]]}],
            "gauges": [{"name": "rot", "tau_hat": [1]}],
        },
        "fix-prod": {
            "format_version": 1, "name": "fix-prod",
            "group": {"mul": cyclic(3).table, "labels": ["e", "g", "g2"]},
            "product_bundle": {"base_size": 2},
            "connections": [
                {"name": "cls", "kind": "classical", "transition": [[0, 1], [2, 0]]},
                {"name": "rational", "kind": "gamma_hat",
                 "density": [[["0", "0", "0"], ["1", "-1/2", "-1/2"]],
                             [["0", "1/3", "-1/3"], ["0", "0", "0"]]]},
            ],
            "gauges": [{"name": "twist", "tau_hat": [1, 2]}],
        },
        "fix-nonfree": {
            "format_version": 1, "name": "fix-nonfree",
            "group": {"mul": z2.table, "labels": ["e", "g"]},
            "action": {"act": [[0, 0], [1, 1]]},
        },
    }
    groups = {"fix-z2": z2, "fix-s3": s, "fix-prod": cyclic(3), "fix-nonfree": z2}
    expect = {"fix-nonfree": {"exit": 1, "first_failure": "action.freeness"}}
    return [Doc(name, dump(raw), "fixture", groups[name], 0, raw, expect.get(name))
            for name, raw in raws.items()]


def mutants(seed: int, base: Doc) -> list[Doc]:
    """Single-entry mutants of an explicit-table document, one per kind."""
    g, raw = base.group, base.raw
    rng = _rng(seed, f"mutants:{base.name}")
    out = []

    m = copy.deepcopy(raw)
    # a group acting on itself by right multiplication has frame phi(p) = p
    phi = m.setdefault("trivialization", {"phi": list(range(len(raw["action"]["act"])))})["phi"]
    p = rng.randrange(len(phi))
    phi[p] = (phi[p] + 1 + rng.randrange(g.order - 1)) % g.order
    out.append(Doc(f"{base.name}-phi", dump(m), "mutant", g, base.base_size, m,
                   {"exit": 1, "first_failure": "trivialization."}))

    if base.base_size > 1:
        m = copy.deepcopy(raw)
        cls = next(c for c in m["connections"] if c["kind"] == "classical")
        x = rng.randrange(base.base_size)
        cls["transition"][x][x] = 1 + rng.randrange(g.order - 1)
        out.append(Doc(f"{base.name}-diag", dump(m), "mutant", g, base.base_size, m,
                       {"exit": 1,
                        "first_failure": f"connection:{cls['name']}.transition.diagonal_identity"}))

        m = copy.deepcopy(raw)
        rat = next(c for c in m["connections"] if c["kind"] == "gamma_hat")
        x, y = rng.sample(range(base.base_size), 2)
        cell = rat["density"][x][y]
        c = rng.randrange(g.order)
        cell[c] = "1/7" if cell[c] == "0" else "0"
        out.append(Doc(f"{base.name}-rowsum", dump(m), "mutant", g, base.base_size, m,
                       {"exit": 1,
                        "first_failure": f"connection:{rat['name']}.base_potential.unit_normalization"}))

    m = copy.deepcopy(raw)
    for key in ("connections", "gauges", "trivialization"):
        m.pop(key, None)
    act = m["action"]["act"]
    p, a = rng.randrange(len(act)), rng.randrange(g.order)
    act[p][a] = (act[p][a] + 1 + rng.randrange(len(act) - 1)) % len(act)
    out.append(Doc(f"{base.name}-act", dump(m), "mutant", g, base.base_size, m,
                   {"exit": 1, "first_failure": "action."}))
    return out


def malformed(seed: int, base: Doc) -> list[Doc]:
    """Four broken variants of a document; each must exit 2 cleanly."""
    rng = _rng(seed, f"malformed:{base.name}")
    expect = {"exit": 2}
    out = []
    cut = len(base.text) // 3 + rng.randrange(len(base.text) // 3)
    out.append(Doc(f"{base.name}-truncated", base.text[:cut], "malformed", expect=expect))

    m = copy.deepcopy(base.raw)
    rat = next((c for c in m["connections"] if c["kind"] == "gamma_hat"), None)
    if rat is None:
        nb, order = base.base_size, base.group.order
        rat = {"name": "flt", "kind": "gamma_hat",
               "density": [[[0] * order for _y in range(nb)] for _x in range(nb)]}
        m["connections"].append(rat)
    x = rng.randrange(base.base_size)
    y = rng.randrange(base.base_size)
    rat["density"][x][y][rng.randrange(base.group.order)] = 0.5
    out.append(Doc(f"{base.name}-float", dump(m), "malformed", expect=expect))

    m = copy.deepcopy(base.raw)
    tau = m["gauges"][0]["tau_hat"]
    tau[rng.randrange(len(tau))] = base.group.order + rng.randrange(3)
    out.append(Doc(f"{base.name}-tau-range", dump(m), "malformed", expect=expect))

    m = copy.deepcopy(base.raw)
    m[rng.choice(["extra", "comment", "version"])] = 1
    out.append(Doc(f"{base.name}-unknown-key", dump(m), "malformed", expect=expect))
    return out
