"""Specification documents: the JSON file format of the command line tool.

Parsing is total: any input yields either a validated SpecDocument or a
SpecError carrying the path of the first problem.  Densities accept
integers or exact literals like "-1/2" and "1/3+2/5i"; floats are
rejected.  Each literal parses to its canonical triple (a, b, d), and a
density straight to the int view its table stores, so parsing makes no
Scalar.
"""

from __future__ import annotations

import json
from math import lcm

# CPython's built-in SHA-256, the one hashlib falls back to: hashlib
# itself would load OpenSSL's libcrypto to digest one document
try:
    from _sha2 import sha256  # 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .funcs import FormValuedMap
from .groups import BundleSpec, FiniteGroup, GaugeMap, RightAction, TransitionMap, make_product
from .views import parse_scalar

__all__ = ["SpecDocument", "ConnectionDecl", "GaugeDecl", "SpecError", "parse_spec"]

CONNECTION_KINDS = ("theta", "gamma", "gamma_hat", "classical")


class SpecError(ValueError):
    """A document problem with the path of its first occurrence."""

    def __init__(self, message: str, path: str = ""):
        self.message = message
        self.path = path
        super().__init__(f"{message} at {path}" if path else message)


class ConnectionDecl:
    def __init__(self, name: str, kind: str, payload: FormValuedMap | TransitionMap):
        self.name = name
        self.kind = kind
        self.payload = payload


class GaugeDecl:
    def __init__(self, name: str, gauge: GaugeMap):
        self.name = name
        self.gauge = gauge


class SpecDocument:
    def __init__(
        self,
        name: str | None,
        group: FiniteGroup,
        bundle: BundleSpec,
        connections: list[ConnectionDecl],
        gauges: list[GaugeDecl],
        digest: str,
    ):
        self.name = name
        self.group = group
        self.bundle = bundle
        self.connections = connections
        self.gauges = gauges
        self.digest = digest

    def connection(self, name: str) -> ConnectionDecl | None:
        return next((c for c in self.connections if c.name == name), None)

    def gauge(self, name: str) -> GaugeDecl | None:
        return next((g for g in self.gauges if g.name == name), None)


def parse_spec(text: str) -> SpecDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise SpecError("invalid JSON: nested too deeply") from exc
    if not isinstance(raw, dict):
        raise SpecError("document must be a JSON object")

    known = {
        "format_version",
        "name",
        "group",
        "action",
        "product_bundle",
        "trivialization",
        "connections",
        "gauges",
    }
    for key in raw:
        if key not in known:
            raise SpecError("unknown key", key)

    version = raw.get("format_version")
    if version != 1:
        raise SpecError(f"unsupported format_version {version!r}", "format_version")

    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise SpecError("name must be a string", "name")

    group = _parse_group(raw)
    bundle = _parse_bundle(raw, group)
    connections = _parse_connections(raw, group, bundle)
    gauges = _parse_gauges(raw, group, bundle)

    digest = sha256(text.encode("utf-8")).hexdigest()
    return SpecDocument(name, group, bundle, connections, gauges, digest)


def _index(v, bound: int, path: str) -> None:
    """Raise unless v is an int (not a bool) in range(bound)."""
    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < bound:
        raise SpecError("index out of range", path)


def _no_extra_keys(spec: dict, allowed: set[str], prefix: str) -> None:
    """Raise naming the first key, in sorted order, that is not allowed."""
    extra = set(spec) - allowed
    if extra:
        raise SpecError("unknown key", f"{prefix}.{min(extra)}")


def _parse_group(raw: dict) -> FiniteGroup:
    spec = raw.get("group")
    if not isinstance(spec, dict):
        raise SpecError("missing or malformed group object", "group")
    mul = spec.get("mul")
    if not isinstance(mul, list) or not mul:
        raise SpecError("group needs a non-empty mul table", "group.mul")
    order = len(mul)
    for i, row in enumerate(mul):
        if not isinstance(row, list) or len(row) != order:
            raise SpecError(f"mul row must have {order} entries", f"group.mul[{i}]")
        for j, v in enumerate(row):
            _index(v, order, f"group.mul[{i}][{j}]")
    labels = spec.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or len(labels) != order
            or not all(isinstance(s, str) for s in labels)
        ):
            raise SpecError(f"labels must be {order} strings", "group.labels")
    _no_extra_keys(spec, {"mul", "labels", "order"}, "group")
    declared = spec.get("order")
    if declared is not None and declared != order:
        raise SpecError(f"declared order {declared} but mul table has {order} rows", "group.order")
    return FiniteGroup([list(r) for r in mul], labels)


def _parse_bundle(raw: dict, group: FiniteGroup) -> BundleSpec:
    action_spec = raw.get("action")
    product_spec = raw.get("product_bundle")
    if (action_spec is None) == (product_spec is None):
        raise SpecError("exactly one of action or product_bundle is required")

    if product_spec is not None:
        if not isinstance(product_spec, dict):
            raise SpecError("product_bundle must be an object", "product_bundle")
        base_size = product_spec.get("base_size")
        if not isinstance(base_size, int) or isinstance(base_size, bool) or base_size < 1:
            raise SpecError("base_size must be a positive integer", "product_bundle.base_size")
        _no_extra_keys(product_spec, {"base_size"}, "product_bundle")
        bundle = make_product(base_size, group)
    else:
        if not isinstance(action_spec, dict):
            raise SpecError("action must be an object", "action")
        act = action_spec.get("act")
        if not isinstance(act, list) or not act:
            raise SpecError("action needs a non-empty act table", "action.act")
        n = len(act)
        for p, row in enumerate(act):
            if not isinstance(row, list) or len(row) != group.order:
                raise SpecError(
                    f"act row must have {group.order} entries", f"action[{p}]"
                )
            for a, q in enumerate(row):
                _index(q, n, f"action[{p}][{a}]")
        declared = action_spec.get("total_size")
        if declared is not None and declared != n:
            raise SpecError(
                f"declared total_size {declared} but act table has {n} rows",
                "action.total_size",
            )
        _no_extra_keys(action_spec, {"act", "total_size"}, "action")
        bundle = BundleSpec(group, RightAction(group, [list(r) for r in act]))

    triv = raw.get("trivialization")
    if triv is not None:
        if not isinstance(triv, dict):
            raise SpecError("trivialization must be an object", "trivialization")
        phi = triv.get("phi")
        if not isinstance(phi, list) or len(phi) != bundle.total_size:
            raise SpecError(
                f"phi must list {bundle.total_size} group indices", "trivialization.phi"
            )
        for p, a in enumerate(phi):
            _index(a, group.order, f"trivialization.phi[{p}]")
        _no_extra_keys(triv, {"phi"}, "trivialization")
        bundle = bundle.with_phi(list(phi))

    bundle.name = raw.get("name")
    return bundle


def _parse_scalar_entry(v, path: str) -> tuple[int, int, int]:
    """The canonical triple (a, b, d) of one density literal."""
    if isinstance(v, bool):
        raise SpecError("non-rational scalar literal", path)
    if isinstance(v, int):
        return v, 0, 1
    if isinstance(v, str):
        try:
            return parse_scalar(v)
        except ValueError as exc:
            raise SpecError(f"non-rational scalar literal ({exc})", path) from exc
    raise SpecError("non-rational scalar literal", path)


def _parse_density(
    spec: dict, path: str, size: int, order: int
) -> tuple[int, list[int], list[int] | None]:
    """The density's view (d, re, im) over the lcm of its literals'
    denominators, im None when every imaginary part is 0."""
    density = spec.get("density")
    if not isinstance(density, list) or len(density) != size:
        raise SpecError(f"density must have {size} rows", f"{path}.density")
    flat: list[tuple[int, int, int]] = []
    for i, plane in enumerate(density):
        if not isinstance(plane, list) or len(plane) != size:
            raise SpecError(f"density row must have {size} entries", f"{path}.density[{i}]")
        for j, cell in enumerate(plane):
            if not isinstance(cell, list) or len(cell) != order:
                raise SpecError(
                    f"density cell must have {order} entries", f"{path}.density[{i}][{j}]"
                )
            for k, v in enumerate(cell):
                flat.append(_parse_scalar_entry(v, f"{path}.density[{i}][{j}][{k}]"))
    d = lcm(*{e for _a, _b, e in flat})
    re = [a * (d // e) for a, _b, e in flat]
    im = [b * (d // e) for _a, b, e in flat] if any(b for _a, b, _e in flat) else None
    return d, re, im


def _declared_name(spec: dict, path: str, what: str, seen: set[str]) -> str:
    """A non-empty name, unique among its kind, without the ':' that
    separates the parts of a suite name such as gauge:<g>:<c>."""
    name = spec.get("name")
    if not isinstance(name, str) or not name:
        raise SpecError(f"{what} needs a name", f"{path}.name")
    if ":" in name:
        raise SpecError(f"{what} name must not contain ':'", f"{path}.name")
    if name in seen:
        raise SpecError(f"duplicate name {name!r}", f"{path}.name")
    seen.add(name)
    return name


def _parse_connections(raw: dict, group: FiniteGroup, bundle: BundleSpec) -> list[ConnectionDecl]:
    specs = raw.get("connections")
    if specs is None:
        return []
    if not isinstance(specs, list):
        raise SpecError("connections must be a list", "connections")
    out: list[ConnectionDecl] = []
    seen: set[str] = set()
    for k, spec in enumerate(specs):
        path = f"connections[{k}]"
        if not isinstance(spec, dict):
            raise SpecError("connection must be an object", path)
        cname = _declared_name(spec, path, "connection", seen)
        kind = spec.get("kind")
        if kind not in CONNECTION_KINDS:
            raise SpecError(
                f"kind must be one of {', '.join(CONNECTION_KINDS)}", f"{path}.kind"
            )
        _no_extra_keys(spec, {"name", "kind", "density", "transition"}, path)

        if kind == "classical":
            table = spec.get("transition")
            nb = bundle.base.size
            if not isinstance(table, list) or len(table) != nb:
                raise SpecError(f"transition must have {nb} rows", f"{path}.transition")
            for x, row in enumerate(table):
                if not isinstance(row, list) or len(row) != nb:
                    raise SpecError(
                        f"transition row must have {nb} entries", f"{path}.transition[{x}]"
                    )
                for y, v in enumerate(row):
                    _index(v, group.order, f"{path}.transition[{x}][{y}]")
            payload: FormValuedMap | TransitionMap
            payload = TransitionMap(group, [list(r) for r in table])
        else:
            # gamma_hat lives on the base; gamma and theta on the total space
            size = bundle.base.size if kind == "gamma_hat" else bundle.total_size
            view = _parse_density(spec, path, size, group.order)
            payload = FormValuedMap(group, size, 1, view=view)
        out.append(ConnectionDecl(cname, kind, payload))
    return out


def _parse_gauges(raw: dict, group: FiniteGroup, bundle: BundleSpec) -> list[GaugeDecl]:
    specs = raw.get("gauges")
    if specs is None:
        return []
    if not isinstance(specs, list):
        raise SpecError("gauges must be a list", "gauges")
    out: list[GaugeDecl] = []
    seen: set[str] = set()
    for k, spec in enumerate(specs):
        path = f"gauges[{k}]"
        if not isinstance(spec, dict):
            raise SpecError("gauge must be an object", path)
        gname = _declared_name(spec, path, "gauge", seen)
        table = spec.get("tau_hat")
        nb = bundle.base.size
        if not isinstance(table, list) or len(table) != nb:
            raise SpecError(f"tau_hat must list {nb} group indices", f"{path}.tau_hat")
        for x, v in enumerate(table):
            _index(v, group.order, f"{path}.tau_hat[{x}]")
        _no_extra_keys(spec, {"name", "tau_hat"}, path)
        out.append(GaugeDecl(gname, GaugeMap(group, list(table))))
    return out
