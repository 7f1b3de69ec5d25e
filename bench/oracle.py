"""Known answers for the benchmark, computed without qpb.

Each ``check_*`` function returns the reasons a CLI call's outcome is
wrong, empty when it is right, so the benchmark counts wrong verdicts
instead of stopping at the first one.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def is_cocycle(g, t: list[list[int]]) -> bool:
    """t(x, y) t(y, z) == t(x, z) for every triple of base points."""
    nb = len(t)
    return all(
        g.table[t[x][y]][t[y][z]] == t[x][z]
        for x in range(nb) for y in range(nb) for z in range(nb)
    )


def classical_curvature(g, nb: int, t: list[list[int]]) -> list[dict]:
    """Sparse curvature of a classical connection on the product bundle.

    The closed form is [two-step word = c] - [one-step word = c] with
    point p = x * m + a, frame phi(p) = a and projection x.
    """
    m = g.order
    n = nb * m
    entries = []
    for p in range(n):
        x, pa = divmod(p, m)
        left = g.inv[pa]
        for q in range(n):
            y = q // m
            for r in range(n):
                z, ra = divmod(r, m)
                two = g.mul(left, t[x][y], t[y][z], ra)
                one = g.mul(left, t[x][z], ra)
                if two != one:
                    for c, v in sorted(((two, "1"), (one, "-1"))):
                        entries.append({"index": [p, q, r, c], "value": v})
    return entries


def sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def check_report(doc, stdout: str, code: int, fmt: str = "json") -> list[str]:
    """Problems with a ``qpb check`` outcome on a generated document."""
    want = doc.expect.get("exit", 0)
    problems = []
    if code != want:
        problems.append(f"exit {code}, expected {want}")
    if want == 2:
        if stdout:
            problems.append("output on a rejected document")
        return problems
    if fmt == "text":
        lines = stdout.splitlines()
        tail = f"  document={doc.raw['name']}  digest={sha(doc.text)[:12]}"
        if not lines or not (lines[0].startswith("qpb ") and lines[0].endswith(tail)):
            problems.append("text report header differs")
        elif want == 0 and not lines[-1].startswith("ALL CHECKS PASSED"):
            problems.append("text report does not pass")
        return problems
    try:
        rep = json.loads(stdout)
    except json.JSONDecodeError:
        return problems + ["report is not JSON"]
    checks = rep.get("checks", [])
    failed = [c["name"] for c in checks if c["status"] != "pass"]
    if rep.get("input_digest") != sha(doc.text):
        problems.append("input digest differs from sha256 of the file")
    if rep.get("document_name") != doc.raw["name"]:
        problems.append("document name differs")
    if rep.get("exit_status") != want or rep["summary"]["failed"] != len(failed):
        problems.append("summary disagrees with the checks")
    first = rep["summary"]["first_failure"]
    if want == 0 and failed:
        problems.append(f"positive document fails {failed[0]}")
    if want == 1 and not (first or "").startswith(doc.expect["first_failure"]):
        problems.append(f"first failure {first}, expected {doc.expect['first_failure']}*")
    if want == 0:
        problems += _check_flatness(doc, checks)
    return problems


def check_group_report(doc, stdout: str, code: int) -> list[str]:
    """Problems with a ``qpb check --suite group`` outcome."""
    try:
        rep = json.loads(stdout)
    except json.JSONDecodeError:
        return ["report is not JSON"]
    ok = (code == 0 and rep.get("suites") == ["group"]
          and rep.get("input_digest") == sha(doc.text)
          and all(c["status"] == "pass" for c in rep.get("checks", [])))
    return [] if ok else ["group suite report is wrong"]


def _check_flatness(doc, checks: list[dict]) -> list[str]:
    problems = []
    by_name = {c["name"]: c for c in checks}
    for conn in doc.raw.get("connections", []):
        if conn["kind"] != "classical":
            continue
        got = by_name.get(f"curvature:{conn['name']}.flat_iff_cocycle")
        cocycle = is_cocycle(doc.group, conn["transition"])
        if got is None or got["data"] != {"cocycle": cocycle, "flat": cocycle}:
            problems.append(f"flat_iff_cocycle of {conn['name']} is not cocycle={cocycle}")
    return problems


def check_dump(doc, conn: str, stdout: str, code: int) -> list[str]:
    """Problems with a ``qpb curvature`` dump of a product-bundle connection."""
    if code != 0:
        return [f"exit {code}, expected 0"]
    try:
        dump = json.loads(stdout)
    except json.JSONDecodeError:
        return ["dump is not JSON"]
    g, nb = doc.group, doc.base_size
    decl = next(c for c in doc.raw["connections"] if c["name"] == conn)
    head = {"input_digest": sha(doc.text), "document_name": doc.raw["name"],
            "connection": conn, "kind": decl["kind"], "degree": 2,
            "total_size": nb * g.order, "group_order": g.order}
    problems = [f"{k} differs" for k, v in head.items() if dump.get(k) != v]
    entries = dump.get("entries", [])
    if decl["kind"] == "classical":
        if entries != classical_curvature(g, nb, decl["transition"]):
            problems.append("classical dump differs from the closed form")
        return problems
    # any curvature of a unit-normalized connection sums to zero over the
    # group argument and vanishes on adjacent repeated points
    sums: dict[tuple, Fraction] = {}
    for e in entries:
        p, q, r, _c = e["index"]
        if p == q or q == r:
            problems.append(f"nonzero entry on repeated points {e['index']}")
            break
        sums[(p, q, r)] = sums.get((p, q, r), Fraction(0)) + Fraction(e["value"])
    if any(sums.values()):
        problems.append("dump does not sum to zero over the group argument")
    return problems


def check_rejection(stderr: str) -> list[str]:
    """A malformed file gets exactly one ``qpb:`` line and no traceback."""
    lines = stderr.splitlines()
    if len(lines) != 1 or not lines[0].startswith("qpb: "):
        return [f"stderr is not one qpb: line ({len(lines)} lines)"]
    return []
