"""The benchmark's workloads: generated files plus the CLI calls made on them.

Every call carries a checker that turns (stdout, stderr, exit code) into
a list of problems, empty when the verdict is right.  WORKLOADS.md says
why each workload exists.
"""

from __future__ import annotations

import os

import gen
import oracle

NAMES = ("check-ladder", "curvature-dump", "small-batch")
DEFAULT_SEED = 0


class Call:
    """One ``qpb`` invocation; ``args`` follow the program name."""

    def __init__(self, args: list[str], doc: gen.Doc, checker):
        self.args = args
        self.doc = doc
        self.checker = checker

    @property
    def key(self) -> str:
        """Stable name of the call, independent of where the files live."""
        return " ".join([self.args[0], self.doc.name] + self.args[2:])

    @property
    def splittable(self) -> bool:
        """A JSON check on a parseable file: can be rerun one suite at a time."""
        return self.args[0] == "check" and "json" in self.args and self.doc.kind != "malformed"

    def problems(self, stdout: str, stderr: str, code: int) -> list[str]:
        if "Traceback" in stderr:
            return ["traceback on stderr"]
        if self.doc.kind != "malformed" and stderr:
            return [f"unexpected stderr: {stderr.splitlines()[0]}"]
        return self.checker(stdout, stderr, code)


def _check_json(doc):
    return Call(["check", "", "--format", "json"], doc,
                lambda out, err, code: oracle.check_report(doc, out, code))


def _check_text(doc):
    return Call(["check", ""], doc,
                lambda out, err, code: oracle.check_report(doc, out, code, fmt="text"))


def _setup(doc):
    return Call(["check", "", "--suite", "group", "--format", "json"], doc,
                lambda out, err, code: oracle.check_group_report(doc, out, code))


def _curvature(doc, conn):
    return Call(["curvature", "", "--connection", conn], doc,
                lambda out, err, code: oracle.check_dump(doc, conn, out, code))


def _rejected(doc):
    def checker(out, err, code):
        return oracle.check_report(doc, out, code) + oracle.check_rejection(err)
    return Call(["check", "", "--format", "json"], doc, checker)


def build(name: str, seed: int, docdir: str) -> tuple[list[Call], list[Call]]:
    """(set-up calls, timed calls) of a workload; writes its files to docdir."""
    if name == "check-ladder":
        docs = [gen.product_doc(seed, "S3", 2), gen.product_doc(seed, "Z4", 3),
                gen.product_doc(seed, "Z3", 3)]
        calls = [_check_json(d) for d in docs]
    elif name == "curvature-dump":
        docs = [gen.product_doc(seed, "S3", 3), gen.product_doc(seed, "Z6", 3)]
        calls = [_curvature(d, c) for d in docs for c in ("cls", "rat")]
    elif name == "small-batch":
        fixtures = gen.fixture_docs()
        bases = [gen.product_doc(seed, g, nb, explicit=True)
                 for g, nb in (("Z2", 3), ("Z3", 2), ("Z4", 2))] + [gen.self_doc("S3")]
        docs = fixtures + bases
        calls = [_check_json(d) for d in fixtures]
        calls += [c(d) for d in bases for c in (_check_json, _check_text)]
        calls += [_check_json(mu) for d in bases for mu in gen.mutants(seed, d)]
        calls += [_rejected(bad) for d in bases for bad in gen.malformed(seed, d)]
        calls += [_curvature(d, d.raw["connections"][0]["name"]) for d in bases]
    else:
        raise ValueError(f"unknown workload {name!r}")
    setup = [_setup(d) for d in docs]
    os.makedirs(docdir, exist_ok=True)
    for call in setup + calls:
        path = os.path.join(docdir, call.doc.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(call.doc.text)
        call.args[1] = path
    return setup, calls
