"""Per-layer measurement of qpb from outside the package.

The tracer wraps every function named in a qpb module's ``__all__`` and
rebinds the name in every qpb module that holds it, so calls made
through ``from .x import f`` are seen as well as calls through the
defining module.  Nothing under ``src/qpb`` changes.  Spans (name,
parent, request, start, end) are kept in memory and written out when the
run ends; size counts run with the span clock stopped.

Scalar operations are counted in a separate run, in two child
processes, with counting wrappers on the ``Scalar`` dunders and no
timing at all; the two runs must agree exactly.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import io
import itertools
import json
import os
import pkgutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# name -> unit of every per-layer metric; layers.json says what each should move
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    PER_LAYER = {m["name"]: m["unit"] for m in json.load(_fh)["per_layer"]}

SCALAR_OPS = {"add": ("__add__", "__radd__"), "sub": ("__sub__",),
              "mul": ("__mul__", "__rmul__"), "bool": ("__bool__",), "eq": ("__eq__",)}


# ---------------------------------------------------------------------------
# size counts, taken outside the timed interval


def _mat_mul_sizes(counts, a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    counts["linalg.mat_mul.inner_products"] += len(a) * inner * cols
    a_col_nnz = [0] * inner
    for row in a:
        for k, x in enumerate(row):
            if x:
                a_col_nnz[k] += 1
    counts["linalg.mat_mul.useful_products"] += sum(
        n * sum(1 for y in b[k] if y) for k, n in enumerate(a_col_nnz) if n
    )


def _rref_sizes(counts, matrix):
    counts["linalg.rref.entries"] += sum(len(r) for r in matrix)
    counts["linalg.rref.nonzeros"] += sum(1 for r in matrix for x in r if x)


BEFORE = {
    "linalg.mat_mul": lambda counts, args: _mat_mul_sizes(counts, *args[:2]),
    "linalg.rref": lambda counts, args: _rref_sizes(counts, args[0]),
    "funcs.guard_table_size":
        lambda counts, args: counts.update({"funcs.guard_table_size.entries": args[0]}),
}
AFTER = {
    "connection.star_delta":
        lambda counts, out: counts.update({"connection.star_delta.out_entries": len(out.density)}),
    "calculus.differential":
        lambda counts, out: counts.update({"calculus.differential.out_entries": len(out.values)}),
}


class Tracer:
    """In-memory spans over a clock that stops while sizes are counted."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, request, start, end]
        self.stack: list[int] = []
        self.paused = 0.0
        self.request = -1
        self.counts: collections.Counter = collections.Counter()
        self._restore: list[tuple] = []

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.request, self.clock(), 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][4] = self.clock()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def measure(self, fn, *args) -> None:
        t0 = time.perf_counter()
        fn(self.counts, *args)
        self.paused += time.perf_counter() - t0

    def wrap(self, qual: str, fn):
        before, after = BEFORE.get(qual), AFTER.get(qual)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self.measure(before, args)
            idx = self.open(qual)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                self.measure(after, out)
            return out

        return traced

    def install(self, modules: list) -> None:
        """Wrap each public function and rebind it wherever qpb holds it."""
        wrapped = {}
        for mod in modules:
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self.wrap(f"{mod.__name__.removeprefix('qpb.')}.{name}", fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, name, wrapped[value])
                    self._restore.append((mod, name, value))

    def uninstall(self) -> None:
        for mod, name, value in self._restore:
            setattr(mod, name, value)
        self._restore.clear()

    def aggregate(self) -> dict[str, list]:
        """name -> [calls, inclusive seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, parent, _req, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg: dict[str, list] = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, _parent, _req, start, end) in enumerate(self.spans):
            a = agg[name]
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child[i]
        return agg

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, req, start, end) in enumerate(self.spans):
                fh.write(json.dumps([i, name, parent, req, round(start, 9), round(end, 9)]) + "\n")


# ---------------------------------------------------------------------------
# running calls inside this process


def load_qpb(src: str) -> list:
    """Import qpb from ``src`` with every submodule, package first."""
    if src not in sys.path:
        sys.path.insert(0, src)
    import qpb

    return [qpb] + [importlib.import_module(f"qpb.{m.name}") for m in pkgutil.iter_modules(qpb.__path__)]


def in_process(args: list[str]) -> tuple[int, str, str]:
    from qpb import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


def split_check(args: list[str], suites: list[str], tracer: Tracer) -> tuple[int, str, str]:
    """A JSON check rerun one ``run_checks(doc, [suite])`` at a time.

    Each suite runs under a ``runner.suite.<family>`` span.  The per-suite
    reports are concatenated into one report, which must be byte-identical
    to the full run's.
    """
    import qpb
    from qpb import document, runner

    with open(args[1], encoding="utf-8") as fh:
        text = fh.read()
    doc = document.parse_spec(text)
    checks = []
    for suite in suites:
        with tracer.span(f"runner.suite.{suite.partition(':')[0]}"):
            checks.extend(runner.run_checks(doc, [suite], tool_version=qpb.__version__).checks)
    report = runner.RunReport(qpb.__version__, doc.digest, doc.name, list(suites), checks)
    return report.exit_status, runner.emit_report(report, "json"), ""


def traced_call(tracer: Tracer, modules: list, request: int, call) -> tuple[int, str, str]:
    """Run one call with the tracer installed, under a ``bench.call`` span."""
    tracer.request = request
    tracer.install(modules)
    try:
        with tracer.span("bench.call"):
            return in_process(call.args)
    finally:
        tracer.uninstall()


def tracing_cost(modules: list, calls: list, tally) -> tuple[float, float]:
    """(untraced, traced) in-process seconds of ``calls``.

    Each call runs untraced, traced, traced, untraced, and each side keeps
    its faster run, so neither side gets all the first runs or all of a
    fast spell of the host.  Traced time is the ``bench.call`` span, which
    leaves out the size counting as every per-layer time does.
    """
    untraced = traced = 0.0
    for call in calls:
        plain, spans = [], []
        for with_tracer in (False, True, True, False):
            if with_tracer:
                tracer = Tracer()
                code, out, err = traced_call(tracer, modules, 0, call)
                spans.append(tracer.aggregate()["bench.call"][1])
            else:
                t0 = time.perf_counter()
                code, out, err = in_process(call.args)
                plain.append(time.perf_counter() - t0)
            tally.judge(call, out, err, code)
        untraced += min(plain)
        traced += min(spans)
    return untraced, traced


def count_scalars(workload: str, seed: int, outdir: str, src: str) -> dict:
    """Counted run: every call once with Scalar dunders counted, no timing."""
    import oracle
    import workloads

    _setup, calls = workloads.build(workload, seed, os.path.join(outdir, "docs"))
    load_qpb(src)
    from qpb.scalars import Scalar

    ticks = {op: itertools.count() for op in SCALAR_OPS}
    for op, dunders in SCALAR_OPS.items():
        tick = ticks[op].__next__
        for dunder in dunders:
            orig = Scalar.__dict__[dunder]
            if dunder == "__bool__":
                def counted(self, _orig=orig, _tick=tick):
                    _tick()
                    return _orig(self)
            else:
                def counted(self, other, _orig=orig, _tick=tick):
                    _tick()
                    return _orig(self, other)
            setattr(Scalar, dunder, counted)
    outputs = []
    for i, call in enumerate(calls):
        _code, out, _err = in_process(call.args)
        with open(os.path.join(outdir, f"{i}.out"), "w", encoding="utf-8") as fh:
            fh.write(out)
        outputs.append(oracle.sha(out))
    return {"counts": {op: next(t) for op, t in ticks.items()}, "outputs": outputs}


# ---------------------------------------------------------------------------
# the traced run


def traced(workload: str, seed: int, tally, work: str, src: str, child_wall) -> tuple[dict, list[str]]:
    """Counted runs, then a traced in-process pass.

    ``child_wall(call)`` runs a call as a child process and returns its
    wall time; it gives the process overhead of the CLI.
    """
    import workloads

    setup, calls = workloads.build(workload, seed, os.path.join(work, "docs", workload))
    counted = []
    procs = []
    for k in (1, 2):
        outdir = os.path.join(work, f"counted-{k}")
        os.makedirs(outdir, exist_ok=True)
        procs.append((outdir, subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--count", workload, str(seed), outdir, src],
            stdout=subprocess.PIPE, cwd=ROOT)))
    try:
        finished = [(outdir, proc.communicate()[0], proc.returncode) for outdir, proc in procs]
    finally:
        for _outdir, proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    for outdir, out, code in finished:
        if code != 0:
            raise RuntimeError(f"counted run failed with exit {code}")
        counted.append((outdir, json.loads(out.decode().splitlines()[-1])))

    # the suites of each JSON check, read from the counted full run
    suites = {}
    for i, call in enumerate(calls):
        if call.splittable:
            with open(os.path.join(counted[0][0], f"{i}.out"), encoding="utf-8") as fh:
                try:
                    suites[i] = json.load(fh)["suites"]
                except (ValueError, KeyError):
                    pass  # left whole; its verdict is judged as a full run

    modules = load_qpb(src)
    overhead = []
    for call in setup[:3]:
        sub = child_wall(call)
        t0 = time.perf_counter()
        code, out, err = in_process(call.args)
        overhead.append(sub - (time.perf_counter() - t0))
        tally.judge(call, out, err, code)

    # the tracing cost, on the first third of the calls
    probe = max(1, len(calls) // 3)
    untraced_wall, traced_wall = tracing_cost(modules, calls[:probe], tally)

    tracer = Tracer()
    # the per-suite split runs without wrappers and only gives the
    # runner.suite.* spans: its call pattern is not the CLI's, since each
    # run_checks builds a fresh context and so rebuilds cached connection data
    suite_tracer = Tracer()
    report_bytes = 0
    for i, call in enumerate(calls):
        code, out, err = traced_call(tracer, modules, i, call)
        tally.judge(call, out, err, code)
        report_bytes += len(out.encode("utf-8"))
        if i in suites:
            suite_tracer.request = i
            code, out, err = split_check(call.args, suites[i], suite_tracer)
            tally.judge(call, out, err, code)
    tracer.write(os.path.join(work, f"spans-{workload}.jsonl"))
    suite_tracer.write(os.path.join(work, f"suite-spans-{workload}.jsonl"))

    notes = []
    (_d1, first), (_d2, second) = counted
    tally.record("scalar counts of two runs", [] if first["counts"] == second["counts"]
                 else [f"{first['counts']} != {second['counts']}"])
    for i, call in enumerate(calls):
        for _outdir, res in counted:
            tally.record(call.key, [] if res["outputs"][i] == tally.seen[call.key][0]
                         else ["output of the counted full run differs"])

    agg = tracer.aggregate()
    agg.update(suite_tracer.aggregate())
    values = {}
    for name in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if name in tracer.counts:
            values[name] = tracer.counts[name]
        elif stat in ("calls", "s", "self_s") and head in agg:
            values[name] = agg[head][("calls", "s", "self_s").index(stat)]
        else:
            values[name] = 0
    inner = tracer.counts["linalg.mat_mul.inner_products"]
    values["linalg.mat_mul.useful_ratio"] = (
        tracer.counts["linalg.mat_mul.useful_products"] / inner if inner else 0.0
    )
    values["linalg.calls"] = sum(a[0] for n, a in agg.items() if n.startswith("linalg."))
    for op in SCALAR_OPS:
        values[f"scalars.Scalar.{op}.calls"] = first["counts"][op]
    values["report.bytes"] = report_bytes
    values["cli.process_overhead_s"] = statistics.median(overhead)
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    notes.append(f"probe of {probe} calls: untraced {untraced_wall:.3f} s,"
                 f" traced {traced_wall:.3f} s; {len(tracer.spans)} spans")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return metrics, notes


if __name__ == "__main__":
    if sys.argv[1:2] != ["--count"] or len(sys.argv) != 6:
        sys.exit("usage: layertrace.py --count WORKLOAD SEED OUTDIR SRC")
    print(json.dumps(count_scalars(sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5])))
