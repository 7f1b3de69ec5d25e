"""Self-tests of the benchmark (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import layertrace  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    def texts(seed, sub):
        setup, calls = workloads.build(name, seed, str(tmp_path / sub))
        return [(c.key, c.doc.text) for c in setup + calls]

    assert texts(3, "a") == texts(3, "b")
    assert texts(3, "a") != texts(4, "c")


def test_generated_transitions_are_not_cocycles_and_rows_sum_to_zero():
    from fractions import Fraction

    for seed in range(5):
        doc = gen.product_doc(seed, "S3", 3)
        cls, rat = doc.raw["connections"]
        assert not oracle.is_cocycle(doc.group, cls["transition"])
        for x, plane in enumerate(rat["density"]):
            for y, cell in enumerate(plane):
                assert sum(Fraction(v) for v in cell) == 0
                assert any(Fraction(v).denominator > 1 for v in cell) == (x != y)


def _cli(args):
    layertrace.load_qpb(SRC)
    return layertrace.in_process(args)


def _write(doc, tmp_path):
    path = tmp_path / f"{doc.name}.json"
    path.write_text(doc.text)
    return str(path)


def test_oracle_accepts_the_right_answer_and_rejects_wrong_expectations(tmp_path):
    doc = gen.product_doc(1, "Z3", 2)
    code, out, err = _cli(["check", _write(doc, tmp_path), "--format", "json"])
    assert oracle.check_report(doc, out, code) == []

    doc.expect = {"exit": 1, "first_failure": "action."}
    assert oracle.check_report(doc, out, code)

    doc.expect = {}
    forged = out.replace('"cocycle": false', '"cocycle": true', 1)
    assert oracle.check_report(doc, forged, code)


def test_oracle_rejects_a_changed_dump_entry(tmp_path):
    doc = gen.product_doc(1, "Z3", 2)
    code, out, err = _cli(["curvature", _write(doc, tmp_path), "--connection", "cls"])
    assert oracle.check_dump(doc, "cls", out, code) == []
    dump = json.loads(out)
    dump["entries"][0]["value"] = "2"
    assert oracle.check_dump(doc, "cls", json.dumps(dump), code)

    code, out, err = _cli(["curvature", _write(doc, tmp_path), "--connection", "rat"])
    assert oracle.check_dump(doc, "rat", out, code) == []
    dump = json.loads(out)
    dump["entries"].pop()
    assert oracle.check_dump(doc, "rat", json.dumps(dump), code)


def test_mutants_and_malformed_files_get_their_verdicts(tmp_path):
    base = gen.product_doc(2, "Z3", 2, explicit=True)
    for doc in gen.mutants(2, base) + gen.malformed(2, base):
        code, out, err = _cli(["check", _write(doc, tmp_path), "--format", "json"])
        assert oracle.check_report(doc, out, code) == [], doc.name
        if doc.kind == "malformed":
            assert oracle.check_rejection(err) == [], doc.name


def test_span_self_times_are_nonnegative_and_within_the_traced_total(tmp_path):
    _setup, calls = workloads.build("small-batch", 1, str(tmp_path))
    calls = calls[:12]
    modules = layertrace.load_qpb(SRC)
    tracer = layertrace.Tracer()
    t0 = time.perf_counter()
    for i, call in enumerate(calls):
        layertrace.traced_call(tracer, modules, i, call)
    wall = time.perf_counter() - t0
    agg = tracer.aggregate()
    assert agg["bench.call"][0] == len(calls)
    assert all(a[2] >= -1e-9 for a in agg.values())
    assert sum(a[2] for a in agg.values()) <= wall - tracer.paused + 1e-6
    for name in ("document.parse_spec", "runner.run_checks", "connection.validate_splitting"):
        assert agg[name][0] > 0, name


def test_tracer_sees_calls_made_through_from_imports():
    modules = layertrace.load_qpb(SRC)
    from qpb import connection, runner

    tracer = layertrace.Tracer()
    tracer.install(modules)
    try:
        assert runner.validate_splitting is connection.validate_splitting
        assert runner.validate_splitting.__wrapped__.__module__ == "qpb.connection"
    finally:
        tracer.uninstall()
    assert not hasattr(runner.validate_splitting, "__wrapped__")


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        assert list(json.load(fh)) == [m["name"] for m in spec["per_layer"]]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
