"""The benchmark's seed-0 calls give the outputs its digests pin, and its
seed-1 and seed-2 calls give the verdicts its oracle expects.

`bench/digests.json` records the sha256 of the stdout of every set-up
and timed call of each workload at the default seed, and the benchmark
counts a call whose output differs as failed.  Each call is replayed
here through `qpb.cli.main` in process, on the workload's files written
to a temporary directory, so a change to any byte of a report or dump
fails the tests before the benchmark runs.  The bench oracle judges
each outcome as the benchmark does, at seeds 1 and 2 too, where no
digest is recorded.  Nothing under `bench/` is written.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from qpb.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)
# importing the bench modules leaves no bytecode under bench/
_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import oracle  # noqa: E402
import workloads  # noqa: E402

sys.dont_write_bytecode = _dont_write

with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as _fh:
    DIGESTS = json.load(_fh)


def _replayed(workload: str, seed: int, directory: str) -> dict:
    """Each set-up and timed call's stdout digest, by call; a call whose
    outcome the oracle rejects fails the test."""
    setup, calls = workloads.build(workload, seed, directory)
    digests = {}
    for call in setup + calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(call.args))
        assert call.problems(out.getvalue(), err.getvalue(), code) == [], call.key
        digests[call.key] = oracle.sha(out.getvalue())
    return digests


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_seed_zero_calls_give_the_recorded_digests(workload, tmp_path):
    assert _replayed(workload, workloads.DEFAULT_SEED, str(tmp_path)) == DIGESTS[workload]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_seed_one_and_two_calls_give_the_oracles_verdicts(workload, seed, tmp_path):
    # the verdicts are asserted call by call; no digest is recorded here
    _replayed(workload, seed, str(tmp_path))
