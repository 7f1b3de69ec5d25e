"""Benchmark of the qpb command line tool.

    python3 bench/run.py --workload check-ladder --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; qpb is imported from ``src/``.  With
``--trace 0`` every call is a child process of the real CLI, timed from
outside, and the end-to-end metrics are printed.  With ``--trace 1`` the
same calls run in this process under the outside-in tracer of
``layertrace.py`` and the per-layer metrics are printed.  Every verdict
is checked against the known answers of ``oracle.py``; the last line of
output is one JSON object with the verdict tally and the metrics.

``--record-digests`` re-records the sha256 of every output at the
default seed into ``digests.json``; outputs at that seed must match it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
DIGESTS = os.path.join(HERE, "digests.json")

import oracle  # noqa: E402
import workloads  # noqa: E402

# set-up rounds before the first pass; one more round runs before each pass
SETUP_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "verdict_p50_s": "s",
    "peak_rss_mb": "MB",
}


class Outcome:
    __slots__ = ("wall", "cpu", "rss_kb", "stdout")

    def __init__(self, wall: float, cpu: float, rss_kb: int, stdout: str):
        self.wall = wall
        self.cpu = cpu
        self.rss_kb = rss_kb
        self.stdout = stdout


class Tally:
    """Counts calls and wrong verdicts, and pins every output's bytes.

    An output must equal the first output of the same call in this run
    and, at the default seed, the digest recorded in ``digests.json``.
    """

    def __init__(self, recorded: dict[str, str]):
        self.attempted = 0
        self.failed = 0
        self.problems: list[tuple[str, list[str]]] = []
        self.seen: dict[str, tuple] = {}
        self.recorded = recorded

    def judge(self, call: workloads.Call, stdout: str, stderr: str, code: int) -> None:
        """The first outcome of a call goes to the oracle; repeats must match it."""
        digest = oracle.sha(stdout)
        first = self.seen.get(call.key)
        if first is None:
            probs = call.problems(stdout, stderr, code)
            self.seen[call.key] = (digest, code, stderr, list(probs))
        elif first[:3] == (digest, code, stderr):
            probs = list(first[3])
        else:
            probs = ["outcome differs from an earlier repeat"]
        want = self.recorded.get(call.key)
        if want is not None and want != digest:
            probs.append("output differs from the recorded digest")
        self.record(call.key, probs)

    def record(self, key: str, probs: list[str]) -> None:
        self.attempted += 1
        if probs:
            self.failed += 1
            self.problems.append((key, probs))


class Launcher:
    """The small process that starts every CLI call (see launcher.py)."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.proc.stdin.close()
        else:
            self.proc.terminate()
        self.proc.wait()

    def run(self, call: workloads.Call, tally: Tally) -> Outcome:
        """Run one call as a child process and judge its verdict."""
        out_path = os.path.join(WORK, "stdout")
        err_path = os.path.join(WORK, "stderr")
        argv = [sys.executable, "-m", "qpb.cli", *call.args]
        self.proc.stdin.write(json.dumps({"argv": argv, "stdout": out_path, "stderr": err_path}) + "\n")
        self.proc.stdin.flush()
        res = json.loads(self.proc.stdout.readline())
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        tally.judge(call, stdout, stderr, res["code"])
        return Outcome(res["wall"], res["cpu"], res["rss_kb"], stdout)


def recorded_digests(workload: str, seed: int) -> dict[str, str]:
    if seed != workloads.DEFAULT_SEED or not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[Tally, dict, list[str]]:
    """Set up, then run passes over the calls until the time is used."""
    setup, calls = workloads.build(workload, seed, os.path.join(WORK, "docs", workload))
    tally = Tally(recorded_digests(workload, seed))
    with Launcher() as launcher:
        # fills the bytecode cache, which users have warm after the first call
        launcher.run(setup[0], tally)
        rounds = [[launcher.run(c, tally) for c in setup] for _ in range(SETUP_ROUNDS)]

        # the last pass stops where the time runs out, so every run uses its
        # whole window and no call's repeat count hangs on a whole lap
        passes: list[list[Outcome]] = []
        start = time.perf_counter()
        while True:
            rounds.append([launcher.run(c, tally) for c in setup])
            done: list[Outcome] = []
            for c in calls:
                if passes and time.perf_counter() - start > seconds:
                    break
                done.append(launcher.run(c, tally))
            passes.append(done)
            if time.perf_counter() - start > seconds:
                break

    # each call's figure is its fastest repeat: the host's cores flip between
    # two speeds for seconds at a time, so a call's fastest repeat is the
    # steady estimate of its cost and a median over repeats is not; set-up
    # rounds are spread over the run like the passes for the same reason
    def fastest(runs: list[list[Outcome]], field: str) -> list[float]:
        return [min(getattr(r[i], field) for r in runs if i < len(r))
                for i in range(len(runs[0]))]

    best_wall = fastest(passes, "wall")
    metrics = {
        "setup_s": sum(fastest(rounds, "wall")),
        "wall_s": sum(best_wall),
        "cpu_s": sum(fastest(passes, "cpu")),
        "verdict_p50_s": statistics.median(best_wall),
        "peak_rss_mb": max(o.rss_kb for p in passes for o in p) / 1024,
    }
    per_call = sorted(o.wall for p in passes for o in p)
    notes = [f"set-up rounds {len(rounds)}, passes {len(passes)}, timed calls {len(per_call)},"
             f" first pass wall {sum(o.wall for o in passes[0]):.4f} s"]
    if len(per_call) >= 50:
        # the highest percentile that still has ten samples above it
        notes.append(f"verdict_p80_s {statistics.quantiles(per_call, n=5)[3]:.4f} s"
                     f" over {len(per_call)} calls")
    notes.append(f"verdict_error_rate {tally.failed / tally.attempted:.4f}"
                 f" ({tally.failed} of {tally.attempted} calls)")
    return tally, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, notes


def record(seed: int) -> int:
    """Write the sha256 of every output at the default seed to digests.json."""
    table = {}
    for workload in workloads.NAMES:
        setup, calls = workloads.build(workload, seed, os.path.join(WORK, "docs", workload))
        tally = Tally({})
        with Launcher() as launcher:
            outs = {c.key: oracle.sha(launcher.run(c, tally).stdout) for c in setup + calls}
        if tally.failed:
            print(f"{workload}: {tally.problems}", file=sys.stderr)
            return 1
        table[workload] = outs
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    # a termination request unwinds through the code that stops the children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "qpb", "cli.py")):
        print(f"bench: no qpb sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    if args.record_digests:
        return record(workloads.DEFAULT_SEED)
    if args.workload is None:
        ap.error("--workload is required")

    if args.trace:
        import layertrace

        tally = Tally(recorded_digests(args.workload, args.seed))
        with Launcher() as launcher:
            metrics, notes = layertrace.traced(args.workload, args.seed, tally, WORK, SRC,
                                               lambda call: launcher.run(call, tally).wall)
    else:
        tally, metrics, notes = end_to_end(args.workload, args.seed, args.seconds)

    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    for key, probs in tally.problems:
        print(f"WRONG {key}: {'; '.join(probs)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
