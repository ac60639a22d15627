"""soritica benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload laws --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; soritica is imported from ``src/``.
One thread issues the next op only after the previous one returned.  The
run plays one untimed round (warm-up, and every output checked), then
repeats the round until ``--seconds`` of op time have passed, timing cold
starts in fresh interpreters between rounds.  Every time is scaled to a
reference host speed (see ``calibrate.py``).  The last line of stdout is
the JSON result; the same result, with details, goes to ``bench/out/``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the time is split: an untimed-tracer half gives the reference throughput,
a traced half gives the per-layer metrics (see ``tracing.py``), and the
ratio of the two is the tracing overhead.  Exit code 2 means the benchmark
could not run (for example, no ``src/soritica`` beside it).
"""

import sys
import time

#: soritica modules each workload uses; importing them is part of set-up.
WORKLOAD_MODULES = {
    "laws": ("soritica", "soritica.laws"),
    "calc": ("soritica", "soritica.cli"),
    "sorites": ("soritica", "soritica.sorites"),
    "logic": ("soritica", "soritica.formulas", "soritica.semantics"),
}

if __name__ == "__main__" and sys.argv[1:2] == ["--setup-probe"]:
    # A fresh interpreter timing its own cold start: import the workload's
    # soritica modules before anything else loads their dependencies.
    _workload, _seed, _small = sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
    sys.path.insert(0, sys.argv[5])
    _t0 = time.perf_counter()
    import importlib

    for _name in WORKLOAD_MODULES[_workload]:
        importlib.import_module(_name)
    _t1 = time.perf_counter()
    import workloads

    workloads.OPS[_workload](workloads.INPUTS[_workload](_seed, _small), _small)
    _t2 = time.perf_counter()
    print(f"{(_t1 - _t0) * 1e3!r} {(_t2 - _t1) * 1e3!r}", flush=True)
    sys.exit(0)

import argparse
import json
import math
import resource
import statistics
import subprocess
from pathlib import Path
from typing import NamedTuple

import calibrate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 12


def _quantile(sorted_values, q):
    """Nearest-rank quantile; failed ops sort last as +inf."""
    return sorted_values[min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1)]


def probe_setup(workload, seed, small):
    """One cold start: (wall s, import ms, inputs ms) from spawn to inputs ready."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", workload, str(seed), str(int(small)), str(SRC)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=HERE.parent) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or not line:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    import_ms, inputs_ms = map(float, line.split())
    return wall, import_ms, inputs_ms


class Runner:
    """Plays rounds of ops, times each, and checks every output."""

    def __init__(self, ops):
        self.ops = ops
        self.verified = [None] * len(ops)
        self.wrong = []

    def _check(self, i, op, obs):
        if obs == self.verified[i]:
            return True
        try:
            ok = op.check(obs)
        except Exception:  # output the check cannot even read is wrong
            ok = False
        if ok:
            self.verified[i] = obs
        return ok

    def play_round(self, call=lambda fn: fn()):
        """Play every op once; returns a :class:`Round`.

        A calibration slice runs before the first op, after every
        ``calibrate.EVERY_S`` of op time and after the last op, outside
        every timing.  Each op's latency is scaled to the reference host
        speed by the mean of the slices just before and just after it.
        """
        raw, good, marks, slices, since = [], [], [], [calibrate.timed_slice()], 0.0
        clock = time.perf_counter
        for i, op in enumerate(self.ops):
            t0 = clock()
            try:
                obs, error = call(op.run), None
            except (Exception, SystemExit) as exc:  # an op that raises fails
                obs, error = None, exc
            latency = clock() - t0
            raw.append(latency)
            marks.append(len(slices) - 1)
            since += latency
            if since >= calibrate.EVERY_S or i == len(self.ops) - 1:
                slices.append(calibrate.timed_slice())
                since = 0.0
            if error is None and self._check(i, op, obs):
                good.append(True)
            elif error is None and op.fault is None:
                self.wrong.append(op.label)  # a wrong answer, not a failure
                good.append(True)
            else:
                good.append(False)
                if op.fault is None:
                    self.wrong.append(f"{op.label}: {type(error).__name__}: {error}")
        scale = [2 * calibrate.REF_SLICE_S / (a + b) for a, b in zip(slices, slices[1:])]
        scaled = [t * scale[m] for t, m in zip(raw, marks)]
        return Round(
            latencies=[t if g else math.inf for t, g in zip(scaled, good)],
            failed=good.count(False),
            busy=sum(scaled),
            raw_busy=sum(raw),
            speed=calibrate.REF_SLICE_S / statistics.mean(slices),
        )

    def play(self, seconds, call=lambda fn: fn(), between=lambda done: None):
        """Whole rounds until ``seconds`` of op time have passed.

        ``between(done)`` runs after each round, outside the measured time,
        with the share of ``seconds`` done so far.
        """
        rounds, spent = [], 0.0
        while not rounds or spent < seconds:
            rounds.append(self.play_round(call))
            spent += rounds[-1].raw_busy
            between(spent / seconds if seconds else 1.0)
        return rounds


class Round(NamedTuple):
    """One round's timings; times are seconds at the reference host speed."""

    latencies: list  # per op, ``inf`` for a failed op
    failed: int
    busy: float  # sum of op latencies, failed ops included
    raw_busy: float  # the same, as measured
    speed: float  # mean host speed over the round, for the run details


def _rate(rounds):
    """Ops completed per second of op time, at the reference speed."""
    done = sum(len(r.latencies) - r.failed for r in rounds)
    return done / sum(r.busy for r in rounds)


def _latency_ms(rounds, q):
    """The ``q`` quantile of op latency over all rounds, in ms."""
    return _quantile(sorted(t for r in rounds for t in r.latencies), q) * 1e3


def run(workload, seed, seconds, trace, small=False):
    """Measure one workload; returns the result dict and run details.

    Host speed on a shared machine swings by up to 2x over seconds to
    minutes, so every time is scaled to the reference speed by calibration
    slices timed beside it (see ``calibrate.py``).  Throughput and latency
    quantiles pool every op of the run's rounds (each round is the whole
    input set); set-up is the median of cold starts spread over the run,
    scaled by the run's median host speed.
    """
    import tracing
    import workloads

    ops = workloads.OPS[workload](workloads.INPUTS[workload](seed, small), small)
    runner = Runner(ops)
    runner.play_round()  # warm-up; also checks every output once
    probes = []

    def take_probes(done):
        # SETUP_PROBES cold starts, spread over the run in step with op time.
        while len(probes) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * done)):
            probes.append(probe_setup(workload, seed, small))

    rounds = runner.play(seconds if not trace else seconds / 2, between=take_probes)
    take_probes(1.0)
    # A slice next to each short cold start is too noisy to scale it by, so
    # set-up is scaled by the host speed over the whole run.
    host_speed = statistics.median(r.speed for r in rounds)
    setup_s, import_ms, inputs_ms = (statistics.median(p[k] for p in probes) * host_speed for k in range(3))
    details = {
        "round_ops": len(ops),
        "rounds": len(rounds),
        "setup_probes": len(probes),
        "host_speed": host_speed,
        "unscaled_ops_per_s": _rate([r._replace(busy=r.raw_busy) for r in rounds]),
    }
    if not trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (_rate(rounds), "1/s"),
            "op_p50_ms": (_latency_ms(rounds, 0.5), "ms"),
            "op_p90_ms": (_latency_ms(rounds, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = runner.play(seconds / 2, call=tracer.run_op)
        finally:
            tracer.uninstall()
        metrics = tracer.per_op(sum(len(r.latencies) for r in traced))
        metrics["setup.import_ms"] = (import_ms, "ms")
        metrics["setup.inputs_ms"] = (inputs_ms, "ms")
        overhead = _rate(rounds) / _rate(traced) - 1
        metrics["trace.overhead_pct"] = (overhead * 100, "%")
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{workload}-s{seed}.jsonl")
        details["traced_rounds"] = len(traced)
        rounds += traced
    details["wrong"] = runner.wrong[:20]
    result = {
        "correct": not runner.wrong,
        "attempted": sum(len(r.latencies) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_MODULES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="smallest inputs (smoke test)")
    args = parser.parse_args(argv)
    if not (SRC / "soritica" / "__init__.py").is_file():
        print(f"benchmark: no soritica sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, details = run(args.workload, args.seed, args.seconds, args.trace, args.small)
    for line in details["wrong"]:
        print(f"wrong: {line}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    (OUT / name).write_text(json.dumps({**result, "details": details}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
