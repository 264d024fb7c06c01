#!/usr/bin/env python3
"""Benchmark of the fbff CLI: one workload per run, closed loop, one client.

Run from the root of an fbff checkout:

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 28 --trace 0

Each op calls ``fbff.cli.main(argv)`` in this process with ``--out`` files
(JSON in, compute, JSON/CSV out, exit code) and is checked against numpy
references.  With ``--trace 0`` the op list is repeated until ``--seconds``
have passed and the end-to-end metrics are printed; with ``--trace 1`` one
untraced and one traced pass give the per-layer metrics.  Times are CPU
times, rescaled to a host of fixed speed by a calibration kernel timed
between and during ops (see ``HostClock``).  The last line of output is one
JSON object; the full result, with the run environment, is written under
``.perfbench/results``.  Exit code 1 means a wrong output.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One client, one thread: BLAS must not take a second core that a shared
    # machine may not have free.  Set before numpy is imported.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import bisect
import contextlib
import gc
import io
import itertools
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer

SPAWNS = 12  # fresh-process spawns per timed run
SETUPS = 5  # set-ups per timed run, at least; up to 4x as many while they
SETUP_SHARE = 0.05  # take no more than this share of the run
TAIL_BEYOND = 10  # distinct ops slower than the tail latency
KERNEL_REF_S = 0.0006  # the calibration kernel's time on the reference host
KERNEL_EVERY_S = 0.02  # period of the kernel readings taken while an op runs

# Every timing is CPU time: on a shared host another process or a stolen vCPU
# can hold the CPU for milliseconds in the middle of an op, and wall time
# would count that as fbff's.  One client, one BLAS thread: the process's CPU
# time is the op's.
cpu_clock = time.process_time


def calibration_kernel() -> float:
    """Fixed work in the style of fbff's hot paths: a pure-Python loop of
    complex arithmetic (like cyclic evaluation) and small numpy matrix ops
    (like the per-root Grams).  It shares no code with fbff."""
    z, w, acc = 0j, complex(0.6, 0.8), 0.0
    for _ in range(800):
        z = z * w + 1.0
        acc += z.real * z.imag
    a = np.arange(16.0).reshape(4, 4) + 1j
    for _ in range(40):
        a = (a @ a.conj().T) / (np.abs(a).sum() + 1.0)
    return acc + float(a.real.sum())


class HostClock:
    """Rescales measured CPU times to a host on which the calibration kernel
    takes KERNEL_REF_S.

    A shared host's speed drifts by up to 1.8x, over milliseconds as well as
    minutes, for every process alike, and CPU time drifts with it (a CPU
    whose core is shared runs slower), so raw times of the same code differ
    more between runs than a code change worth catching.  The kernel is read
    after each timed interval (``tick()``) and, inside ``sampling()``, every
    KERNEL_EVERY_S from a timer signal while an op runs.  An interval is
    scaled by KERNEL_REF_S over the median of the readings taken during it,
    with the last one before it; the speed changes too fast for readings
    further away to help.  The readings taken inside an in-process interval
    are taken out of its time first.  On a shared 2-vCPU VM this cut the
    spread of an op's repeats (coefficient of variation) from 0.16-0.21 to
    0.06-0.10 for ops of 13-190 ms; for a 1.7 s op of 64x64 Jacobi sweeps it
    stayed at about 0.11.  The kernel is not fbff code, so a change to fbff
    moves only the op time.
    """

    def __init__(self):
        self.readings: list[tuple[float, float]] = []  # (end CPU time, kernel CPU seconds)
        self._times: list[float] = []  # end times of the readings, for bisect
        self.tick()

    def tick(self, *_signal) -> float:
        """Read the kernel; returns the CPU time the reading ended."""
        start = cpu_clock()
        calibration_kernel()
        end = cpu_clock()
        self.readings.append((end, end - start))  # one append: safe from the timer
        return end

    @contextlib.contextmanager
    def sampling(self):
        """Read the kernel every KERNEL_EVERY_S, also in the middle of ops."""
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, KERNEL_EVERY_S, KERNEL_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float, seconds: float, inline: bool = True) -> float:
        """``seconds`` measured between ``start`` and the reading that ended at
        ``end``, at the reference speed.  ``inline``: the interval ran in this
        process, so the timer's readings inside it are part of ``seconds``."""
        if len(self._times) != len(self.readings):
            self._times = [t for t, _ in self.readings]
        times = self._times
        first = bisect.bisect_right(times, start)  # the first reading inside
        last = bisect.bisect_left(times, end)  # the one that ended at ``end``
        lo, hi = max(0, first - 1), last + 1
        if inline:
            seconds -= sum(k for _, k in self.readings[first:last])
        return seconds * KERNEL_REF_S / statistics.median(k for _, k in self.readings[lo:hi])


def run_op(cli, op) -> tuple[float, int, str]:
    """Run one CLI op in-process; returns (CPU seconds, exit code, stdout)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = cpu_clock()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(op.argv))
    return cpu_clock() - start, code, stdout.getvalue()


def judge(op, code: int, stdout: str) -> tuple[bool, list[str]]:
    """(failed, wrong outputs).  A max-flat search that runs out of restarts
    fails the op without making the output wrong."""
    try:
        if op.kind == "design-maxflat" and code == 1 and json.loads(stdout)["converged"] is False:
            return True, []
        if code != op.exit:
            return True, [f"exit code {code}, expected {op.exit}"]
        text = Path(op.out).read_text(encoding="utf-8") if op.out else None
        wrong = op.check(stdout, text)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        wrong = [f"unreadable output: {exc!r}"]
    return bool(wrong), wrong


class Pass:
    """Latencies, failures and CLI outputs of ops run in a closed loop."""

    def __init__(self, cli, clock: HostClock):
        self.cli = cli
        self.clock = clock
        self.samples: dict[str, list[tuple[float, float, float]]] = {}  # label -> (start, end, latency)
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.roots = 0  # roots in the reports of analyze/verify
        self.lm_iterations = 0
        self.restarts = 0
        self.designs = 0

    def run(self, op) -> None:
        """Run, time and check one op."""
        self.attempted += 1
        gc.collect()  # a fresh CLI process starts with an empty heap too
        start = cpu_clock()
        try:
            seconds, code, stdout = run_op(self.cli, op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.failed += 1
            self.wrong.append(f"{op.label}: raised {exc!r}")
            return
        self.samples.setdefault(op.label, []).append((start, self.clock.tick(), seconds))
        failed, wrong = judge(op, code, stdout)
        self.failed += failed
        self.wrong += [f"{op.label}: {w}" for w in wrong]
        if not wrong:
            self._tally(op, stdout)

    def _tally(self, op, stdout: str) -> None:
        if op.kind in ("analyze", "verify"):
            self.roots += len(json.loads(Path(op.out).read_text(encoding="utf-8"))["per_root"])
        if op.kind == "design-maxflat":
            report = json.loads(stdout)
            self.designs += report["converged"]
            self.restarts += report["restart"] + 1 if report["converged"] else workloads.MAXFLAT_RESTARTS
            self.lm_iterations += report["iterations"]

    def typical(self, raw: bool = False) -> dict[str, float]:
        """Each op's median latency over its repeats, scaled or measured."""
        return {
            label: statistics.median(s if raw else self.clock.scaled(start, end, s) for start, end, s in samples)
            for label, samples in self.samples.items()
        }

    def ops_per_s(self, raw: bool = False) -> float:
        """Ops in one pass over the sum of their typical latencies."""
        typical = self.typical(raw).values()
        return len(typical) / sum(typical) if typical else 0.0


def setup(workload: str, seed: int, workdir: Path):
    """Generate the inputs and reference answers; (ops, seconds)."""
    start = cpu_clock()
    ops = workloads.generate(workload, seed, workdir)
    return ops, cpu_clock() - start


def warm_up(cli, ops) -> list[str]:
    """Run the first op of each subcommand once, untimed, so lazy imports and
    first-call costs stay out of the measurement."""
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    warm = Pass(cli, HostClock())
    for op in first.values():
        warm.run(op)
    return warm.wrong


def spawn_once(root: Path, op) -> tuple[float, list[str]]:
    """CPU time of ``python -m fbff`` on one op, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "fbff", *op.argv],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    seconds = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return seconds, [f"spawned {op.label}: {w}" for w in judge(op, proc.returncode, proc.stdout)[1]]


def tail(latencies) -> tuple[float, float]:
    """(percentile, value) of the slowest latency with TAIL_BEYOND ops above it."""
    done = sorted(latencies)
    index = max(0, len(done) - 1 - TAIL_BEYOND)
    return 100.0 * index / max(1, len(done) - 1), done[index]


def environment(root: Path, workload: str, seed: int, trace: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),  # not a parent's repo
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def latency_metrics(loop: Pass, spawns, setups, raw: bool = False) -> dict:
    typical = loop.typical(raw)
    return {
        "ops_per_s": (loop.ops_per_s(raw), "ops/s"),
        "latency_p50_ms": (1000.0 * statistics.median(typical.values()), "ms"),
        "latency_tail_ms": (1000.0 * tail(typical.values())[1], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "cli_start_ms": (1000.0 * statistics.median(spawns), "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def measure(cli, ops, seconds: float, root: Path, resetup, n_setups: int) -> tuple[dict, dict, list[Pass]]:
    """Run passes over the ops until ``seconds`` have passed, each op at least
    once.  Every op gets the same number of repeats (give or take one): the
    few slowest ops make up most of ``ops_per_s``, so they need as many
    repeats for a steady median as the ones ``latency_p50_ms`` reads.  At
    SPAWNS even intervals the first op is also spawned as a fresh process,
    and at ``n_setups`` even intervals ``resetup()`` times a fresh set-up,
    so that these timings, like the ops', sample the whole run.  Metrics use scaled times (see
    HostClock); the measured ones go to the result file as ``unscaled``."""
    clock = HostClock()
    loop = Pass(cli, clock)
    spawns, setups = [], []  # (start, end, measured seconds)
    done = 0
    with clock.sampling():
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(spawns) < SPAWNS and elapsed >= len(spawns) * seconds / SPAWNS:
                begin = cpu_clock()
                spawn_s, problems = spawn_once(root, ops[0])  # workloads list their smallest op first
                spawns.append((begin, clock.tick(), spawn_s))
                loop.wrong += problems
            elif len(setups) < n_setups and elapsed >= len(setups) * seconds / n_setups:
                begin = cpu_clock()
                setup_s = resetup()
                setups.append((begin, clock.tick(), setup_s))
            elif done >= len(ops) and elapsed >= seconds:
                break
            else:
                loop.run(ops[done % len(ops)])
                done += 1

    spawn_s = [clock.scaled(*spawn, inline=False) for spawn in spawns]
    setup_s = [clock.scaled(*setup) for setup in setups]
    metrics = latency_metrics(loop, spawn_s, setup_s)
    unscaled = latency_metrics(loop, [s for *_, s in spawns], [s for *_, s in setups], raw=True)
    typical = loop.typical()
    info = {
        "repeats": {"min": min(map(len, loop.samples.values())), "max": max(map(len, loop.samples.values()))},
        "samples": loop.attempted,
        "tail_percentile": tail(typical.values())[0],
        "tail_ops": len(typical),
        "unscaled": {name: value for name, (value, _) in unscaled.items()},
        "kernel_ms": {
            "readings": len(clock.readings),
            "median": 1000.0 * statistics.median(k for _, k in clock.readings),
            "min": 1000.0 * min(k for _, k in clock.readings),
            "max": 1000.0 * max(k for _, k in clock.readings),
        },
        "spawn_ms": [1000.0 * s for s in spawn_s],
        "setup_s": setup_s,
        "typical_latency_ms": {label: 1000.0 * t for label, t in typical.items()},
    }
    return metrics, info, [loop]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fbff" / "cli.py").is_file():
        print("error: run from the root of an fbff checkout (src/fbff not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import fbff.cli as cli

    (root / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".perfbench"))
    try:
        return _run(args, root, workdir, cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# Per-layer metrics: (target, stat) read from the tracer's totals.
LAYER_STATS = (
    ("cli.main", "calls"), ("cli.main", "self_s"), ("cli.frequency_table", "self_s"),
    ("signals.bank_from_json", "self_s"), ("signals.bank_to_json", "self_s"),
    ("signals.signal_to_json", "self_s"), ("signals.circ_convolve", "calls"),
    ("signals.circ_convolve", "self_s"),
    ("cyclic.eval_at_root", "calls"), ("cyclic.eval_at_root", "self_s"),
    ("cyclic.eval_all", "calls"), ("cyclic.eval_all", "self_s"),
    ("cyclic.mul", "calls"), ("cyclic.mul", "self_s"),
    ("polyphase.matrix_of", "self_s"), ("polyphase.bank_of", "self_s"),
    ("polyphase.gram", "calls"), ("polyphase.gram", "self_s"),
    ("polyphase.zak_power_rows", "self_s"),
    ("analysis.fusion_report", "calls"), ("analysis.fusion_report", "total_s"),
    ("analysis.fusion_report", "self_s"), ("analysis.frame_bounds", "self_s"),
    ("analysis.hermitian_eigs", "calls"), ("analysis.hermitian_eigs", "self_s"),
    ("analysis.channel_is_projection", "calls"), ("analysis.channel_is_projection", "self_s"),
    ("analysis.verify_weighted_parseval", "self_s"),
    ("constructions.tensor", "self_s"), ("constructions.paraunitary_product", "self_s"),
    ("constructions.paraunitary_chain", "total_s"),
    ("multilevel.compose_tree", "total_s"), ("multilevel.verify_tree", "total_s"),
    ("multilevel.equivalent_filter", "calls"),
    ("gabor.design_maxflat", "total_s"), ("gabor.levenberg_marquardt", "calls"),
    ("gabor.levenberg_marquardt", "self_s"), ("gabor.tightness_residual", "calls"),
    ("gabor.tightness_residual", "self_s"), ("gabor.flatness_solve_odd", "calls"),
    ("oracle.densify", "self_s"), ("oracle.dense_frame_spectrum", "self_s"),
    ("oracle.dense_channel_gram", "self_s"), ("oracle.spectrum_union_check", "self_s"),
    ("oracle.hermitian_eigs", "calls"), ("oracle.hermitian_eigs", "self_s"),
)


def trace_run(cli, ops) -> tuple[dict, dict, list[Pass]]:
    """One untraced pass, then one traced pass of the same ops."""
    clock = HostClock()
    plain = Pass(cli, clock)
    for op in ops:
        plain.run(op)
    tracer = Tracer()
    traced = Pass(cli, clock)
    tracer.install()
    try:
        for index, op in enumerate(ops):
            tracer.begin_op(index)
            traced.run(op)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    metrics = {
        f"{name}.{stat}": (totals.get(name, empty)[stat], "count" if stat == "calls" else "s")
        for name, stat in LAYER_STATS
    }
    roots = traced.roots
    for name in ("polyphase.gram", "analysis.hermitian_eigs"):
        calls = totals.get(name, empty)["calls"]
        metrics[f"{name}.calls_per_root"] = (calls / roots if roots else 0.0, "ratio")
    metrics["gabor.lm_iterations"] = (traced.lm_iterations, "count")
    metrics["gabor.restart_yield"] = (traced.designs / traced.restarts if traced.restarts else 0.0, "ratio")
    metrics["trace.ops_per_s_untraced"] = (plain.ops_per_s(), "ops/s")
    metrics["trace.ops_per_s_traced"] = (traced.ops_per_s(), "ops/s")
    overhead = plain.ops_per_s() / traced.ops_per_s() if traced.ops_per_s() else 0.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    info = {
        "absent": tracer.absent,
        "per_op": {
            ops[i].label: {name: dict(zip(("calls", "total_s", "self_s"), agg)) for name, agg in stats.items()}
            for i, stats in tracer.per_op.items()
        },
        "spans": [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "op": s[5]}
            for s in tracer.spans
        ],
    }
    return metrics, info, [plain, traced]


def _run(args, root: Path, workdir: Path, cli) -> int:
    ops, setup_s = setup(args.workload, args.seed, workdir)
    wrong = warm_up(cli, ops)
    if args.trace:
        metrics, info, passes = trace_run(cli, ops)
    else:
        resetups = itertools.count()

        def resetup():
            return setup(args.workload, args.seed, workdir / f"resetup-{next(resetups)}")[1]

        n_setups = max(SETUPS, min(4 * SETUPS, int(SETUP_SHARE * args.seconds / setup_s)))
        metrics, info, passes = measure(cli, ops, args.seconds, root, resetup, n_setups)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wrong += [w for p in passes for w in p.wrong]
    info.update(ops_per_pass=len(ops), fail_ratio=failed / attempted, wrong=wrong)

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"environment": environment(root, args.workload, args.seed, args.trace), **result, **info}
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in wrong:
        print(f"WRONG {problem}")
    for key in ("repeats", "samples", "tail_percentile", "tail_ops", "unscaled", "kernel_ms", "absent"):
        if key in info:
            print(f"{key}: {info[key]}")
    print(f"fail_ratio: {info['fail_ratio']} ratio")
    for metric, (value, unit) in metrics.items():
        print(f"{metric}: {value} {unit}")
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
