"""Tests of the benchmark itself: inputs, reference checks and the tracer."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fbff.cli as cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


def _inputs(workload, seed, workdir: Path):
    """The op command lines and input files of a workload, workdir-relative."""
    ops = workloads.generate(workload, seed, workdir)
    argv = [tuple(a.replace(str(workdir), "") for a in op.argv) for op in ops]
    files = {p.relative_to(workdir): p.read_bytes() for p in sorted(workdir.rglob("*")) if p.is_file()}
    return argv, files


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = _inputs(workload, 7, tmp_path / "a")
    assert first[0] and first == _inputs(workload, 7, tmp_path / "b")
    assert first != _inputs(workload, 8, tmp_path / "c")


def test_reference_module_does_not_import_fbff():
    code = "import sys, workloads; sys.exit('fbff' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], cwd=BENCH).returncode == 0


def _run_and_read(op):
    _, code, stdout = run.run_op(cli, op)
    assert code == op.exit
    return stdout, Path(op.out).read_text(encoding="utf-8")


def _op(ops, label):
    return next(op for op in ops if op.label == label)


def test_checker_rejects_tampered_reports(tmp_path):
    ops = workloads.generate("verify-grid", 3, tmp_path)
    op = _op(ops, "verify tensor-2x3x64")
    stdout, text = _run_and_read(op)
    assert op.check(stdout, text) == []

    flipped = json.loads(text)
    flipped["is_puntf"] = not flipped["is_puntf"]
    assert op.check(stdout, json.dumps(flipped))

    nudged = json.loads(text)
    nudged["A"] += 1e-6
    assert op.check(stdout, json.dumps(nudged))


def test_checker_rejects_tampered_taps_and_designs(tmp_path):
    build = _op(workloads.generate("verify-grid", 3, tmp_path / "g"), "build tensor 4x6x128")
    stdout, text = _run_and_read(build)
    assert build.check(stdout, text) == []
    bank = json.loads(text)
    bank["filters"][1]["samples"][3][0] += 1e-9
    assert build.check(stdout, json.dumps(bank))

    design = workloads.generate("maxflat-design", 3, tmp_path / "m")[0]
    stdout, text = _run_and_read(design)
    assert design.check(stdout, text) == []
    taps = json.loads(text)
    taps["samples"][0][0] *= 1.001
    assert design.check(stdout, json.dumps(taps))


def test_self_time_of_a_synthetic_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.begin_op(0)
    tracer.enter("root")  # 0 .. 10
    tracer.enter("a")  # 1 .. 4
    tracer.enter("b", keep=False)  # 2 .. 3, aggregated only
    tracer.exit()
    tracer.exit()
    tracer.enter("a")  # 5 .. 8
    tracer.exit()
    tracer.exit()

    totals = tracer.totals()
    assert totals["root"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert totals["a"] == {"calls": 2, "total_s": 6.0, "self_s": 5.0}
    assert totals["b"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert tracer.spans == [
        (0, "root", 0.0, 10.0, None, 0),
        (1, "a", 1.0, 4.0, 0, 0),
        (2, "a", 5.0, 8.0, 0, 0),
    ]


def test_missing_targets_are_reported_absent():
    tracer = Tracer()
    tracer.install(
        (
            Target("polyphase.eval_matrix", ("fbff.polyphase:no_such_function",)),
            Target("gone.module", ("fbff.no_such_module:f",)),
        )
    )
    tracer.uninstall()
    assert tracer.absent == ["polyphase.eval_matrix", "gone.module"]


def test_scaling_uses_the_readings_during_an_interval():
    clock = run.HostClock()
    k = run.KERNEL_REF_S
    clock.readings = [(1.0, k), (2.0, 2 * k), (3.0, 2 * k), (4.0, k)]
    # readings at 2.0 and 3.0 fall in the interval, 1.0 is the last before it;
    # the one at 2.0 ran inside the op, so its time is taken out of the op's
    assert clock.scaled(1.5, 3.0, 1.0) == pytest.approx((1.0 - 2 * k) / 2)
    assert clock.scaled(1.5, 3.0, 1.0, inline=False) == pytest.approx(0.5)
    assert clock.scaled(3.5, 4.0, 1.0) == pytest.approx(2 / 3)  # median of 2k and k
    assert clock.scaled(0.0, 1.0, 1.0) == pytest.approx(1.0)  # before the first reading


def test_sampling_reads_the_kernel_while_busy_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    clock = run.HostClock()
    with clock.sampling():
        end = time.perf_counter() + 4 * run.KERNEL_EVERY_S
        while time.perf_counter() < end:
            pass
    assert len(clock.readings) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _small_ops(tmp_path):
    ops = workloads.generate("verify-grid", 5, tmp_path / "g")[:8]
    ops += workloads.generate("oracle-ensemble", 5, tmp_path / "o")[:6]
    tree = workloads.generate("tree-compose", 5, tmp_path / "t")
    ops += [op for op in tree if op.label.endswith(("example7-64", "dwt-e7-3L-64"))]
    ops += workloads.generate("maxflat-design", 5, tmp_path / "m")[:3]
    return ops


def test_traced_call_counts_repeat_exactly(tmp_path):
    ops = _small_ops(tmp_path)
    first, info, passes = run.trace_run(cli, ops)
    second, _, _ = run.trace_run(cli, ops)
    assert all(p.wrong == [] for p in passes) and info["absent"] == []
    counts = {k: v for k, v in first.items() if k.endswith(".calls")}
    assert counts == {k: v for k, v in second.items() if k.endswith(".calls")}
    assert first["cli.main.calls"][0] == len(ops)
    assert first["cyclic.eval_at_root.calls"][0] > 0
    # the wrappers are gone after the traced pass
    assert cli.main.__module__ == "fbff.cli" and not hasattr(cli.main, "__wrapped__")
