"""In-memory span tracer that wraps fbff functions at their call sites.

A function imported with ``from .polyphase import gram`` is a separate
binding in the importing module, so each target lists every binding through
which the library calls it; all of them feed one metric.  Targets that are
missing (renamed or deleted by a refactor) are reported as absent instead of
failing the run.

Every call is aggregated per op as (calls, total seconds, self seconds),
where self time is the call's duration minus the time its traced children
took.  Calls of targets marked ``hot`` (10^4 to 10^5 per op) are only
aggregated; calls of the other targets are also kept as individual spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    name: str
    bindings: tuple[str, ...]  # "module:attr" or "module:Class.attr"
    hot: bool = False


def _t(name, *bindings, hot=False):
    return Target(name, tuple(bindings), hot)


# The metric name is the function's home module and name; the bindings are
# the places the library calls it from.  hermitian_eigs is split by call
# site: per-root Grams in analysis, the dense frame operator in oracle.
TARGETS = (
    _t("cli.main", "fbff.cli:main"),
    _t("cli.frequency_table", "fbff.cli:frequency_table"),
    _t("signals.bank_from_json", "fbff.cli:bank_from_json", "fbff.signals:bank_from_json"),
    _t("signals.bank_to_json", "fbff.cli:bank_to_json"),
    _t("signals.signal_to_json", "fbff.cli:signal_to_json", "fbff.signals:signal_to_json", hot=True),
    _t("signals.circ_convolve", "fbff.signals:circ_convolve", "fbff.multilevel:circ_convolve", hot=True),
    _t("cyclic.eval_at_root", "fbff.cyclic:CyclicPoly.eval_at_root", hot=True),
    _t("cyclic.eval_all", "fbff.cyclic:CyclicPoly.eval_all", hot=True),
    _t("cyclic.mul", "fbff.cyclic:CyclicPoly.__mul__", hot=True),
    _t("polyphase.matrix_of", "fbff.analysis:matrix_of", "fbff.oracle:matrix_of"),
    _t("polyphase.bank_of", "fbff.cli:bank_of", "fbff.constructions:bank_of"),
    _t("polyphase.gram", "fbff.analysis:gram", "fbff.oracle:gram", hot=True),
    _t("polyphase.zak_power_rows", "fbff.analysis:zak_power_rows", "fbff.polyphase:zak_power_rows"),
    _t("analysis.fusion_report", "fbff.analysis:fusion_report"),
    _t("analysis.frame_bounds", "fbff.analysis:frame_bounds"),
    _t("analysis.hermitian_eigs", "fbff.analysis:hermitian_eigs", hot=True),
    _t(
        "analysis.channel_is_projection",
        "fbff.analysis:channel_is_projection",
        "fbff.multilevel:channel_is_projection",
        hot=True,
    ),
    _t("analysis.verify_weighted_parseval", "fbff.multilevel:verify_weighted_parseval"),
    _t("constructions.tensor", "fbff.constructions:tensor"),
    _t("constructions.paraunitary_product", "fbff.constructions:paraunitary_product"),
    _t("constructions.paraunitary_chain", "fbff.constructions:paraunitary_chain"),
    _t("multilevel.compose_tree", "fbff.multilevel:compose_tree"),
    _t("multilevel.verify_tree", "fbff.multilevel:verify_tree"),
    _t("multilevel.equivalent_filter", "fbff.multilevel:equivalent_filter", hot=True),
    _t("gabor.design_maxflat", "fbff.gabor:design_maxflat"),
    _t("gabor.levenberg_marquardt", "fbff.gabor:levenberg_marquardt"),
    _t("gabor.tightness_residual", "fbff.gabor:tightness_residual", hot=True),
    _t("gabor.flatness_solve_odd", "fbff.gabor:flatness_solve_odd", hot=True),
    _t("oracle.densify", "fbff.oracle:densify"),
    _t("oracle.dense_frame_spectrum", "fbff.oracle:dense_frame_spectrum"),
    _t("oracle.dense_channel_gram", "fbff.oracle:dense_channel_gram"),
    _t("oracle.spectrum_union_check", "fbff.oracle:spectrum_union_check"),
    _t("oracle.hermitian_eigs", "fbff.oracle:hermitian_eigs", hot=True),
)


def _resolve(binding: str):
    """(owner object, attribute name), or None when the binding is gone."""
    module_name, _, path = binding.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Collects spans and per-op aggregates while its targets are installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op)
        self.per_op: dict = {}  # op -> name -> [calls, total_s, self_s]
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, start, child_s, span id]
        self._patched: list[tuple] = []
        self._op = None

    # -- installing ----------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            found = [r for r in map(_resolve, target.bindings) if r is not None]
            if not found:
                self.absent.append(target.name)
            for owner, attr in found:
                original = getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self.wrap(target.name, original, target.hot))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def wrap(self, name: str, fn, hot: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name, keep=not hot)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    # -- recording -----------------------------------------------------------

    def begin_op(self, op) -> None:
        self._op = op
        self.per_op.setdefault(op, {})

    def enter(self, name: str, keep: bool = True) -> None:
        span_id = len(self.spans) if keep else None
        if keep:
            self.spans.append(None)  # filled in by exit()
        self._stack.append([name, self.clock(), 0.0, span_id])

    def exit(self) -> None:
        end = self.clock()
        name, start, child_s, span_id = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        agg = self.per_op[self._op].setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_s
        if span_id is not None:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            self.spans[span_id] = (span_id, name, start, end, parent, self._op)

    # -- reading -------------------------------------------------------------

    def totals(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} summed over all ops."""
        out: dict = {}
        for stats in self.per_op.values():
            for name, (calls, total, self_s) in stats.items():
                agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                agg["calls"] += calls
                agg["total_s"] += total
                agg["self_s"] += self_s
        return out
