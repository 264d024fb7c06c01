"""Seeded inputs, CLI op lists and output checks for each workload.

``generate(workload, seed, workdir)`` writes every input file under
``workdir/in`` and returns the ops of one pass.  Each op is one ``fbff``
command line with its ``--out`` file under ``workdir/out``, the exit code it
must return and a check that compares its output with answers computed by
:mod:`reference` (numpy only) while generating.  A check returns the list of
problems it found; an empty list means the output is right.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

BOUND_TOL = 1e-9  # |A - A_ref|, |B - B_ref| and per-root bounds, times max(1, B)
DENSE_TOL = 1e-8  # oracle A_dense / B_dense against the reference
TAP_TOL = 1e-12  # built filter taps against the reference construction
ZAK_TOL = 1e-7  # max-flat unit norm and Zak row sums
FREQ_TOL = 1e-9  # squared responses, times max(1, peak)


@dataclass(frozen=True)
class Op:
    label: str
    kind: str  # the fbff subcommand
    argv: tuple[str, ...]
    exit: int  # expected exit code
    out: str | None  # file the op writes, None when it reports on stdout only
    check: Callable[[str, str | None], list[str]]  # (stdout, out text) -> problems


class Inputs:
    """Writes input files and names output files inside one work directory."""

    def __init__(self, workdir: Path):
        self.indir = workdir / "in"
        self.outdir = workdir / "out"
        self.indir.mkdir(parents=True, exist_ok=True)
        self.outdir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, obj) -> str:
        path = self.indir / name
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        return str(path)

    def out(self, name: str) -> str:
        return str(self.outdir / name)


# -- checks ----------------------------------------------------------------------


def _close(got, want, tol) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol))


def bank_answers(coeffs: np.ndarray, tight: bool) -> dict:
    """What analyze/verify must report for a bank; tightness and projection
    channels are known from how the bank was made."""
    m, n, p = coeffs.shape
    per_root = ref.per_root_bounds(coeffs)
    a, b = float(per_root[:, 0].min()), float(per_root[:, 1].max())
    norms = ref.column_norms(coeffs)
    # the construction and the numbers must agree before they judge fbff
    if tight != (b - a <= 1e-9 * b) or tight != bool(np.all(np.abs(norms - 1) <= 1e-9)):
        raise RuntimeError("reference construction is inconsistent")
    return {
        "A": a,
        "B": b,
        "per_root": per_root,
        "channel_projection": [tight] * n,
        "is_tight": tight,
        "is_puntf": tight,
        "redundancy": Fraction(n, m),
        "projection_rank": p,
    }


def report_check(ans: dict, verify: bool, oracle: bool):
    tol = BOUND_TOL * max(1.0, ans["B"])

    def check(stdout, text):
        out = json.loads(text)
        problems = []
        if not _close([out["A"], out["B"]], [ans["A"], ans["B"]], tol):
            problems.append(f"bounds {out['A']}, {out['B']} != {ans['A']}, {ans['B']}")
        if not _close(out["per_root"], ans["per_root"], tol):
            problems.append("per-root bounds differ from the reference")
        for key in ("channel_projection", "is_tight", "is_puntf", "projection_rank"):
            if out[key] != ans[key]:
                problems.append(f"{key} = {out[key]!r}, expected {ans[key]!r}")
        red = out["redundancy"]
        if Fraction(red["num"], red["den"]) != ans["redundancy"]:
            problems.append(f"redundancy {red} != {ans['redundancy']}")
        if oracle:
            o = out["oracle"]
            dense_tol = DENSE_TOL * max(1.0, ans["B"])
            if not _close([o["A_dense"], o["B_dense"]], [ans["A"], ans["B"]], dense_tol):
                problems.append("dense bounds differ from the reference")
            if not (o["channel_match"] and o["spectrum_union_ok"] and o["agrees"]):
                problems.append(f"oracle disagrees: {o}")
        if verify and out["ok"] != ans["is_puntf"]:
            problems.append(f"ok = {out['ok']!r}, expected {ans['is_puntf']!r}")
        return problems

    return check


def taps_check(coeffs: np.ndarray):
    m, _, p = coeffs.shape
    want = ref.filters_of(coeffs)

    def check(stdout, text):
        out = json.loads(text)
        if (out["downsample"], out["inner_period"]) != (m, p):
            return [f"shape M={out['downsample']}, P={out['inner_period']}"]
        got = np.stack([ref.samples_of(f) for f in out["filters"]])
        if got.shape != want.shape or np.max(np.abs(got - want)) > TAP_TOL:
            return ["filter taps differ from the reference construction"]
        return []

    return check


def chain_check(dim: int, period: int, count: int):
    """A built chain must be a dim x dim paraunitary matrix of degree <= count."""

    def check(stdout, text):
        coeffs = ref.coeffs_of_json(json.loads(text))
        if coeffs.shape != (dim, dim, period):
            return [f"chain shape {coeffs.shape}"]
        support = np.flatnonzero(np.max(np.abs(coeffs), axis=(0, 1)) > 1e-12)
        problems = []
        if any(0 < k < period - count for k in support):
            problems.append("chain has coefficients beyond its degree")
        if not ref.is_paraunitary(coeffs):
            problems.append("built chain is not paraunitary")
        return problems

    return check


def _channels(bank: str) -> int:
    return ref.NAMED[bank](1).shape[1]


def _tree_leaves(spec, rate=1):
    """Rates of a tree's leaves; every named bank here has downsample 2."""
    children = spec.get("children") or ["identity"] * _channels(spec["bank"])
    out = []
    for child in children:
        out += [2 * rate] if child == "identity" else _tree_leaves(child, 2 * rate)
    return out


def compose_check(spec, ambient: int, verify: bool):
    rates = sorted(_tree_leaves(spec))

    def check(stdout, text):
        out = json.loads(text)
        leaves = out["leaves"]
        if out["ambient_dim"] != ambient:
            return [f"ambient_dim {out['ambient_dim']} != {ambient}"]
        problems = []
        if sorted(leaf["rate"] for leaf in leaves) != rates:
            problems.append("leaf rates differ from the tree")
        total = sum(Fraction(leaf["weight"]["num"], leaf["weight"]["den"]) * leaf["rank"] for leaf in leaves)
        if total != ambient:
            problems.append(f"sum of weight * rank = {total}, expected {ambient}")
        for leaf in leaves:
            if abs(np.linalg.norm(ref.samples_of(leaf["filter"])) - 1.0) > 1e-9:
                problems.append("a leaf filter is not unit norm")
                break
        if verify and out.get("verified") is not True:
            problems.append(f"verified = {out.get('verified')!r}")
        return problems

    return check


def freq_check(filters: np.ndarray, n_samples: int):
    want = ref.frequency_table(filters, n_samples)
    tol = FREQ_TOL * max(1.0, float(want.max()))

    def check(stdout, text):
        lines = text.splitlines()
        if lines[0] != "n,omega,mag2" or len(lines) != want.size + 1:
            return ["frequency table has the wrong header or row count"]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        n, k = np.divmod(np.arange(want.size), n_samples)
        problems = []
        if not (np.array_equal(rows[:, 0], n) and _close(rows[:, 1], 2 * np.pi * k / n_samples, 1e-12)):
            problems.append("frequency table rows are out of order")
        if not _close(rows[:, 2], want.ravel(), tol):
            problems.append("squared responses differ from the reference")
        return problems

    return check


def design_check(half_taps: int, seed: int):
    """A converged design: unit-norm taps with Zak row sums R/M = 1."""

    def check(stdout, text):
        report = json.loads(stdout)
        if report["half_taps"] != half_taps or report["seed"] != seed:
            return [f"report is for T={report['half_taps']}, seed={report['seed']}"]
        taps = ref.samples_of(json.loads(text))
        rows = ref.zak_row_sums(taps, 2, 2)
        problems = []
        if abs(np.linalg.norm(taps) - 1.0) > ZAK_TOL:
            problems.append("designed taps are not unit norm")
        if np.max(np.abs(rows - 1.0)) > ZAK_TOL:
            problems.append("Zak row sums differ from R/M")
        if not _close([report["A"], report["B"]], [2 * rows.min(), 2 * rows.max()], ZAK_TOL):
            problems.append("reported bounds differ from the Zak row sums")
        if report["is_tight"] is not True:
            problems.append("design is not reported tight")
        # modulation keeps polyphase norms, so every channel shares the prototype's verdict
        norms = ref.column_norms(ref.coeffs_of(taps[None, :], 2))
        projection = bool(np.all(np.abs(norms - 1.0) <= ZAK_TOL))
        if report["channel_projection"] != [projection] * 4:
            problems.append(f"channel_projection = {report['channel_projection']}, expected {projection}")
        if np.count_nonzero(np.abs(taps) > 0) > 2 * half_taps:
            problems.append("design has more than 2T taps")
        return problems

    return check


# -- workloads -------------------------------------------------------------------

def _random_coeffs(rng, m, n, p) -> np.ndarray:
    return rng.standard_normal((m, n, p)) + 1j * rng.standard_normal((m, n, p))


def _report_op(io, label, path, ans, kind, oracle=False) -> Op:
    """analyze or verify of one bank; verify exits 1 unless the bank is a PUNTF."""
    out = io.out(f"{label}.{kind}.json")
    argv = (kind, path, *(("--oracle",) if oracle else ()), "--out", out)
    code = 1 if kind == "verify" and not ans["is_puntf"] else 0
    return Op(f"{kind} {label}", kind, argv, code, out, report_check(ans, kind == "verify", oracle))


# The ROADMAP's (M, N, P) grid with, per size, how many random banks and
# chains to add.  (16, 24, 256) is left out: 10.8 s per report.  The smaller
# sizes get more banks so that a pass has enough distinct ops for a tail.
GRID = ((2, 3, 64, 8, 4), (4, 6, 128, 6, 3), (8, 12, 256, 1, 1))
CHAIN_COUNT = 3


def verify_grid(rng, io: Inputs) -> list[Op]:
    """Per size: build and verify the tight tensor bank, build and analyze
    tight chains, and verify or analyze random banks (verify exits 1)."""
    ops = []
    for m, n, p, randoms, chains in GRID:
        size = f"{m}x{n}x{p}"
        # tight: Mercedes-Benz times 4-tap pairs (A = B = 1.5)
        factors = ["mercedes-benz"] + ["daubechies4"] * (m.bit_length() - 2)
        coeffs = ref.tensor(factors, p)
        out = io.out(f"tensor-{size}.build.json")
        name = ("tensor", "--factors", ",".join(factors)) if len(factors) > 1 else (factors[0],)
        ops.append(Op(f"build tensor {size}", "build", ("build", *name, "--period", str(p), "--out", out), 0, out, taps_check(coeffs)))
        path = io.write(f"tensor-{size}.json", ref.bank_json(coeffs))
        ops.append(_report_op(io, f"tensor-{size}", path, bank_answers(coeffs, True), "verify"))

        # tight: paraunitary chains (A = B = 1, N = M)
        for i in range(chains):
            label = f"chain-{m}x{m}x{p}-{i}"
            out = io.out(f"{label}.build.json")
            argv = ("build", "paraunitary-chain", "--period", str(p), "--dim", str(m),
                    "--count", str(CHAIN_COUNT), "--seed", str(int(rng.integers(2**31))), "--out", out)
            ops.append(Op(f"build {label}", "build", argv, 0, out, chain_check(m, p, CHAIN_COUNT)))
            units = [u / np.linalg.norm(u) for u in _random_coeffs(rng, CHAIN_COUNT, m, 1)[:, :, 0]]
            coeffs = ref.paraunitary_chain(units, p)
            path = io.write(f"{label}.json", ref.bank_json(coeffs))
            ops.append(_report_op(io, label, path, bank_answers(coeffs, True), "analyze"))

        # not tight: Gaussian polyphase coefficients
        for i in range(randoms):
            coeffs = _random_coeffs(rng, m, n, p)
            label = f"random-{size}-{i}"
            path = io.write(f"{label}.json", ref.bank_json(coeffs))
            ops.append(_report_op(io, label, path, bank_answers(coeffs, False), ("verify", "analyze")[i % 2]))
    return ops


# Random banks: every (M, P) with M <= 4, P <= 8 (dense dimension 2..32)
# at N = M + 1 and N = M + 2, then two at dense dimension 64.  Each bank
# gets one op, verify or analyze in turn, so the Jacobi cost, which varies
# with the bank, is averaged over many distinct banks.
ORACLE_SMALL = tuple((m, p, m + extra) for extra in (1, 2) for m in (1, 2, 3, 4) for p in (2, 4, 6, 8))
ORACLE_LARGE = ((4, 16, 5), (8, 8, 9))
ORACLE_NAMED = (("mercedes-benz", 16), ("example5", 32), ("example7", 32), ("mercedes-benz", 64), ("example5", 64), ("example7", 64))


def oracle_ensemble(rng, io: Inputs) -> list[Op]:
    ops = []
    for i, (m, p, n) in enumerate(ORACLE_SMALL + ORACLE_LARGE):
        coeffs = _random_coeffs(rng, m, n, p)
        label = f"random-{i}-{m}x{n}x{p}"
        kind = ("verify", "analyze")[(i + i // 16) % 2]
        path = io.write(f"{label}.json", ref.bank_json(coeffs))
        ops.append(_report_op(io, label, path, bank_answers(coeffs, False), kind, oracle=True))
    for i, (name, p) in enumerate(ORACLE_NAMED):
        coeffs = ref.NAMED[name](p)
        label = f"{name}-{p}"
        path = io.write(f"{label}.json", ref.bank_json(coeffs))
        kind = ("verify", "analyze")[i % 2]
        ops.append(_report_op(io, label, path, bank_answers(coeffs, True), kind, oracle=True))
    return ops


def _dwt(bank, levels, branch=None):
    """Tree re-expanding one channel per level: channel 0, or the channel
    ``branch`` picks at each level (a seeded wavelet-packet path)."""
    node = {"bank": bank}
    for level in range(levels - 1):
        children = ["identity"] * _channels(bank)
        children[0 if branch is None else branch(level)] = node
        node = {"bank": bank, "children": children}
    return node


def _packet(bank, levels):
    node = {"bank": bank}
    for _ in range(levels - 1):
        node = {"bank": bank, "children": [node] * _channels(bank)}
    return node


def tree_compose(rng, io: Inputs) -> list[Op]:
    """compose --verify and plain compose of each tree, and freq of each bank."""

    def path(bank):
        return lambda level: int(rng.integers(_channels(bank)))

    d4, e7 = "daubechies4", "example7"
    # (label, tree, inner dim); the 4-level packet tree at 256 takes 88 s
    trees = [
        ("dwt-d4-2L-64", _dwt(d4, 2), 16),
        ("dwt-d4-3L-128", _dwt(d4, 3), 16),
        ("dwt-d4-4L-256", _dwt(d4, 4), 16),
        ("packet-d4-2L-64", _packet(d4, 2), 16),
        ("packet-d4-2L-128", _packet(d4, 2), 32),
        ("packet-d4-3L-128", _packet(d4, 3), 16),
        ("path-d4-3L-128", _dwt(d4, 3, path(d4)), 16),
        ("path-d4-4L-128", _dwt(d4, 4, path(d4)), 8),
        ("dwt-e7-2L-64", _dwt(e7, 2), 16),
        ("dwt-e7-3L-64", _dwt(e7, 3), 8),
        ("packet-e7-2L-64", _packet(e7, 2), 16),
        ("path-e7-2L-64", _dwt(e7, 2, path(e7)), 16),
        ("path-e7-3L-64", _dwt(e7, 3, path(e7)), 8),
        ("path-e7-3L-128", _dwt(e7, 3, path(e7)), 16),
    ]
    ops = []
    for bank, period in ((e7, 64), (d4, 64), (e7, 128), (d4, 128), (e7, 256), (d4, 256)):
        label = f"{bank}-{period}"
        coeffs = ref.NAMED[bank](period // 2)
        bank_path = io.write(f"{label}.json", ref.bank_json(coeffs))
        out = io.out(f"{label}.csv")
        argv = ("freq", bank_path, "--samples", "512", "--out", out)
        ops.append(Op(f"freq {label}", "freq", argv, 0, out, freq_check(ref.filters_of(coeffs), 512)))
    for label, spec, inner in trees:
        tree_path = io.write(f"{label}.json", spec)
        ambient = inner * max(_tree_leaves(spec))
        for verify in (True, False):
            flag = ("--verify",) if verify else ()
            out = io.out(f"{label}.{'verify' if verify else 'flat'}.json")
            argv = ("compose", "--tree", tree_path, "--inner-dim", str(inner), *flag, "--out", out)
            ops.append(Op(f"compose{' --verify' if verify else ''} {label}", "compose", argv, 0, out, compose_check(spec, ambient, verify)))
    return ops


# T = 2 and 4 converge at the first restart for every seed tried.  From T = 6
# on, about half the seeds need one or more failed restarts (0.1 s each at
# T = 6, 1-2 s at T = 8 and 10), which makes a run's cost depend on the seed.
# About one T = 4 design in seven needs 1.5-3x the usual LM iterations; at
# 60 designs per T their number (9 on average) sat at the tail's rank (10 ops
# above it), so the tail jumped between fast and slow designs from seed to
# seed.  At 40 there are about 6, and every one still counts in ops_per_s.
MAXFLAT_T = (2, 4)
MAXFLAT_PER_T = 40
MAXFLAT_RESTARTS = 50


def maxflat_design(rng, io: Inputs) -> list[Op]:
    ops = []
    for t in MAXFLAT_T:
        for i in range(MAXFLAT_PER_T):
            seed = int(rng.integers(2**31))
            out = io.out(f"maxflat-T{t}-{i}.json")
            argv = ("design-maxflat", "--half-taps", str(t), "--seed", str(seed),
                    "--restarts", str(MAXFLAT_RESTARTS), "--out", out)
            ops.append(Op(f"design-maxflat T={t} #{i}", "design-maxflat", argv, 0, out, design_check(t, seed)))
    return ops


WORKLOADS = {
    "verify-grid": verify_grid,
    "oracle-ensemble": oracle_ensemble,
    "tree-compose": tree_compose,
    "maxflat-design": maxflat_design,
}


def generate(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the inputs of ``workload`` for ``seed`` and return one pass of ops."""
    rng = np.random.default_rng([list(WORKLOADS).index(workload), seed])
    return WORKLOADS[workload](rng, Inputs(workdir))
