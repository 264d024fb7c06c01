"""Command-line front end.

Subcommands: build, analyze, freq, compose, design-maxflat, verify.
Exit codes: 0 success, 1 verification failure, 2 usage or parameter error.
All output is JSON or CSV; plotting is left to external tools.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import analysis, constructions, gabor, multilevel, oracle
from .polyphase import bank_of
from .signals import (
    FilterBank,
    bank_from_json,
    bank_to_json,
    signal_to_json,
)

__all__ = ["main", "frequency_table", "write_frequency_table", "build_bank"]

_USAGE_ERROR = 2
_VERIFY_ERROR = 1


def frequency_table(fb: FilterBank, n_samples: int):
    """Squared-magnitude response of every filter at n_samples frequencies.

    Yields (channel, omega, mag2) rows in channel-major order with
    omega = 2 pi k / n_samples, by one FFT of each filter folded modulo
    n_samples, which is exact for any filter period.  Raises ValueError when
    a magnitude is not finite (finite samples whose squares overflow).
    """
    if n_samples < 2:
        raise ValueError("need at least two frequency samples")
    pad = (0, -fb.filter_period % n_samples)
    samples = np.stack([np.pad(phi.samples, pad) for phi in fb.filters])
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        folded = samples.reshape(fb.n_channels, -1, n_samples).sum(axis=1)
        mag2 = np.abs(np.fft.fft(folded, axis=-1)) ** 2
    if not np.all(np.isfinite(mag2)):
        raise ValueError("squared magnitudes are not finite (samples too large)")
    return [
        (n, 2.0 * np.pi * i / n_samples, float(mag2[n, i]))
        for n in range(fb.n_channels)
        for i in range(n_samples)
    ]


def write_frequency_table(fb: FilterBank, n_samples: int, path=None) -> None:
    """Write :func:`frequency_table` as an ``n,omega,mag2`` CSV to ``path``
    (standard output when None), with 17 significant digits."""
    lines = ["n,omega,mag2"]
    lines += [
        f"{n},{omega:.17g},{mag2:.17g}" for n, omega, mag2 in frequency_table(fb, n_samples)
    ]
    _write_text("\n".join(lines) + "\n", path)


def build_bank(name: str, period: int, args=None) -> FilterBank:
    """Build a named bank; composite names consume extra arguments."""
    if name in constructions.NAMED_MATRICES:
        return constructions.named_bank(name, period)
    if name in ("union", "tensor"):
        raw, flag, combine = {
            "union": (args.parts, "--parts", constructions.union),
            "tensor": (args.factors, "--factors", constructions.tensor),
        }[name]
        parts = _split_names(raw, f"{name} needs {flag} name1,name2")
        mats = [constructions.named_matrix(p, period) for p in parts]
        return bank_of(functools.reduce(combine, mats))
    if name == "paraunitary-chain":
        return bank_of(
            constructions.paraunitary_chain(
                args.dim, args.count, period, seed=args.seed
            )
        )
    raise ValueError(f"unknown bank name: {name!r}")


def _tolerance(text: str) -> float:
    """argparse type of every tolerance option: a finite number >= 0."""
    value = float(text)
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text}")
    return value


def _split_names(raw, message):
    if not raw:
        raise ValueError(message)
    names = [p.strip() for p in raw.split(",") if p.strip()]
    if len(names) < 2:
        raise ValueError(message)
    return names


def _write_json(obj, path=None) -> None:
    _write_text(json.dumps(obj, indent=2) + "\n", path)


def _write_text(text: str, path=None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_bank(path: str) -> FilterBank:
    return bank_from_json(_load_json(path))


def _cmd_build(args) -> int:
    fb = build_bank(args.name, args.period, args)
    _write_json(bank_to_json(fb), args.out)
    return 0


def _checked_report(args):
    """The bank file's fusion report and its JSON, plus ``--oracle``'s verdict."""
    fb = _load_bank(args.bank)
    rep = analysis.fusion_report(fb, tol=args.tol)
    out = analysis.report_to_json(rep)
    if args.oracle:
        out["oracle"] = oracle.cross_check(fb, rep, args.oracle_tol)
    return rep, out


def _cmd_analyze(args) -> int:
    _, out = _checked_report(args)
    _write_json(out, args.out)
    return _VERIFY_ERROR if args.oracle and not out["oracle"]["agrees"] else 0


def _cmd_freq(args) -> int:
    write_frequency_table(_load_bank(args.bank), args.samples, args.out)
    return 0


def _resolve_tree_bank(period: int):
    def resolve(name: str) -> FilterBank:
        return constructions.named_bank(name, period)

    return resolve


def _max_tree_rate(obj) -> int:
    """Largest product of per-level rates along any root-to-leaf path."""
    probe = multilevel.tree_from_json(obj, _resolve_tree_bank(4))

    def walk(node) -> int:
        m = node.bank.downsample
        children = node.children or ()
        rates = [
            m * walk(c) if c.bank is not None else m for c in children
        ]
        return max(rates, default=m)

    return walk(probe)


def _cmd_compose(args) -> int:
    spec = _load_json(args.tree)
    ambient = args.inner_dim * _max_tree_rate(spec)
    tree = multilevel.tree_from_json(spec, _resolve_tree_bank(ambient))
    leaves = multilevel.compose_tree(tree, ambient, tol=args.tol)
    out = {
        "ambient_dim": ambient,
        "leaves": [
            {
                "weight": {"num": w.numerator, "den": w.denominator},
                "rank": rank,
                "rate": leaf.downsample,
                "filter": signal_to_json(leaf.filters[0]),
            }
            for leaf, w, rank in leaves
        ],
    }
    status = 0
    if args.verify:
        ok, residual = multilevel.verify_tree(leaves, ambient, tol=args.tol)
        out["verified"] = ok
        out["max_residual"] = residual
        if not ok:
            status = _VERIFY_ERROR
    _write_json(out, args.out)
    return status


def _cmd_design_maxflat(args) -> int:
    seed = args.seed
    env_seed = os.environ.get("FBFF_SEED")
    if env_seed is not None:
        seed = int(env_seed)
    result = gabor.design_maxflat(
        args.half_taps, seed=seed, restarts=args.restarts, q=args.q, tol=args.tol
    )
    report = {
        "converged": result.converged,
        "half_taps": result.half_taps,
        "residual_inf": result.residual_inf,
        "restart": result.restart,
        "iterations": result.iterations,
        "block": result.block,
        "seed": seed,
        "restarts": [
            {"residual_inf": res, "iterations": its} for res, its in result.trace
        ],
    }
    if result.converged:
        sys_ = gabor.GaborSystem(result.signal, 2, result.block, 2)
        bounds = analysis.gabor_frame_bounds(result.signal, 2, result.block, 2)
        fb = gabor.gabor_bank(sys_)
        rep = analysis.fusion_report(fb, tol=1e-7)
        report["A"] = bounds.A
        report["B"] = bounds.B
        report["is_tight"] = rep.is_tight
        report["channel_projection"] = list(rep.channel_projection)
        if args.out is not None:
            _write_json(signal_to_json(result.signal), args.out)
        else:
            report["filter"] = signal_to_json(result.signal)
    _write_json(report)
    return 0 if result.converged else _VERIFY_ERROR


def _cmd_verify(args) -> int:
    rep, out = _checked_report(args)
    out["ok"] = bool(rep.is_puntf and (not args.oracle or out["oracle"]["agrees"]))
    _write_json(out, args.out)
    return 0 if out["ok"] else _VERIFY_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbff",
        description="Construct and verify filter bank fusion frames.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="emit a named bank as JSON")
    p.add_argument(
        "name",
        help="mercedes-benz | daubechies4 | example5 | example7 | union | "
        "tensor | paraunitary-chain",
    )
    p.add_argument("--period", type=int, required=True, help="inner period P")
    p.add_argument("--parts", help="comma-separated names for union")
    p.add_argument("--factors", help="comma-separated names for tensor")
    p.add_argument("--dim", type=int, default=2, help="chain dimension")
    p.add_argument("--count", type=int, default=3, help="chain factor count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("analyze", help="fusion-frame report for a bank JSON")
    p.add_argument("bank")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the dense oracle; exit 1 on disagreement",
    )
    p.add_argument("--oracle-tol", type=_tolerance, default=1e-8)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("freq", help="CSV table of squared frequency responses")
    p.add_argument("bank")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_freq)

    p = sub.add_parser("compose", help="flatten and verify a composition tree")
    p.add_argument("--tree", required=True, help="tree spec JSON path")
    p.add_argument(
        "--inner-dim",
        type=int,
        required=True,
        help="dimension of the deepest leaf space",
    )
    p.add_argument("--verify", action="store_true")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("design-maxflat", help="search for a max-flat tight prototype")
    p.add_argument("--half-taps", type=int, required=True, dest="half_taps")
    p.add_argument("--seed", type=int, default=0, help="overridden by FBFF_SEED")
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--q", type=int, default=None, help="embedding block size")
    p.add_argument("--tol", type=_tolerance, default=1e-8)
    p.add_argument("--out", help="write the designed filter JSON here")
    p.set_defaults(func=_cmd_design_maxflat)

    p = sub.add_parser(
        "verify",
        help="assert a bank is a tight fusion frame with projection channels "
        "(the zero bank is reported as not tight)",
    )
    p.add_argument("bank")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--oracle", action="store_true", help="add dense cross-checks")
    p.add_argument("--oracle-tol", type=_tolerance, default=1e-8)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, RecursionError, MemoryError) as exc:
        # JSONDecodeError is a ValueError; the last two mean oversized input
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
