"""Command-line front end.

Subcommands: build, analyze, freq, compose, design-maxflat, verify.
Exit codes: 0 success, 1 verification failure, 2 usage or parameter error.
All output is JSON or CSV; plotting is left to external tools.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys

import numpy as np
import orjson

from . import analysis, constructions, gabor, multilevel, oracle
from .polyphase import bank_of
from .signals import (
    FilterBank,
    bank_from_json,
    bank_to_json,
    signal_to_json,
)

__all__ = ["main", "frequency_table", "write_frequency_table"]

_USAGE_ERROR = 2
_VERIFY_ERROR = 1
_DESIGN_TOL = 1e-7  # verdict tolerance of a converged design-maxflat report


def frequency_table(fb: FilterBank, n_samples: int) -> np.ndarray:
    """Squared-magnitude response of every filter at n_samples frequencies.

    Returns the (N, n_samples) float array whose [n, k] entry is
    |H_n(omega_k)|^2 at omega_k = 2 pi k / n_samples, by one FFT of each
    filter folded modulo n_samples, which is exact for any filter period.
    Raises ValueError when a magnitude is not finite (finite samples whose
    squares overflow).
    """
    if n_samples < 2:
        raise ValueError("need at least two frequency samples")
    # zero-padded to a multiple of n_samples by np.zeros, which raises ValueError beyond int64
    samples = np.zeros((fb.n_channels, fb.filter_period + -fb.filter_period % n_samples), complex)
    samples[:, : fb.filter_period] = fb.samples
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        folded = samples.reshape(fb.n_channels, -1, n_samples).sum(axis=1)
        mag2 = np.abs(np.fft.fft(folded, axis=-1)) ** 2
    if not np.all(np.isfinite(mag2)):
        raise ValueError("squared magnitudes are not finite (samples too large)")
    return mag2


def write_frequency_table(fb: FilterBank, n_samples: int, path=None) -> None:
    """Write :func:`frequency_table` as an ``n,omega,mag2`` CSV to ``path``
    (standard output when None), one row per (channel, omega) in
    channel-major order, with 17 significant digits.

    Every channel's rows share one omega column, so each omega is formatted
    once into a ``"omega,%.17g"`` cell; each channel's block of the template
    joins that one row of cells, and one ``%`` format over the table array,
    flattened by one ``tolist``, fills in every mag2.
    """
    mag2 = frequency_table(fb, n_samples)
    cells = ["%.17g,%%.17g" % (2.0 * np.pi * i / n_samples) for i in range(n_samples)]
    template = "n,omega,mag2\n" + "".join(
        f"{n}," + f"\n{n},".join(cells) + "\n" for n in range(fb.n_channels)
    )
    _write_text(template % tuple(mag2.ravel().tolist()), path)


def _named_bank(args) -> FilterBank:
    """The bank ``build`` names; composite names read their extra options."""
    name, period = args.name, args.period
    if name in constructions.NAMED_MATRICES:
        return bank_of(constructions.named_matrix(name, period))
    if name == "paraunitary-chain":
        return bank_of(
            constructions.paraunitary_chain(args.dim, args.count, period, seed=args.seed)
        )
    if name not in ("union", "tensor"):
        raise ValueError(f"unknown bank name: {name!r}")
    flag, combine = (
        ("parts", constructions.union) if name == "union" else ("factors", constructions.tensor)
    )
    parts = [p.strip() for p in (getattr(args, flag) or "").split(",") if p.strip()]
    if len(parts) < 2:
        raise ValueError(f"{name} needs --{flag} name1,name2")
    mats = [constructions.named_matrix(p, period) for p in parts]
    return bank_of(functools.reduce(combine, mats))


def _tolerance(text: str) -> float:
    """argparse type of every tolerance option: a finite number >= 0."""
    value = float(text)
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text}")
    return value


# The fallback for what orjson refuses: integers beyond 64 bits (design-maxflat
# echoes seeds below 2**128) and cycles (at its depth limit).  It writes the same
# compact separators, but exponents as 1e-05 where orjson writes 1e-5.  Outputs
# are fresh dicts and lists, so the cycle check is pure cost: a cycle ends in
# RecursionError, which main reports as exit 2.  orjson writes NaN and Infinity
# as null, so a command rejects a non-finite result before it writes.
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def _write_json(obj, path=None) -> None:
    """``obj`` as one compact line of JSON, to ``path`` or standard output."""
    try:
        data = orjson.dumps(obj, option=orjson.OPT_APPEND_NEWLINE)
    except orjson.JSONEncodeError:
        data = (_ENCODER.encode(obj) + "\n").encode()
    if path is None:
        sys.stdout.write(data.decode())  # stdout may be any redirected text stream
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _write_text(text: str, path=None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# orjson 3.8 recurses once per nesting level with no limit: above about 50 000
# levels it overflows the C stack (a segfault, not an exception), and below
# that it reads files nested deeper than the stdlib's recursion limit, whose
# RecursionError exits 2.  So only files nested at most this deep go to orjson;
# a bank nests 5 levels, a tree file 2 per tree level.
_ORJSON_DEPTH = 64
# keeps quotes and brackets, with both bracket kinds written as [ and ]
_BRACKETS = (bytes.maketrans(b"{}", b"[]"), bytes(sorted(set(range(256)) - set(b'[]{}"'))))
_STRING = re.compile(rb'"[^"]*"')


def _shallow(data: bytes) -> bool:
    """True when ``data`` holds no backslash and, outside its strings, its
    brackets balance and nest at most ``_ORJSON_DEPTH`` levels deep.

    Without a backslash no quote is escaped, so strings are exactly the
    ``"..."`` runs.  Each round deletes the innermost bracket pairs, one level.
    """
    if b"\\" in data:
        return False
    brackets = _STRING.sub(b"", data.translate(*_BRACKETS))
    for _ in range(_ORJSON_DEPTH):
        if not brackets:
            break
        brackets = brackets.replace(b"[]", b"")
    return not brackets


def _load_json(path: str):
    """The JSON value of a bank or tree file, parsed from its bytes by orjson.

    A file orjson refuses (NaN, Infinity or 1e400 tokens, a BOM, a lone
    surrogate, a syntax error), or is not given (see :func:`_shallow`), is
    read by the stdlib exactly as ``json.load`` of the file opened as UTF-8
    text, with the same errors and messages.  One difference remains: orjson
    reads integers outside the 64-bit range as floats, where the stdlib kept
    them exact.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if _shallow(data):
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


def _load_bank(path: str) -> FilterBank:
    return bank_from_json(_load_json(path))


def _cmd_build(args) -> int:
    _write_json(bank_to_json(_named_bank(args)), args.out)
    return 0


def _cmd_report(args) -> int:
    """``analyze`` and ``verify``: the bank file's fusion report as JSON, plus
    ``--oracle``'s verdict.  Exit 1 when the oracle disagrees; ``verify`` also
    writes ``ok``, which needs ``is_puntf`` too, and exits 1 when it is false."""
    fb = _load_bank(args.bank)
    rep = analysis.fusion_report(fb, tol=args.tol)
    out = analysis.report_to_json(rep)
    ok = True
    if args.oracle:
        out["oracle"] = oracle.cross_check(fb, rep, args.oracle_tol)
        ok = out["oracle"]["agrees"]
    if args.cmd == "verify":
        ok = out["ok"] = bool(rep.is_puntf and ok)
    _write_json(out, args.out)
    return 0 if ok else _VERIFY_ERROR


def _cmd_freq(args) -> int:
    write_frequency_table(_load_bank(args.bank), args.samples, args.out)
    return 0


def _banks(period: int, inline: dict):
    """Tree bank resolver at ``period``: names built once each, inline banks once per ``inline``."""
    named = functools.cache(lambda name: bank_of(constructions.named_matrix(name, period)))

    def resolve(spec):
        if isinstance(spec, str):
            return named(spec)
        inline[id(spec)] = inline.get(id(spec)) or bank_from_json(spec)
        return inline[id(spec)]

    return resolve


def _cmd_compose(args) -> int:
    if args.inner_dim < 1:
        raise ValueError(f"--inner-dim must be positive, got {args.inner_dim}")
    spec, inline = _load_json(args.tree), {}  # inline banks parsed once; named at 4, then ambient
    ambient = args.inner_dim * multilevel.tree_from_json(spec, _banks(4, inline)).max_leaf_rate
    tree = multilevel.tree_from_json(spec, _banks(ambient, inline))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        filters, rates, weights = multilevel.compose_tree(tree, ambient, tol=args.tol)
        ok, residual = True, 0.0
        if args.verify:
            ok, residual = multilevel.verify_tree(filters, rates, weights, tol=args.tol)
    if not (np.all(np.isfinite(filters)) and np.isfinite(residual)):
        raise ValueError(
            "composed leaf filters or their residual are not finite (samples too large)"
        )
    out = {
        "ambient_dim": ambient,
        "leaves": [
            {
                "weight": {"num": w.numerator, "den": w.denominator},
                "rank": ambient // rate,
                "rate": rate,
                "filter": filt,
            }
            for w, rate, filt in zip(weights, rates, signal_to_json(filters))
        ],
    }
    if args.verify:
        out["verified"] = ok
        out["max_residual"] = residual
    _write_json(out, args.out)
    return 0 if ok else _VERIFY_ERROR


def _cmd_design_maxflat(args) -> int:
    try:
        seed = int(os.environ.get("FBFF_SEED", args.seed))
    except ValueError as exc:  # args.seed is an int already
        raise ValueError(f"FBFF_SEED must be an integer ({exc})") from None
    result = gabor.design_maxflat(args.half_taps, seed=seed, restarts=args.restarts, tol=args.tol)
    report = {
        "converged": result.converged,
        "half_taps": args.half_taps,
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
        bounds = gabor.gabor_frame_bounds(result.signal, 2, 2)  # M = R = 2: 4 channels
        proj = analysis.channel_is_projection(result.signal, 2, _DESIGN_TOL)
        report["A"] = bounds.A
        report["B"] = bounds.B
        report["is_tight"] = bounds.is_tight(_DESIGN_TOL)
        report["channel_projection"] = [proj] * 4  # modulation keeps polyphase norms
        report["tolerance"] = _DESIGN_TOL
        (filt,) = signal_to_json(result.signal[None])
        if args.out is not None:
            _write_json(filt, args.out)
        else:
            report["filter"] = filt
    _write_json(report)
    return 0 if result.converged else _VERIFY_ERROR


@functools.cache  # one parser per process: main only parses and dispatches
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbff",
        description="Construct and verify filter bank fusion frames.",
    )
    report = argparse.ArgumentParser(add_help=False)  # analyze and verify share these
    report.add_argument("bank")
    report.add_argument("--tol", type=_tolerance, default=1e-9)
    report.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the dense oracle; exit 1 on disagreement",
    )
    report.add_argument("--oracle-tol", type=_tolerance, default=1e-8)
    report.add_argument("--out")
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

    p = sub.add_parser("analyze", parents=[report], help="fusion-frame report for a bank JSON")
    p.set_defaults(func=_cmd_report)

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
    p.add_argument(
        "--half-taps", type=int, required=True, dest="half_taps",
        help="T, half the tap count; T >= 136 exits 2 before any work, and from T = 43 "
        "a draw can exceed the exact odd-tap map's float limits: that restart is skipped "
        "(null residual), and only a search whose every draw fails exits 2",
    )
    p.add_argument("--seed", type=int, default=0, help="overridden by FBFF_SEED")
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--tol", type=_tolerance, default=1e-8)
    p.add_argument("--out", help="write the designed filter JSON here")
    p.set_defaults(func=_cmd_design_maxflat)

    p = sub.add_parser(
        "verify",
        parents=[report],
        help="assert a bank is a tight fusion frame with projection channels "
        "(the zero bank is reported as not tight)",
    )
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
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
