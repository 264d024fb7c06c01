import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbff import cli, constructions, multilevel, signals
from fbff.analysis import fusion_report, report_to_json
from fbff.cli import frequency_table, main, write_frequency_table
from fbff.constructions import named_matrix
from fbff.gabor import gabor_bank
from fbff.polyphase import bank_of
from fbff.signals import FilterBank, bank_from_json, bank_to_json, signal_from_json
from refs import delta


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _build(capsys, tmp_path, name, period, fname="bank.json"):
    path = tmp_path / fname
    code, _, err = _run(
        capsys, "build", name, "--period", str(period), "--out", str(path)
    )
    assert code == 0, err
    return path


@pytest.mark.parametrize(
    "name,period", [("mercedes-benz", 2), ("daubechies4", 2), ("example5", 4), ("example7", 4)]
)
def test_build_then_analyze_matches_library(capsys, tmp_path, name, period):
    path = _build(capsys, tmp_path, name, period)
    code, out, _ = _run(capsys, "analyze", str(path))
    assert code == 0
    got = json.loads(out)
    with open(path, encoding="utf-8") as fh:
        fb = bank_from_json(json.load(fh))
    expected = report_to_json(fusion_report(fb, tol=1e-9))
    assert got == expected
    assert got["is_puntf"] is True


def test_build_union_and_tensor(capsys, tmp_path):
    path = tmp_path / "u.json"
    code, _, err = _run(
        capsys,
        "build",
        "union",
        "--period",
        "4",
        "--parts",
        "daubechies4,daubechies4",
        "--out",
        str(path),
    )
    assert code == 0, err
    fb = bank_from_json(json.loads(path.read_text()))
    assert fb.n_channels == 4

    code, out, _ = _run(
        capsys, "build", "tensor", "--period", "2", "--factors",
        "mercedes-benz,mercedes-benz",
    )
    assert code == 0
    fb = bank_from_json(json.loads(out))
    assert fb.n_channels == 9 and fb.downsample == 4


def test_build_paraunitary_chain(capsys):
    code, out, _ = _run(
        capsys, "build", "paraunitary-chain", "--period", "6", "--dim", "3",
        "--count", "2", "--seed", "7",
    )
    assert code == 0
    fb = bank_from_json(json.loads(out))
    rep = fusion_report(fb)
    assert rep.is_puntf and rep.bounds.B == pytest.approx(1.0, abs=1e-9)


def test_build_unknown_name(capsys):
    code, _, err = _run(capsys, "build", "wat", "--period", "4")
    assert code == 2
    assert "unknown bank" in err


def test_build_daubechies_period_one_orthonormal(capsys):
    code, out, _ = _run(capsys, "build", "daubechies4", "--period", "1")
    assert code == 0
    fb = bank_from_json(json.loads(out))
    assert fb.n_channels == 2
    rep = fusion_report(fb)
    assert rep.is_puntf and rep.bounds.B == pytest.approx(1.0, abs=1e-12)


def test_build_bad_params(capsys):
    code, _, err = _run(capsys, "build", "example7", "--period", "3")
    assert code == 2 and err


def test_analyze_zero_bank_not_tight(capsys, tmp_path):
    path = tmp_path / "zero.json"
    zero = {
        "downsample": 2,
        "inner_period": 2,
        "filters": [{"period": 4, "samples": [[0.0, 0.0]] * 4}],
    }
    path.write_text(json.dumps(zero))
    code, out, _ = _run(capsys, "analyze", str(path))
    assert code == 0
    got = json.loads(out)
    assert got["A"] == 0.0 and got["B"] == 0.0
    assert got["is_tight"] is False


def test_analyze_oracle_agreement(capsys, tmp_path):
    path = _build(capsys, tmp_path, "example7", 4)
    code, out, _ = _run(capsys, "analyze", str(path), "--oracle")
    assert code == 0
    got = json.loads(out)
    assert got["oracle"]["agrees"] is True
    assert got["oracle"]["bound_gap"] <= 1e-8


def test_analyze_oracle_agrees_across_the_projection_boundary(capsys, tmp_path):
    # filter 0 scaled by 1 + d has defect 2d + d^2, which crosses the
    # verdict tolerance 1e-9 inside the ladder; both routes read that number
    fb = bank_of(named_matrix("mercedes-benz", 16))
    path = tmp_path / "scaled.json"
    flags = []
    for delta in np.geomspace(1e-11, 1e-8, 30):
        scaled = (1.0 + delta) * fb.samples[0]
        path.write_text(json.dumps(bank_to_json(FilterBank([scaled, *fb.samples[1:]], 2))))
        code, out, err = _run(capsys, "analyze", str(path), "--oracle")
        got = json.loads(out)
        assert code == 0 and got["oracle"]["agrees"] is True, (delta, got["oracle"], err)
        flags.append(got["channel_projection"][0])
    assert flags[0] is True and flags[-1] is False


def test_analyze_oracle_on_large_samples(capsys, tmp_path):
    # samples of about 1e3 give B near 1e8: the oracle compares on that scale
    rng = np.random.default_rng(0)
    filters = [1e3 * (rng.standard_normal(16) + 1j * rng.standard_normal(16)) for _ in range(3)]
    path = tmp_path / "large.json"
    path.write_text(json.dumps(bank_to_json(FilterBank(filters, 2))))
    code, out, err = _run(capsys, "analyze", str(path), "--oracle")
    assert code == 0, err
    got = json.loads(out)
    assert got["B"] > 1e8
    assert got["oracle"]["spectrum_union_ok"] is True and got["oracle"]["agrees"] is True


def test_freq_flat_for_delta(capsys, tmp_path):
    path = tmp_path / "delta.json"
    obj = {
        "downsample": 1,
        "inner_period": 4,
        "filters": [
            {"period": 4, "samples": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
        ],
    }
    path.write_text(json.dumps(obj))
    code, out, _ = _run(capsys, "freq", str(path), "--samples", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,omega,mag2"
    assert len(lines) == 9
    for line in lines[1:]:
        n, omega, mag2 = line.split(",")
        assert n == "0"
        assert float(mag2) == pytest.approx(1.0, abs=1e-12)


def test_freq_daubechies_dc_value(capsys, tmp_path):
    path = _build(capsys, tmp_path, "daubechies4", 2)
    code, out, _ = _run(capsys, "freq", str(path), "--samples", "4")
    assert code == 0
    first = out.strip().splitlines()[1].split(",")
    # the low-pass taps sum to sqrt 2, so the squared response at dc is 2
    assert float(first[2]) == pytest.approx(2.0, abs=1e-12)


def test_freq_ordering_and_format(capsys, tmp_path):
    path = _build(capsys, tmp_path, "mercedes-benz", 2)
    code, out, _ = _run(capsys, "freq", str(path), "--samples", "3")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["0", "0", "0", "1", "1", "1", "2", "2", "2"]
    # 17 significant digits survive a json round trip
    for r in rows:
        assert float(r[1]) == pytest.approx(float(repr(float(r[1]))))


def test_freq_requires_two_samples(capsys, tmp_path):
    path = _build(capsys, tmp_path, "mercedes-benz", 2)
    code, _, err = _run(capsys, "freq", str(path), "--samples", "1")
    assert code == 2 and err


def test_freq_overflowing_samples_are_usage_error(capsys, tmp_path):
    # finite samples whose squared magnitudes overflow: no table to write
    obj = bank_to_json(bank_of(named_matrix("mercedes-benz", 2)))
    obj["filters"][0]["samples"][0] = [1e200, 0.0]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning either
        code, out, err = _run(capsys, "freq", str(path), "--samples", "4")
    assert code == 2
    assert err.startswith("error:") and "not finite" in err and "Traceback" not in err
    assert out == ""


def test_frequency_table_matches_direct_sum():
    fb = bank_of(named_matrix("daubechies4", 4))
    table = frequency_table(fb, 5)
    assert table.shape == (fb.n_channels, 5)
    k = np.arange(fb.filter_period)
    for n, mags in enumerate(table):
        for i, mag2 in enumerate(mags):
            omega = 2.0 * np.pi * i / 5
            direct = abs(np.sum(fb.samples[n] * np.exp(-1j * k * omega))) ** 2
            assert mag2 == pytest.approx(direct, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_freq_csv_is_the_table_row_by_row(m, inner_period, channels, seed, data):
    # sample counts from 2 to 3 periods, dividing the period or not
    period = m * inner_period
    n_samples = data.draw(st.integers(min_value=2, max_value=max(2, 3 * period)))
    rng = np.random.default_rng(seed)
    fb = FilterBank(
        tuple(
            rng.standard_normal(period) + 1j * rng.standard_normal(period)
            for _ in range(channels)
        ),
        m,
    )
    omegas = [2.0 * np.pi * i / n_samples for i in range(n_samples)]
    want = "n,omega,mag2\n" + "".join(
        f"{n},{omega:.17g},{mag2:.17g}\n"
        for n, mags in enumerate(frequency_table(fb, n_samples).tolist())
        for omega, mag2 in zip(omegas, mags)
    )
    with contextlib.redirect_stdout(io.StringIO()) as out:
        write_frequency_table(fb, n_samples)
    assert out.getvalue() == want


def test_compose_tree_cli(capsys, tmp_path):
    tree = tmp_path / "tree.json"
    tree.write_text(
        json.dumps(
            {
                "bank": "example7",
                "children": [{"bank": "example7"}, "identity", "identity", "identity"],
            }
        )
    )
    code, out, _ = _run(
        capsys, "compose", "--tree", str(tree), "--inner-dim", "4", "--verify"
    )
    assert code == 0
    got = json.loads(out)
    assert got["ambient_dim"] == 16
    assert got["verified"] is True
    assert got["max_residual"] <= 1e-9
    weights = sorted((l["weight"]["num"], l["weight"]["den"]) for l in got["leaves"])
    assert weights == [(1, 2)] * 3 + [(1, 4)] * 4
    ranks = sorted(l["rank"] for l in got["leaves"])
    assert ranks == [4, 4, 4, 4, 8, 8, 8]


def test_compose_sizes_the_ambient_space_by_the_largest_path_rate(capsys, tmp_path):
    # a rate-3 bank of unit impulses under channel 0 of a rate-2 root: path
    # rates 6 and 2, so --inner-dim 4 gives ambient dimension 24
    impulses = FilterBank(tuple(delta(k, 12) for k in range(3)), 3)
    tree = tmp_path / "tree.json"
    tree.write_text(
        json.dumps({"bank": "daubechies4", "children": [{"bank": bank_to_json(impulses)}, "identity"]})
    )
    code, out, _ = _run(capsys, "compose", "--tree", str(tree), "--inner-dim", "4", "--verify")
    assert code == 0
    got = json.loads(out)
    assert got["ambient_dim"] == 24 and got["verified"] is True
    assert [(l["rate"], l["rank"]) for l in got["leaves"]] == [(6, 4)] * 3 + [(2, 12)]


def test_compose_inline_bank(capsys, tmp_path):
    bank_path = _build(capsys, tmp_path, "daubechies4", 8)
    bank_obj = json.loads(bank_path.read_text())
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"bank": bank_obj}))
    code, out, _ = _run(
        capsys, "compose", "--tree", str(tree), "--inner-dim", "8", "--verify"
    )
    assert code == 0
    got = json.loads(out)
    assert got["ambient_dim"] == 16 and len(got["leaves"]) == 2


def _impulse_bank_tree():
    # CI's t23 tree: a rate-3 bank of unit impulses under channel 0 of daubechies4
    impulses = FilterBank(tuple(delta(k, 12) for k in range(3)), 3)
    return {"bank": "daubechies4", "children": [{"bank": bank_to_json(impulses)}, "identity"]}


def test_compose_parses_each_inline_bank_once(capsys, tmp_path, monkeypatch):
    # CI's t23 tree, one inline bank and one named bank: the inline bank is
    # parsed once per call, the named one built at period 4 for the rates
    # and again at the ambient period 24 for the leaves
    parsed, built = [], []
    parse, build = cli.bank_from_json, constructions.named_matrix
    monkeypatch.setattr(cli, "bank_from_json", lambda obj: parsed.append(obj) or parse(obj))
    monkeypatch.setattr(constructions, "named_matrix", lambda name, p: built.append((name, p)) or build(name, p))
    tree_path = tmp_path / "t23.json"
    tree_path.write_text(json.dumps(_impulse_bank_tree()))
    code, out, err = _run(capsys, "compose", "--tree", str(tree_path), "--inner-dim", "4", "--verify")
    assert code == 0 and err == ""
    got = json.loads(out)
    assert got["ambient_dim"] == 24 and got["verified"] is True
    assert len(parsed) == 1
    assert built == [("daubechies4", 4), ("daubechies4", 24)]


@pytest.mark.parametrize(
    "spec,ambient",
    [
        (
            {
                "bank": "daubechies4",
                "children": [{"bank": "daubechies4", "children": [{"bank": "daubechies4"}, "identity"]}, "identity"],
            },
            32,
        ),
        ({"bank": "example7", "children": [{"bank": "example7"}] * 4}, 16),
        (_impulse_bank_tree(), 24),
    ],
    ids=["dwt", "packet", "t23"],
)
def test_compose_writes_the_per_leaf_signal_json(capsys, tmp_path, spec, ambient):
    # the leaves written from one stack are, byte for byte, the file written
    # with one signal_to_json per leaf (at --inner-dim 4)
    tree_path, out_path = tmp_path / "tree.json", tmp_path / "out.json"
    tree_path.write_text(json.dumps(spec))
    argv = ["compose", "--tree", str(tree_path), "--inner-dim", "4", "--verify", "--out", str(out_path)]
    assert _run(capsys, *argv)[0] == 0
    tree = multilevel.tree_from_json(
        spec, lambda b: bank_of(named_matrix(b, ambient)) if isinstance(b, str) else bank_from_json(b)
    )
    leaves = multilevel.compose_tree(tree, ambient)
    ok, residual = multilevel.verify_tree(leaves)
    want = {
        "ambient_dim": ambient,
        "leaves": [
            {
                "weight": {"num": w.numerator, "den": w.denominator},
                "rank": leaf.inner_period,
                "rate": leaf.downsample,
                "filter": signals.signal_to_json(leaf.samples)[0],
            }
            for leaf, w in leaves
        ],
        "verified": ok,
        "max_residual": residual,
    }
    assert out_path.read_text() == json.dumps(want) + "\n"


def test_design_maxflat_cli(capsys, tmp_path):
    out_path = tmp_path / "phi.json"
    code, out, _ = _run(
        capsys,
        "design-maxflat",
        "--half-taps",
        "2",
        "--seed",
        "3",
        "--restarts",
        "20",
        "--out",
        str(out_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["converged"] is True
    assert report["residual_inf"] <= 1e-8
    assert report["A"] == pytest.approx(2.0, abs=1e-7)
    assert report["B"] == pytest.approx(2.0, abs=1e-7)
    assert report["is_tight"] is True
    filt = json.loads(out_path.read_text())
    assert filt["period"] == 4 * report["block"]
    # the same seed without --out: the report carries the file's object as "filter"
    code, out, _ = _run(capsys, "design-maxflat", "--half-taps", "2", "--seed", "3", "--restarts", "20")
    assert code == 0
    full = json.loads(out)
    assert "filter" not in report and full.pop("filter") == filt
    assert full == report


def test_design_maxflat_verdicts_match_the_materialized_bank(capsys):
    code, out, _ = _run(capsys, "design-maxflat", "--half-taps", "4", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    phi = signal_from_json(report["filter"])
    assert phi.shape == (4 * report["block"],)  # M * Q * R with M = R = 2
    ref = fusion_report(gabor_bank(phi, 2, 2), tol=1e-7)
    assert abs(report["A"] - ref.bounds.A) <= 1e-12 * ref.bounds.B
    assert abs(report["B"] - ref.bounds.B) <= 1e-12 * ref.bounds.B
    assert report["is_tight"] is ref.is_tight
    assert report["channel_projection"] == list(ref.channel_projection)
    assert report["tolerance"] == ref.tolerance


def test_design_maxflat_reports_each_restart(capsys):
    code, out, _ = _run(
        capsys, "design-maxflat", "--half-taps", "2", "--tol", "0", "--restarts", "3"
    )
    assert code == 1
    report = json.loads(out)
    assert report["converged"] is False
    restarts = report["restarts"]
    assert len(restarts) == 3
    assert min(r["residual_inf"] for r in restarts) == report["residual_inf"]
    assert restarts[report["restart"]]["iterations"] == report["iterations"]


def test_design_maxflat_env_seed(capsys, monkeypatch):
    code, out_flag, _ = _run(
        capsys, "design-maxflat", "--half-taps", "2", "--seed", "11", "--restarts", "5"
    )
    monkeypatch.setenv("FBFF_SEED", "11")
    code2, out_env, _ = _run(
        capsys, "design-maxflat", "--half-taps", "2", "--seed", "999", "--restarts", "5"
    )
    assert code == 0 and code2 == 0
    assert json.loads(out_flag) == json.loads(out_env)


def test_verify_pass_and_corruption(capsys, tmp_path):
    path = _build(capsys, tmp_path, "mercedes-benz", 2)
    code, out, _ = _run(capsys, "verify", "--oracle", str(path))
    assert code == 0
    assert json.loads(out)["ok"] is True

    obj = json.loads(path.read_text())
    obj["filters"][0]["samples"][0][0] += 0.1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, _ = _run(capsys, "verify", "--oracle", str(bad))
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_verify_oracle_at_the_gate(capsys, tmp_path):
    # mercedes-benz at P = 128 has dense dimension 256, the oracle's gate
    path = _build(capsys, tmp_path, "mercedes-benz", 128)
    code, out, err = _run(capsys, "verify", str(path), "--oracle")
    assert code == 0, err
    got = json.loads(out)
    assert got["ok"] is True and got["oracle"]["agrees"] is True


def test_oracle_that_does_not_converge_is_usage_error(capsys, tmp_path, monkeypatch):
    # a random bank's dense frame operator is far from diagonal, so the
    # oracle calls the general eigensolver; LinAlgError is a ValueError
    rng = np.random.default_rng(7)
    filters = tuple(rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(3))
    path = tmp_path / "random.json"
    path.write_text(json.dumps(bank_to_json(FilterBank(filters, 2))))

    def not_converging(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", not_converging)
    code, out, err = _run(capsys, "analyze", str(path), "--oracle")
    assert code == 2
    assert err.startswith("error:") and "did not converge" in err and "Traceback" not in err
    assert out == ""


def test_output_json_reparses_identically(capsys, tmp_path):
    path = _build(capsys, tmp_path, "example5", 4)
    text = path.read_text()
    fb = bank_from_json(json.loads(text))
    assert json.dumps(bank_to_json(fb)) + "\n" == text


def _per_sample_signal_to_json(stack):
    return [
        {"period": len(row), "samples": [[float(v.real), float(v.imag)] for v in row]}
        for row in stack
    ]


# -0.0, subnormals of both signs and the smallest normal, among ordinary samples
_SAMPLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308]),
    st.floats(min_value=-1e3, max_value=1e3),
)


@st.composite
def _edge_banks(draw):
    m, p, n = (draw(st.integers(min_value=1, max_value=k)) for k in (3, 4, 4))
    parts = draw(st.lists(_SAMPLES, min_size=2 * n * m * p, max_size=2 * n * m * p))
    rows = np.array(parts).reshape(n, m * p, 2).view(complex)[..., 0]  # keeps every sign
    return FilterBank(rows, m)


def _written_json(argv):
    """Exit code, stdout and the objects ``main(argv)`` handed to ``_write_json``."""
    objs, write = [], cli._write_json

    def spy(obj, path=None):
        objs.append(obj)
        write(obj, path)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_write_json", spy)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(argv)
    return code, out.getvalue(), objs


@settings(max_examples=40, deadline=None)
@given(_edge_banks(), st.integers(min_value=0, max_value=2**32 - 1))
def test_write_json_writes_what_json_dumps_writes(fb, seed):
    def dumped(obj):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli._write_json(obj)
        return out.getvalue()

    obj = bank_to_json(fb)
    assert dumped(obj) == json.dumps(obj) + "\n"
    # one wire form: the bank's stack and its filters one at a time agree byte for byte
    per_filter = [signals.signal_to_json(f[None])[0] for f in fb.samples]
    assert json.dumps(obj["filters"]) == json.dumps(per_filter)
    assert json.dumps(signals.signal_to_json(fb.samples)) == json.dumps(per_filter)
    rep = report_to_json(fusion_report(fb))
    assert len(rep["per_root"]) == fb.inner_period
    assert dumped(rep) == json.dumps(rep) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree.json"
        tree.write_text(json.dumps({"bank": obj}))
        # any bank passes the projection gate at this tolerance
        argv = ["compose", "--tree", str(tree), "--inner-dim", str(fb.inner_period), "--verify"]
        code, text, objs = _written_json(argv + ["--tol", "1e300"])
    assert code in (0, 1) and len(objs) == 1
    assert text == json.dumps(objs[0]) + "\n"
    argv = ["design-maxflat", "--half-taps", "2", "--seed", str(seed), "--restarts", "3"]
    code, text, objs = _written_json(argv)
    assert code in (0, 1) and len(objs) == 1
    assert text == json.dumps(objs[0]) + "\n"


def test_cyclic_output_is_usage_error(capsys, monkeypatch):
    # the encoder keeps no cycle check: a cycle ends in RecursionError, exit 2
    cycle = []
    cycle.append(cycle)
    monkeypatch.setattr(cli, "bank_to_json", lambda fb: cycle)
    code, out, err = _run(capsys, "build", "mercedes-benz", "--period", "4")
    assert code == 2
    assert err.startswith("error:") and "recursion" in err and "Traceback" not in err
    assert out == ""


def _indented_json(obj, path=None):
    cli._write_text(json.dumps(obj, indent=2) + "\n", path)


def _json_outputs(capsys, argv, out_path):
    """Exit code and the nonempty texts a command wrote: stdout, then ``out_path``."""
    code = main(argv)
    texts = [capsys.readouterr().out]
    if out_path is not None:
        texts.append(out_path.read_text())
        out_path.unlink()
    return code, [t for t in texts if t]


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "example7", "--period", "4"),
        ("analyze", "{bank}"),
        ("verify", "{bank}"),
        ("compose", "--tree", "{tree}", "--inner-dim", "4", "--verify"),
        ("design-maxflat", "--half-taps", "2", "--seed", "3", "--restarts", "20"),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
def test_json_output_is_one_line_with_the_indented_format_values(
    capsys, tmp_path, monkeypatch, argv, to_file
):
    # the indented writer with per-sample floats is the format before one-line output
    bank = _build(capsys, tmp_path, "example7", 4)
    tree = tmp_path / "tree.json"
    tree.write_text(
        json.dumps({"bank": "example7", "children": [{"bank": "daubechies4"}] + ["identity"] * 3})
    )
    out_path = tmp_path / "out.json" if to_file else None
    argv = [a.format(bank=bank, tree=tree) for a in argv] + ["--out", str(out_path)] * to_file
    code, texts = _json_outputs(capsys, argv, out_path)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_write_json", _indented_json)
        patch.setattr(cli, "signal_to_json", _per_sample_signal_to_json)
        patch.setattr(signals, "signal_to_json", _per_sample_signal_to_json)
        old_code, old_texts = _json_outputs(capsys, argv, out_path)
    assert code == old_code == 0
    assert len(texts) == len(old_texts) == 1 + (to_file and argv[0] == "design-maxflat")
    for text, old in zip(texts, old_texts):
        assert text.endswith("\n") and text.count("\n") == 1
        # same keys in the same order, same floats, same reprs
        assert text == json.dumps(json.loads(old)) + "\n"


def test_missing_file_is_usage_error(capsys):
    code, _, err = _run(capsys, "analyze", "/nonexistent/bank.json")
    assert code == 2 and err


def test_usage_error_exit_code(capsys):
    assert main(["build"]) == 2
    assert main([]) == 2


def _malformed_bank(edit):
    obj = bank_to_json(bank_of(named_matrix("mercedes-benz", 2)))
    edit(obj)
    return obj


_BANK_TEXT = json.dumps(bank_to_json(bank_of(named_matrix("mercedes-benz", 2))))


def _first_sample_text(real):
    """The bank's text with its first sample's real part written as ``real``."""
    return re.sub(r'"samples": \[\[[^,]+', f'"samples": [[{real}', _BANK_TEXT, count=1)


@pytest.mark.parametrize(
    "argv_head,payload,message",
    [
        (("analyze",), _malformed_bank(lambda o: o["filters"][0]["samples"][0].__setitem__(0, float("nan"))), "samples must be finite"),
        (("analyze",), _malformed_bank(lambda o: o["filters"][1]["samples"][2].__setitem__(1, float("inf"))), "samples must be finite"),
        (("analyze",), _malformed_bank(lambda o: o.pop("downsample")), "bank must be an object"),
        (("analyze",), [bank_to_json(bank_of(named_matrix("mercedes-benz", 2)))], "bank must be an object"),
        (("analyze",), _malformed_bank(lambda o: o["filters"][0]["samples"].__setitem__(1, ["0.5", 0.0])), "samples must be a list"),
        (("compose", "--inner-dim", "4", "--tree"), {"bank": 5}, "bank must be an object"),
        (("build", "mercedes-benz", "--period", "0"), None, "period must be positive"),
        (("compose", "--inner-dim", "0", "--tree"), {"bank": "example7"}, "--inner-dim must be positive, got 0"),
        (("compose", "--inner-dim", "-2", "--tree"), {"bank": bank_to_json(bank_of(named_matrix("daubechies4", 2)))}, "--inner-dim must be positive, got -2"),
        (("build", "paraunitary-chain", "--period", "4", "--seed", "-1"), None, "seed must be nonnegative, got -1"),
        # raw texts, which orjson refuses and the stdlib reads as it did before orjson
        (("analyze",), _first_sample_text("1e400"), "samples must be finite"),
        (("analyze",), _first_sample_text("-Infinity"), "samples must be finite"),
        (("analyze",), "\ufeff" + _BANK_TEXT, "error: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (("analyze",), _BANK_TEXT[:-1] + ",}", "error: Expecting property name enclosed in double quotes: line 1 column 311 (char 310)"),
        # read as text, each CRLF is one character
        (("analyze",), _BANK_TEXT.replace(", ", ",\r\n")[:-1] + ",}", "error: Expecting property name enclosed in double quotes: line 29 column 9 (char 310)"),
    ],
    ids=[
        "nan-sample", "inf-sample", "no-downsample", "top-level-list", "string-sample", "tree-bank-5",
        "period-0", "inner-dim-0", "inner-dim-negative", "chain-seed-negative",
        "1e400-token", "minus-infinity-token", "bom", "syntax-error", "crlf-syntax-error",
    ],
)
def test_malformed_input_is_usage_error(capsys, tmp_path, argv_head, payload, message):
    # json.dumps writes the nan and inf samples as NaN and Infinity tokens
    argv = list(argv_head)
    if payload is not None:
        path = tmp_path / "input.json"
        text = payload if isinstance(payload, str) else json.dumps(payload)
        path.write_text(text, encoding="utf-8", newline="")
        argv.append(str(path))
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert out == ""



def test_integers_beyond_64_bits_are_read_as_floats(capsys, tmp_path):
    # orjson reads such an integer as the nearest float; the stdlib's exact int
    # made this bank exit 2 with "samples must be a list of [re, im] number pairs"
    path = tmp_path / "bank.json"
    path.write_text(
        '{"downsample": 1, "inner_period": 2, "filters": [{"period": 2, '
        '"samples": [[123456789012345678901234567890, 0], [0.5, 0.0]]}]}'
    )
    sample = cli._load_json(str(path))["filters"][0]["samples"][0]
    assert sample == [1.2345678901234568e29, 0] and type(sample[0]) is float
    assert cli._load_bank(str(path)).samples[0, 0] == 1.2345678901234568e29
    code, _, err = _run(capsys, "analyze", str(path))
    assert code == 0 and err == ""


# values the wire carries bit for bit: signed zeros, subnormals, the largest
# float, any finite float (most of whose reprs have 17 digits) and int64 integers
_WIRE_VALUES = st.one_of(
    _SAMPLES,
    st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308, 0.30000000000000004]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)


@st.composite
def _wire_banks(draw):
    """A bank's JSON object with samples from _WIRE_VALUES."""
    m, p, n = (draw(st.integers(min_value=1, max_value=k)) for k in (3, 4, 3))
    rows = st.lists(st.lists(_WIRE_VALUES, min_size=2, max_size=2), min_size=m * p, max_size=m * p)
    filters = draw(st.lists(rows, min_size=n, max_size=n))
    return {"downsample": m, "inner_period": p, "filters": [{"period": m * p, "samples": r} for r in filters]}


# any string is a bank name here: names that json.dumps escapes go to the stdlib
_TREE_BANKS = st.one_of(st.sampled_from(["daubechies4", "example7"]), st.text(max_size=4), _wire_banks())
_WIRE_TREES = st.recursive(
    st.fixed_dictionaries({"bank": _TREE_BANKS}),
    lambda kids: st.fixed_dictionaries(
        {"bank": _TREE_BANKS, "children": st.lists(st.just("identity") | kids, max_size=3)}
    ),
    max_leaves=6,
)


def _seventeen_digit_text(obj):
    """The bank object ``obj`` as JSON with every float written to 17 significant digits."""
    def num(v):
        return "%.17g" % v if isinstance(v, float) else str(v)

    filters = ", ".join(
        '{"period": %d, "samples": [%s]}'
        % (f["period"], ", ".join(f"[{num(re)}, {num(im)}]" for re, im in f["samples"]))
        for f in obj["filters"]
    )
    return '{"downsample": %d, "inner_period": %d, "filters": [%s]}' % (
        obj["downsample"], obj["inner_period"], filters
    )


@settings(max_examples=60, deadline=None)
@given(_wire_banks(), _WIRE_TREES)
def test_load_json_reads_what_json_load_reads(obj, tree):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        writers = (
            lambda: path.write_text(json.dumps(obj)),
            lambda: cli._write_json(obj, str(path)),
            lambda: path.write_text(_seventeen_digit_text(obj)),
        )
        for write in writers:
            write()
            assert cli._shallow(path.read_bytes())  # read by orjson
            got = cli._load_bank(str(path)).samples
            want = bank_from_json(json.loads(path.read_text())).samples
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        path.write_text(json.dumps(tree))
        with open(path, encoding="utf-8") as fh:
            want = json.load(fh)
        # json.dumps tells -0.0 from 0.0 and 1 from 1.0
        assert json.dumps(cli._load_json(str(path))) == json.dumps(want)


_DEPTH = cli._ORJSON_DEPTH


@pytest.mark.parametrize(
    "text,shallow",
    [
        (_BANK_TEXT, True),
        ("[" * _DEPTH + "]" * _DEPTH, True),
        ("[" * (_DEPTH + 1) + "]" * (_DEPTH + 1), False),
        ('{"a": [' * (_DEPTH // 2) + "1" + "]}" * (_DEPTH // 2), True),
        ('{"a": [' * (_DEPTH // 2) + "[1]" + "]}" * (_DEPTH // 2), False),
        ("[[[", False),
        ('["]]]", "{"]', True),
        # a string's brackets neither open nor close a level: 65 levels, not 1
        ('["]", ' * 65 + "1" + ', "["]' * 65, False),
        ('{"bank": "daubechies\\u0034"}', False),
    ],
    ids=[
        "bank", "at-depth", "past-depth", "mixed-at-depth", "mixed-past-depth", "unbalanced",
        "brackets-in-strings", "brackets-in-strings-hide-no-level", "escape",
    ],
)
def test_orjson_reads_only_shallow_files_without_escapes(text, shallow):
    assert cli._shallow(text.encode()) is shallow


def test_nesting_beyond_the_c_stack_is_usage_error(tmp_path):
    # 300 000 levels overflow orjson 3.8's stack, a segfault, so the file must
    # reach the stdlib, whose RecursionError exits 2; run apart, so that a
    # crash fails this test alone
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    path = tmp_path / "input.json"
    path.write_text(_deep_bank_text(300_000))
    run = subprocess.run(
        [sys.executable, "-m", "fbff", "analyze", str(path)],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert run.returncode == 2
    assert run.stderr.startswith("error:") and "recursion" in run.stderr
    assert "Traceback" not in run.stderr and run.stdout == ""

_BAD_REPORT_TOLERANCES = {
    "nan": ("--tol", "nan"),
    "inf": ("--tol", "inf"),
    "minus-inf": ("--tol=-inf",),
    "negative": ("--tol", "-1"),
    "oracle-negative": ("--oracle", "--oracle-tol", "-1"),
    "oracle-inf": ("--oracle", "--oracle-tol", "inf"),
}


@pytest.mark.parametrize(
    "argv",
    [(cmd, "{bank}", *opts) for cmd in ("analyze", "verify") for opts in _BAD_REPORT_TOLERANCES.values()]
    + [
        ("compose", "--tree", "{tree}", "--inner-dim", "4", "--verify", "--tol", "inf"),
        ("design-maxflat", "--half-taps", "2", "--restarts", "1", "--tol", "nan"),
    ],
    ids=[f"{cmd}-{case}" for cmd in ("analyze", "verify") for case in _BAD_REPORT_TOLERANCES]
    + ["compose-inf", "maxflat-nan"],
)
def test_bad_tolerance_is_usage_error(capsys, tmp_path, argv):
    bank = _build(capsys, tmp_path, "mercedes-benz", 2)
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"bank": "example7"}))
    code, out, err = _run(capsys, *(a.format(bank=bank, tree=tree) for a in argv))
    assert code == 2
    assert "error:" in err and "tolerance" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "argv_head",
    [("analyze",), ("verify",), ("analyze", "--oracle")],
    ids=["analyze", "verify", "analyze-oracle"],
)
def test_overflowing_samples_are_usage_error(capsys, tmp_path, argv_head):
    # finite samples whose Grams overflow: no bounds to report
    payload = _malformed_bank(lambda o: o["filters"][0]["samples"].__setitem__(0, [1e200, 0.0]))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = _run(capsys, *argv_head, str(path))
    assert code == 2
    assert "error:" in err and "not finite" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("verify", [False, True], ids=["compose", "compose-verify"])
def test_compose_overflowing_samples_is_usage_error(capsys, tmp_path, verify):
    # the bank of test_overflowing_samples_are_usage_error as a one-node tree
    bank = _malformed_bank(lambda o: o["filters"][0]["samples"].__setitem__(0, [1e200, 0.0]))
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"bank": bank}))
    argv = ["compose", "--tree", str(path), "--inner-dim", "1"] + ["--verify"] * verify
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning either
        code, out, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "not finite" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("half_taps", ["133", "136", "20000"])
def test_design_maxflat_overflow_is_usage_error(capsys, half_taps):
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning either
        code, out, err = _run(
            capsys, "design-maxflat", "--half-taps", half_taps, "--restarts", "1"
        )
    if int(half_taps) >= 136:  # rejected before any draw or table is built
        assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err.startswith("error:") and "floats" in err and "Traceback" not in err
    assert out == ""


def test_design_maxflat_names_the_float_limit_of_the_odd_tap_map(capsys):
    # seed 1's first draw at T = 79 is below the T >= 136 table limit but
    # beyond what the exact odd-tap map resolves in floats
    code, out, err = _run(
        capsys, "design-maxflat", "--half-taps", "79", "--seed", "1", "--restarts", "1"
    )
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error: flatness solve residual too large at T = 79")
    assert "float limit" in err
    code, out, _ = _run(capsys, "design-maxflat", "--help")
    assert code == 0 and "T >= 136 exits 2 before any work" in " ".join(out.split())


def test_design_maxflat_skips_a_failing_draw(capsys):
    # restart 0 of T = 43, seed 108 fails the flatness checks; restart 1
    # runs and does not converge, which is a verdict (exit 1), not an error
    code, out, err = _run(
        capsys, "design-maxflat", "--half-taps", "43", "--seed", "108", "--restarts", "2"
    )
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["converged"] is False and report["restart"] == 1
    assert report["restarts"][0] == {"residual_inf": None, "iterations": 0}
    assert report["restarts"][1]["residual_inf"] == report["residual_inf"]
    code, out, _ = _run(capsys, "design-maxflat", "--help")
    assert "only a search whose every draw fails exits 2" in " ".join(out.split())


@pytest.mark.parametrize(
    "env_seed,argv,message",
    [
        (None, ["--seed", "-5"], "seed must be in [0, 2**128), got -5"),
        ("-1", [], "seed must be in [0, 2**128), got -1"),
        ("abc", [], "FBFF_SEED must be an integer"),
        (None, ["--q", "0"], "fbff: error: unrecognized arguments: --q 0"),
    ],
    ids=["seed-flag-negative", "seed-env-negative", "seed-env-not-integer", "q-zero"],
)
def test_design_maxflat_bad_input_names_it(capsys, monkeypatch, env_seed, argv, message):
    monkeypatch.delenv("FBFF_SEED", raising=False)
    if env_seed is not None:
        monkeypatch.setenv("FBFF_SEED", env_seed)
    code, out, err = _run(capsys, "design-maxflat", "--half-taps", "2", *argv)
    assert code == 2
    # a bad value is the CLI's "error:" line; the removed --q is argparse's usage error
    prefix = "usage:" if "--q" in argv else "error:"
    assert err.startswith(prefix) and message in err and "Traceback" not in err
    assert out == ""


def test_package_runs_as_a_process(tmp_path):
    # a fresh interpreter imports the package, __main__ and every module the
    # CLI loads, with each warning an error
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    fbff = [sys.executable, "-W", "error", "-m", "fbff"]
    bank = tmp_path / "bank.json"
    build = ["build", "mercedes-benz", "--period", "2", "--out", str(bank)]
    for argv in (build, ["verify", str(bank)]):
        run = subprocess.run(fbff + argv, env=env, cwd=tmp_path, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["ok"] is True


def test_commands_in_one_process_match_each_run_alone(capsys, tmp_path, monkeypatch):
    # one parser serves every call in a process: an --oracle flag or a parse
    # error must not carry over to the next call, and no parser is rebuilt
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    bank = str(_build(capsys, tmp_path, "example7", 4))
    sequence = [
        ["verify", bank, "--oracle"],
        ["verify", bank],
        ["analyze", bank, "--tol", "nan"],
        ["analyze", bank],
    ]
    alone = [
        subprocess.run([sys.executable, "-m", "fbff", *argv], env=env, cwd=tmp_path, capture_output=True, text=True)
        for argv in sequence
    ]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    together = [_run(capsys, *sequence[0])]
    after_first = len(built)
    together += [_run(capsys, *argv) for argv in sequence[1:]]
    assert len(built) == after_first
    assert [(code, out) for code, out, _ in together] == [(r.returncode, r.stdout) for r in alone]
    assert [code for code, _, _ in together] == [0, 0, 2, 0]
    assert "oracle" in json.loads(together[0][1]) and "oracle" not in json.loads(together[1][1])
    assert "tolerance" in together[2][2]


def _deep_bank_text(depth):
    samples = "[" * depth + "]" * depth
    filt = f'{{"period": 1, "samples": {samples}}}'
    return f'{{"downsample": 1, "inner_period": 1, "filters": [{filt}]}}'


def _deep_tree_text(depth):
    head = '{"bank": "example7", "children": ['
    tail = ', "identity", "identity", "identity"]}'
    return head * (depth - 1) + '{"bank": "example7"}' + tail * (depth - 1)


@pytest.mark.parametrize(
    "argv_head,text",
    [
        (("analyze",), _deep_bank_text(3000)),
        (("compose", "--inner-dim", "1", "--tree"), _deep_tree_text(3000)),
        # every level holds a string with one bracket, which hides no level
        (("analyze",), '["]", ' * 3000 + "1" + ', "["]' * 3000),
    ],
    ids=["bank-samples", "tree", "brackets-in-strings"],
)
def test_deeply_nested_input_is_usage_error(capsys, tmp_path, argv_head, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = _run(capsys, *argv_head, str(path))
    assert code == 2
    assert err.startswith("error:") and "recursion" in err and "Traceback" not in err
    assert out == ""


def test_oversized_tree_is_usage_error(capsys, tmp_path, monkeypatch):
    # a 35-level DWT tree over --inner-dim 1 has ambient dimension 2^35; the
    # allocation failure is simulated rather than attempted
    real = constructions.named_matrix

    def named_matrix_within_memory(name, period):
        if period > 2**20:
            raise MemoryError  # as Python raises it: no message
        return real(name, period)

    monkeypatch.setattr(constructions, "named_matrix", named_matrix_within_memory)
    path = tmp_path / "tree.json"
    path.write_text(_deep_tree_text(35))
    code, out, err = _run(capsys, "compose", "--tree", str(path), "--inner-dim", "1")
    assert code == 2
    assert err.startswith("error:") and "MemoryError" in err and "Traceback" not in err
    assert out == ""
