import json
import warnings

import numpy as np
import pytest

from fbff import constructions
from fbff.analysis import fusion_report, report_to_json
from fbff.cli import frequency_table, main
from fbff.constructions import named_bank
from fbff.signals import bank_from_json, bank_to_json


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
    obj = bank_to_json(named_bank("mercedes-benz", 2))
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
    fb = named_bank("daubechies4", 4)
    rows = frequency_table(fb, 5)
    k = np.arange(fb.filter_period)
    for n, omega, mag2 in rows:
        direct = abs(np.sum(fb.filters[n].samples * np.exp(-1j * k * omega))) ** 2
        assert mag2 == pytest.approx(direct, abs=1e-12)


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


def test_output_json_reparses_identically(capsys, tmp_path):
    path = _build(capsys, tmp_path, "example5", 4)
    text = path.read_text()
    fb = bank_from_json(json.loads(text))
    assert json.dumps(bank_to_json(fb), indent=2) + "\n" == text


def test_missing_file_is_usage_error(capsys):
    code, _, err = _run(capsys, "analyze", "/nonexistent/bank.json")
    assert code == 2 and err


def test_usage_error_exit_code(capsys):
    assert main(["build"]) == 2
    assert main([]) == 2


def _malformed_bank(edit):
    obj = bank_to_json(named_bank("mercedes-benz", 2))
    edit(obj)
    return obj


@pytest.mark.parametrize(
    "argv_head,payload",
    [
        (("analyze",), _malformed_bank(lambda o: o["filters"][0]["samples"][0].__setitem__(0, float("nan")))),
        (("analyze",), _malformed_bank(lambda o: o["filters"][1]["samples"][2].__setitem__(1, float("inf")))),
        (("analyze",), _malformed_bank(lambda o: o.pop("downsample"))),
        (("analyze",), [bank_to_json(named_bank("mercedes-benz", 2))]),
        (("analyze",), _malformed_bank(lambda o: o["filters"][0]["samples"].__setitem__(1, ["0.5", 0.0]))),
        (("compose", "--inner-dim", "4", "--tree"), {"bank": 5}),
        (("build", "mercedes-benz", "--period", "0"), None),
    ],
    ids=["nan-sample", "inf-sample", "no-downsample", "top-level-list", "string-sample", "tree-bank-5", "period-0"],
)
def test_malformed_input_is_usage_error(capsys, tmp_path, argv_head, payload):
    argv = list(argv_head)
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        argv.append(str(path))
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "{bank}", "--tol", "nan"),
        ("verify", "{bank}", "--tol", "-1"),
        ("verify", "{bank}", "--tol", "inf"),
        ("verify", "{bank}", "--tol=-inf"),
        ("analyze", "{bank}", "--tol", "nan"),
        ("verify", "{bank}", "--oracle", "--oracle-tol", "-1"),
        ("analyze", "{bank}", "--oracle", "--oracle-tol", "inf"),
        ("compose", "--tree", "{tree}", "--inner-dim", "4", "--verify", "--tol", "inf"),
        ("design-maxflat", "--half-taps", "2", "--restarts", "1", "--tol", "nan"),
    ],
    ids=[
        "verify-nan", "verify-negative", "verify-inf", "verify-minus-inf", "analyze-nan",
        "oracle-negative", "oracle-inf", "compose-inf", "maxflat-nan",
    ],
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


@pytest.mark.parametrize("half_taps", ["133", "136"])
def test_design_maxflat_overflow_is_usage_error(capsys, half_taps):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning either
        code, out, err = _run(
            capsys, "design-maxflat", "--half-taps", half_taps, "--restarts", "1"
        )
    assert code == 2
    assert err.startswith("error:") and "floats" in err and "Traceback" not in err
    assert out == ""


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
    ],
    ids=["bank-samples", "tree"],
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
    real = constructions.named_bank

    def named_bank_within_memory(name, period):
        if period > 2**20:
            raise MemoryError  # as Python raises it: no message
        return real(name, period)

    monkeypatch.setattr(constructions, "named_bank", named_bank_within_memory)
    path = tmp_path / "tree.json"
    path.write_text(_deep_tree_text(35))
    code, out, err = _run(capsys, "compose", "--tree", str(path), "--inner-dim", "1")
    assert code == 2
    assert err.startswith("error:") and "MemoryError" in err and "Traceback" not in err
    assert out == ""
