"""Smoke tests: each script's main() runs to completion on small arguments."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(monkeypatch, name, *argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    return module.main()


def test_oracle_sweep_passes(monkeypatch, capsys):
    assert _run_script(monkeypatch, "oracle_sweep", "--count", "20") == 0
    assert "PASS" in capsys.readouterr().out.splitlines()


def test_make_response_tables_writes_csvs(monkeypatch, tmp_path):
    code = _run_script(
        monkeypatch, "make_response_tables",
        "--half-taps", "2", "--samples", "16", "--outdir", str(tmp_path),
    )
    assert code == 0
    headers = {
        "example5_responses.csv": "n,omega,mag2",
        "example7_responses.csv": "n,omega,mag2",
        "maxflat_responses.csv": "n,omega,mag2",
        "maxflat_taps.csv": "k,value",
    }
    for fname, header in headers.items():
        lines = (tmp_path / fname).read_text().splitlines()
        assert lines[0] == header and len(lines) > 1
