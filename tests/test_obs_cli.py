"""Smoke tests of the ``qcoral obs`` cross-run analysis CLI family.

End-to-end over real artifacts: ``quantify --ledger/--trace`` produces the
ledger and trace files, then ``obs summary|history|diff|lint-trace`` analyses
them.  The drift acceptance path is exercised both ways — two identical
fixed-seed runs agree (exit 0, drift 0), and an injected estimate shift of
five sigma trips the default three-sigma threshold (exit 1, ``GATE``).
Usage failures (missing files, wrong file kinds, a ledger too thin to
compare) exit 2, pinning the exit-code contract shared with ``qcoral ci``.
"""

import json

import pytest

from repro.cli import main
from repro.obs.ledger import LedgerEntry, open_ledger

CONSTRAINTS = "x*x + y*y <= 1"
DOMAINS = ["--domain", "x=-1:1", "--domain", "y=-1:1"]


def _quantify(tmp_path, *, seed=11, ledger=None, trace=None, extra=()):
    argv = ["quantify", CONSTRAINTS, *DOMAINS, "--samples", "2000", "--seed", str(seed)]
    if ledger is not None:
        argv += ["--ledger", str(ledger)]
    if trace is not None:
        argv += ["--trace", str(trace)]
    argv += list(extra)
    assert main(argv) == 0


@pytest.fixture()
def ledger_path(tmp_path):
    path = tmp_path / "runs.jsonl"
    _quantify(tmp_path, seed=11, ledger=path)
    _quantify(tmp_path, seed=11, ledger=path)
    return path


def test_quantify_ledger_flag_appends_entries(ledger_path):
    with open_ledger(str(ledger_path)) as ledger:
        entries = ledger.entries()
    assert len(entries) == 2
    assert entries[0].family == entries[1].family
    assert entries[0].mean == entries[1].mean  # same seed, same estimate


def test_obs_summary_on_ledger(ledger_path, capsys):
    assert main(["obs", "summary", str(ledger_path)]) == 0
    out = capsys.readouterr().out
    assert "entries:        2 across 1 families" in out
    assert "diagnostics:" in out


def test_obs_history_renders_family(ledger_path, capsys):
    assert main(["obs", "history", str(ledger_path)]) == 0
    out = capsys.readouterr().out
    assert "2 run(s)" in out
    assert out.count("\n") >= 4  # header + rule + two rows


def test_obs_diff_same_seed_runs_agree(ledger_path, capsys):
    assert main(["obs", "diff", str(ledger_path)]) == 0
    out = capsys.readouterr().out
    assert "drift:      0.00 sigma" in out
    assert "OK: estimates agree" in out


def test_obs_diff_flags_injected_drift(ledger_path, capsys):
    # Inject a candidate whose mean shifted by five sigma: the default
    # three-sigma threshold must flag it and exit non-zero.
    with open_ledger(str(ledger_path)) as ledger:
        base = ledger.entries()[-1]
        report = dict(base.report)
        report["mean"] = base.mean + 5.0 * base.std
        shifted = LedgerEntry.from_dict({**base.to_dict(), "run_id": "f" * 16, "report": report})
        ledger.append(shifted)
    assert main(["obs", "diff", str(ledger_path)]) == 1
    out = capsys.readouterr().out
    assert "GATE: estimates differ" in out
    drift_sigmas = 5.0 / (2.0**0.5)
    assert f"{drift_sigmas:.2f} sigma" in out
    # A looser threshold accepts the same pair.
    assert main(["obs", "diff", str(ledger_path), "--threshold", "10"]) == 0


def test_obs_diff_needs_two_runs(tmp_path, capsys):
    path = tmp_path / "single.jsonl"
    _quantify(tmp_path, ledger=path)
    # A ledger too thin to compare is a usage error (exit 2), not a tripped
    # gate (exit 1) — CI must not read "nothing to compare" as a verdict.
    assert main(["obs", "diff", str(path)]) == 2
    assert "need at least two runs" in capsys.readouterr().err


def test_obs_on_sqlite_ledger(tmp_path, capsys):
    path = tmp_path / "runs.db"
    _quantify(tmp_path, seed=3, ledger=path)
    _quantify(tmp_path, seed=3, ledger=path)
    assert main(["obs", "history", str(path)]) == 0
    assert "2 run(s)" in capsys.readouterr().out
    assert main(["obs", "diff", str(path)]) == 0


def test_obs_history_skips_a_torn_final_append(ledger_path, tmp_path, capsys):
    _quantify(tmp_path, seed=12, ledger=ledger_path)
    intact = ledger_path.read_bytes()
    ledger_path.write_bytes(intact[:-7])  # the third append was cut short
    assert main(["obs", "history", str(ledger_path)]) == 0
    assert "2 run(s)" in capsys.readouterr().out
    # The next append closes the fragment off instead of gluing onto it.
    _quantify(tmp_path, seed=13, ledger=ledger_path)
    assert main(["obs", "history", str(ledger_path)]) == 0
    assert "3 run(s)" in capsys.readouterr().out


def test_obs_history_names_a_corrupt_committed_line(ledger_path, capsys):
    with open(ledger_path, "a", encoding="utf-8") as handle:
        handle.write("{not json\n")
    assert main(["obs", "history", str(ledger_path)]) == 1
    captured = capsys.readouterr()
    assert f"error: {ledger_path}:3: corrupt ledger entry" in captured.err
    assert "Traceback" not in captured.err


def test_obs_lint_trace_accepts_real_trace(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    _quantify(tmp_path, trace=trace)
    _quantify(tmp_path, trace=trace)  # appended second run: span ids restart
    assert main(["obs", "lint-trace", str(trace)]) == 0
    assert "OK:" in capsys.readouterr().out


def test_obs_lint_trace_rejects_corrupt_trace(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    _quantify(tmp_path, trace=trace)
    with open(trace, "a", encoding="utf-8") as handle:
        handle.write("not json\n")
        handle.write(json.dumps({"name": "missing keys"}) + "\n")
    assert main(["obs", "lint-trace", str(trace)]) == 1
    out = capsys.readouterr().out
    assert "not valid JSON" in out
    assert "FAIL: 2 problem(s)" in out


def test_obs_summary_on_trace(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    _quantify(tmp_path, seed=5, trace=trace)
    assert main(["obs", "summary", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "schema:         qcoral-trace-1" in out
    assert "seed:           5" in out
    assert "qcoral.round" in out


def test_obs_rejects_wrong_file_kinds(tmp_path, capsys):
    ledger = tmp_path / "runs.jsonl"
    trace = tmp_path / "trace.jsonl"
    _quantify(tmp_path, ledger=ledger, trace=trace)
    # Wrong-kind and missing files are usage errors: exit 2 across the board.
    assert main(["obs", "lint-trace", str(ledger)]) == 2
    assert "run ledger, not a trace" in capsys.readouterr().err
    assert main(["obs", "diff", str(trace)]) == 2
    assert "trace file, not a run ledger" in capsys.readouterr().err
    assert main(["obs", "summary", str(tmp_path / "missing.jsonl")]) == 2
    assert "no such file" in capsys.readouterr().err
