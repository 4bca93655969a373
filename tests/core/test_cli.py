"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_info_prints_both_platforms(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "smp16" in out and "sti7200" in out
    assert "st40" in out and "opteron0" in out


def test_demo_smp_small(capsys):
    assert main(["demo-smp", "4"]) == 0
    out = capsys.readouterr().out
    assert "Fetch" in out and "Reorder" in out
    assert "messages conserved: True" in out


def test_demo_sti7200_small(capsys):
    assert main(["demo-sti7200", "4"]) == 0
    out = capsys.readouterr().out
    assert "Fetch-Reorder" in out
    assert "85" in out  # the IDCT memory figure


def test_observe_outputs_json(capsys):
    assert main(["observe"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["producer/application"]["sends"] == 50
    assert "producer/os" in data and "consumer/middleware" in data


def test_trace_prints_critical_path_and_writes_artifacts(capsys, tmp_path):
    prefix = str(tmp_path / "TRACE")
    assert main(["trace", "--images", "3", "--out", prefix]) == 0
    out = capsys.readouterr().out
    assert "critical path" in out
    assert "busiest mailboxes" in out
    # The printed e2e and attributed figures agree (telescoping).
    line = next(l for l in out.splitlines() if l.startswith("critical path"))
    assert line.split("e2e ")[1].split(" us")[0] == line.split("attributed ")[1].split(" us")[0]
    columns = json.loads((tmp_path / "TRACE.columns.json").read_text())
    assert columns["format"] == "repro-trace-columns"
    assert len(columns["columns"]["seq"]) > 0
    chrome = json.loads((tmp_path / "TRACE.chrome.json").read_text())
    flow_starts = [r for r in chrome if r.get("ph") == "s"]
    flow_ends = [r for r in chrome if r.get("ph") == "f"]
    assert flow_starts and flow_ends


def _run_metrics(capsys, tmp_path, shards):
    out_path = tmp_path / f"m{shards}.json"
    assert main(["run", "--images", "4", "--shards", str(shards), "--metrics", str(out_path)]) == 0
    return capsys.readouterr().out.splitlines()


def test_run_metrics_spreads_components_over_every_shard(capsys, tmp_path):
    """The pinned placement covers all four shards' core blocks, and the
    metrics stream is identical at 1/2/4 shards."""
    outs = {n: _run_metrics(capsys, tmp_path, n) for n in (1, 2, 4)}
    hosting = {l.split(":")[0] for l in outs[4] if l.startswith("shard ")}
    assert hosting == {"shard 0", "shard 1", "shard 2", "shard 3"}
    digests = {n: next(l for l in out if l.startswith("metrics sha256:")) for n, out in outs.items()}
    assert digests[1] == digests[2] == digests[4]


def test_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
