"""Tests for the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize(
    "cpus, shards, driver",
    [(4, 1, "cooperative"), (1, 4, "cooperative"), (2, 4, "2 worker processes"),
     (4, 3, "3 worker processes")],
)
def test_run_traffic_reports_its_driver(cpus, shards, driver, capsys, usable_cpus):
    usable_cpus(cpus)
    args = ["run", "--workload", "traffic", "--components", "200", "--ticks", "1"]
    assert main(args + ["--shards", str(shards)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l for l in lines if l.startswith("driver:")] == [f"driver: {driver}"]


def test_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


#: sha256 of the stdout of each command CI runs, pinned before the
#: commands were rebuilt on ``build_run``: every preset must keep
#: printing byte-identical output.  Relative output paths, run from a
#: scratch directory, as CI does.
STDOUT_PINS = {
    "run --images 6 --shards 1 --metrics m1.json":
        "834f815b594e6725550c31477f49044c269bd25cfcbf81db226497c81c2c8cf6",
    "run --images 6 --shards 2 --metrics m2.json":
        "9fcd1da007ad96fb298ebc78c512443f7427dc95afa91c397db1676d6762082b",
    "run --images 6 --shards 4 --metrics m4.json":
        "80785acea7c3faf2f70999fb858461524f151811db12af46e9329ddfbda37ade",
    "run --images 6 --shards 4":
        "8991ffb0022ffaf0101d985815c3f3cf838e1bcb9d242e900088f272ba772160",
    "faults --seed 1 --images 8":
        "02c3747d9e2645540c4c5e71b457bd42ee29cbfbff971d70375aa0b87071abfb",
    "faults --seed 7 --images 8":
        "8b31dc276d695b07a5e39575541a3a3904764478836057320426c29412288748",
    "faults --seed 42 --images 8":
        "7f7b28b11d3b79b6e0e9197f132c1814076b3682babaef3f6b3ff4ce002a7f7f",
    "faults --seed 1 --images 8 --recover":
        "31d5055323e0bf403831d5485230080c5aca766c1395e41f24f529c3ee07efdf",
    "faults --seed 7 --images 8 --recover":
        "9be77c91bf2af2a923b4a9e7015695425c6d4989ed2c663fa6e084f28e418ca6",
    "faults --seed 42 --images 8 --recover":
        "d3643eb9653d229778a5a61bd301e20902c08c1645e9675385ca34a012309cee",
    "trace --images 6":
        "f91d0d3c9d8492f2b82356c4283b0464a848db1a346b07100ca79b909c2b3543",
    "trace --images 4 --shards 2":
        "88cfffcf60a8948558929a61ec7d2b6252ae944457ce18ddea4c1bf48e61d646",
    "top --images 4 --watch --interval 0":
        "545221a7dd6b5fcbd31c7e77bee6cfd0e8f28100176ec2609c8b063ecd67d354",
}


@pytest.mark.parametrize("command", sorted(STDOUT_PINS))
def test_ci_command_stdout_is_pinned(command, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_PINS[command]


@pytest.mark.parametrize("command", ["trace", "top", "run"])
@pytest.mark.parametrize("shards", ["0", "-2", "9", "20"])
def test_invalid_shard_count_is_a_config_error(command, shards, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([command, "--images", "4", "--shards", shards]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: shards={shards}" in captured.err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--ticks", "0"], "error: a run needs at least one load tick, got ticks=0\n"),
        (["--components", "4"], "error: traffic graph needs at least 8 components, got 4\n"),
        (["--metrics", "m.json"],
         "error: --workload traffic writes no --metrics; drop one of the two\n"),
    ],
    ids=["ticks", "components", "metrics"],
)
def test_refused_traffic_run_is_one_error_line(flags, message, capsys):
    assert main(["run", "--workload", "traffic", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--images", "2"], "error: campaign needs at least 3 images, got 2\n"),
        (["--images", "10", "--recover", "--durable", "state", "--kill9", "9"],
         "error: at most 8 kill9 faults fit a 10-image stream\n"),
        (["--images", "2", "--recover", "--durable", "state", "--kill9", "0"],
         "error: campaign needs at least 3 images, got 2\n"),
        (["--images", "8", "--recover", "--durable", "state", "--metrics", "m.prom"],
         "error: a --durable campaign writes no --metrics; drop one of the two\n"),
    ],
    ids=["images", "kill9", "durable-images", "durable-metrics"],
)
def test_refused_faults_run_is_one_error_line(argv, message, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["faults", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message
    assert not (tmp_path / "state").exists()  # refused before any work


def test_closed_stdout_ends_without_a_traceback(tmp_path):
    from repro.faults.fleet import CampaignConfig, write_manifest

    # 300 cells: far more listing than one pipe buffer holds
    write_manifest(str(tmp_path), CampaignConfig(seeds=(1, 7, 42), shard_counts=(1, 2, 4)))
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "campaign", "ls", str(tmp_path), "--verbose"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader goes away before the first line
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
