"""The CI workflow files parse as YAML with no duplicate mapping keys.

A plain ``yaml.safe_load`` keeps the last of two equal keys without a
word, so a lost job header silently merges two jobs into one.  This
loader refuses duplicates instead.
"""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[2]
WORKFLOW_DIR = ROOT / ".github" / "workflows"
WORKFLOWS = sorted(WORKFLOW_DIR.glob("*.yml"))


class UniqueKeyLoader(yaml.SafeLoader):
    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", key_node.start_mark
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def test_workflows_exist():
    assert WORKFLOWS


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda p: p.name)
def test_workflow_has_no_duplicate_keys(path):
    doc = yaml.load(path.read_text(), Loader=UniqueKeyLoader)
    for name, job in doc["jobs"].items():
        assert job.get("steps"), f"job {name} has no steps"


def test_loader_rejects_duplicate_keys():
    with pytest.raises(yaml.constructor.ConstructorError, match="duplicate key 'steps'"):
        yaml.load("job:\n  steps: [a]\n  steps: [b]\n", Loader=UniqueKeyLoader)


def test_smoke_jobs_are_separate():
    ci = yaml.load((WORKFLOW_DIR / "ci.yml").read_text(), Loader=UniqueKeyLoader)
    jobs = ci["jobs"]
    step_names = {name: [s.get("name", "") for s in job["steps"]] for name, job in jobs.items()}
    assert any("shard-count invariant" in s for s in step_names["scale-smoke"])
    assert any(s.startswith("Telemetry is shard-count invariant")
               for s in step_names["metrics-smoke"])
    assert not any("shard-merge" in s for steps in step_names.values() for s in steps)
    telemetry = next(
        s["run"] for s in jobs["metrics-smoke"]["steps"]
        if s.get("name", "").startswith("Telemetry is shard-count invariant")
    )
    assert 'if snap["name"] != "shard_cut_messages"' in telemetry
    assert "assert m1 == m2 == m4" in telemetry
    assert "Causal trace of a 2-shard run" in step_names["shard-smoke"]
    assert not any(s.startswith("Merged") for s in step_names["shard-smoke"])
    scale_runs = " ".join(s.get("run", "") for s in jobs["scale-smoke"]["steps"])
    assert "--components 1000 --shards 2 | tee t2.txt" in scale_runs
    assert "--components 1000 --shards 4 | tee t4.txt" in scale_runs
    assert 'test "$sha1" = "$sha2" && test "$sha1" = "$sha4"' in scale_runs
    # The multi-shard digests above must come from the process driver.
    scale_steps = jobs["scale-smoke"]["steps"]
    workers = next(s["run"] for s in scale_steps if "worker processes" in s.get("name", ""))
    for log in ("t2.txt", "t4.txt"):
        assert f"grep -Eq '^driver: [0-9]+ worker processes$' {log}" in workers
    shard_runs = " ".join(s.get("run", "") for s in jobs["shard-smoke"]["steps"])
    assert "run --images 6 --shards 4 | tee run4.txt" in shard_runs
    assert "sha1s" not in shard_runs  # no separate one-shard runtime leg
    for n in (1, 2, 4):
        assert f"run --images 6 --shards {n} --metrics m{n}.json | tee pin{n}.txt" in shard_runs
        assert f"span{n}=$(grep -o 'makespan=[^ ]*' pin{n}.txt)" in shard_runs
    assert 'test "$span1" = "$span2" && test "$span1" = "$span4"' in shard_runs
    assert "--parallel" not in (WORKFLOW_DIR / "ci.yml").read_text()
    runs = " ".join(s.get("run", "") for s in jobs["bench-smoke"]["steps"])
    assert "python -m pytest bench -q" in runs
    assert "python -m bench run --smoke --out bench-smoke.json" in runs
    runs = " ".join(s.get("run", "") for s in jobs["ablations"]["steps"])
    assert "python -m pytest -q benchmarks/test_ablation_*.py" in runs


def test_every_job_installs_the_dev_extras():
    # Tier-1 modules import hypothesis at module level and this file
    # needs pyyaml: a job that installs only numpy and pytest stops at
    # collection or skips these checks.
    ci = yaml.load((WORKFLOW_DIR / "ci.yml").read_text(), Loader=UniqueKeyLoader)
    for name, job in ci["jobs"].items():
        installs = [s["run"] for s in job["steps"] if "pip install" in s.get("run", "")]
        assert installs, f"job {name} installs nothing"
        assert all('-e ".[dev]"' in run for run in installs), (name, installs)
    pyproject = (ROOT / "pyproject.toml").read_text()
    dev = next(line for line in pyproject.splitlines() if line.startswith("dev = "))
    for package in ("pytest", "hypothesis", "pyyaml"):
        assert f'"{package}"' in dev


def test_numpy_floor_leg_runs_the_codec_tests_at_the_pyproject_floor():
    ci = yaml.load((WORKFLOW_DIR / "ci.yml").read_text(), Loader=UniqueKeyLoader)
    test = ci["jobs"]["test"]
    assert {"python-version": "3.10", "numpy-floor": True} in test["strategy"]["matrix"]["include"]
    floor_steps = [s for s in test["steps"] if s.get("if") == "${{ matrix.numpy-floor }}"]
    runs = " ".join(s["run"] for s in floor_steps)
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = pyproject.split('"numpy>=', 1)[1].split('"', 1)[0]
    assert f'"numpy=={floor}.*"' in runs
    assert "pytest -x -q tests/mjpeg tests/faults" in runs
    # Past checkout and setup, every other step skips the leg.
    setup = ("actions/checkout", "actions/setup-python")
    for step in test["steps"]:
        if step in floor_steps or step.get("uses", "").startswith(setup):
            continue
        assert step.get("if") == "${{ !matrix.numpy-floor }}", step


def test_perf_gates_run_from_the_gate_module():
    ci = yaml.load((WORKFLOW_DIR / "ci.yml").read_text(), Loader=UniqueKeyLoader)
    jobs = ci["jobs"]
    gates = "python -m pytest -q benchmarks/test_perf_gates.py"
    test_runs = [s.get("run", "") for s in jobs["test"]["steps"]]
    assert [r for r in test_runs if gates in r] == [f"PYTHONPATH=src {gates}"]
    scale_runs = [s.get("run", "") for s in jobs["scale-smoke"]["steps"]]
    assert [r for r in scale_runs if gates in r] == [f"PYTHONPATH=src {gates}::test_sim_scale"]
    every_run = " ".join(s.get("run", "") for job in jobs.values() for s in job["steps"])
    assert "bench" not in re.findall(r"repro\.cli (\S+)", every_run)


def test_paper_tables_job_fails_on_drift():
    ci = yaml.load((WORKFLOW_DIR / "ci.yml").read_text(), Loader=UniqueKeyLoader)
    steps = ci["jobs"]["paper-tables"]["steps"]
    runs = [s.get("run", "") for s in steps]
    regenerate = next(i for i, r in enumerate(runs) if "benchmarks/test_table*.py" in r)
    assert "benchmarks/test_figure*.py" in runs[regenerate]
    assert "578/3000-image scale" in steps[regenerate]["name"]
    # The job runs the command README documents, with no scale switch.
    command = runs[regenerate].strip().removeprefix("PYTHONPATH=src ")
    assert command in (ROOT / "README.md").read_text()
    for path in WORKFLOWS:
        assert "REPRO_FULL" not in path.read_text(), path.name
    diff = next(i for i, r in enumerate(runs) if "git diff --exit-code" in r)
    assert diff > regenerate
    assert "benchmarks/results/table*" in runs[diff]
    assert "benchmarks/results/figure*" in runs[diff]


def test_committed_table2_holds_the_papers_counts():
    text = (ROOT / "benchmarks" / "results" / "table2_comm_counts.txt").read_text()
    header = text.splitlines()[1].split()
    assert header == ["Component", "send578", "recv578", "send3000", "recv3000"]
    rows = {line.split()[0]: line.split()[1:] for line in text.splitlines()[3:]}
    assert rows["Fetch"] == ["10,386", "0", "53,982", "0"]
    for idct in ("IDCT_1", "IDCT_2", "IDCT_3"):
        assert rows[idct] == ["3,462", "3,462", "17,994", "17,994"]
    assert rows["Reorder"] == ["0", "10,386", "0", "53,982"]


def test_chaos_job_runs_every_campaign_kind_per_seed():
    ci = yaml.load((WORKFLOW_DIR / "ci.yml").read_text(), Loader=UniqueKeyLoader)
    jobs = ci["jobs"]
    for gone in ("chaos-matrix", "recovery-smoke", "kill9-recovery"):
        assert gone not in jobs
    chaos = jobs["chaos"]
    assert chaos["strategy"]["matrix"]["seed"] == [1, 7, 42]
    runs = [s.get("run", "") for s in chaos["steps"]]
    seed = "--seed ${{ matrix.seed }}"
    assert any(f"faults {seed} --images 8" in r and "--recover" not in r for r in runs)
    assert any(f"faults {seed} --images 8 --recover" in r for r in runs)
    sharded = next(r for r in runs if "campaign run" in r)
    assert f"--seeds {seed.split()[1]}" in sharded
    assert "--policies recover --shards 2,4 --images 8" in sharded
    kill9 = next(i for i, r in enumerate(runs) if "--durable state --kill9 2" in r)
    assert f"faults {seed}" in runs[kill9] and "--images 10 --recover" in runs[kill9]
    assert "recover verify state" in runs[kill9]
    later = " ".join(runs[kill9:])
    assert "recover ls state" in later and "recover dump state" in later
    assert "campaign resume victim" in " ".join(
        s.get("run", "") for s in jobs["campaign-smoke"]["steps"]
    )


def test_reach_job_runs_ci_commands_under_the_hook_then_the_report():
    ci = yaml.load((WORKFLOW_DIR / "ci.yml").read_text(), Loader=UniqueKeyLoader)
    reach = ci["jobs"]["reach"]
    assert reach["timeout-minutes"] == 20
    runs = [s.get("run", "") for s in reach["steps"]]
    script = next(i for i, r in enumerate(runs) if "tools/reach/run.sh reach-out" in r)
    report = next(i for i, r in enumerate(runs) if "tools/reach/report.py --reach reach-out" in r)
    assert report > script
    # pytest-benchmark pauses every profile hook around a benchmarked
    # call unless benchmarking is disabled: every pytest run in the
    # command script must pass --benchmark-disable.
    commands = (ROOT / "tools" / "reach" / "run.sh").read_text()
    pytest_lines = [line for line in commands.splitlines() if "-m pytest" in line]
    assert pytest_lines
    assert all("--benchmark-disable" in line for line in pytest_lines)
    for command in ("benchmarks/test_perf_gates.py", "benchmarks/test_table*.py",
                    "benchmarks/test_ablation_*.py", "bench_pytest bench",
                    "python -m bench run --smoke", "repro info", "repro demo-smp 20",
                    "repro demo-sti7200 20", "repro observe"):
        assert command in commands, command
