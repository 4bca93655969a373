"""The CI workflow files parse as YAML with no duplicate mapping keys.

A plain ``yaml.safe_load`` keeps the last of two equal keys without a
word, so a lost job header silently merges two jobs into one.  This
loader refuses duplicates instead.
"""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW_DIR = Path(__file__).resolve().parents[2] / ".github" / "workflows"
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
    assert any("shard-merge invariant" in s for s in step_names["metrics-smoke"])
    assert not any("shard-merge invariant" in s for s in step_names["scale-smoke"])
    scale_runs = " ".join(s.get("run", "") for s in jobs["scale-smoke"]["steps"])
    assert "--shards 4 --parallel" in scale_runs
    shard_runs = " ".join(s.get("run", "") for s in jobs["shard-smoke"]["steps"])
    assert "run --images 6 --shards 4 --parallel" in shard_runs
    assert 'test "$sha1" = "$sha4p"' in shard_runs
    runs = " ".join(s.get("run", "") for s in jobs["bench-smoke"]["steps"])
    assert "python -m pytest bench -q" in runs
    assert "python -m bench run --smoke --out bench-smoke.json" in runs


def test_every_job_installs_the_dev_extras():
    # Tier-1 modules import hypothesis at module level and this file
    # needs pyyaml: a job that installs only numpy and pytest stops at
    # collection or skips these checks.
    ci = yaml.load((WORKFLOW_DIR / "ci.yml").read_text(), Loader=UniqueKeyLoader)
    for name, job in ci["jobs"].items():
        installs = [s["run"] for s in job["steps"] if "pip install" in s.get("run", "")]
        assert installs, f"job {name} installs nothing"
        assert all('-e ".[dev]"' in run for run in installs), (name, installs)
    pyproject = (WORKFLOW_DIR.parents[1] / "pyproject.toml").read_text()
    dev = next(line for line in pyproject.splitlines() if line.startswith("dev = "))
    for package in ("pytest", "hypothesis", "pyyaml"):
        assert f'"{package}"' in dev


def test_paper_tables_job_fails_on_drift():
    ci = yaml.load((WORKFLOW_DIR / "ci.yml").read_text(), Loader=UniqueKeyLoader)
    runs = [s.get("run", "") for s in ci["jobs"]["paper-tables"]["steps"]]
    regenerate = next(i for i, r in enumerate(runs) if "benchmarks/test_table*.py" in r)
    assert "benchmarks/test_figure*.py" in runs[regenerate]
    diff = next(i for i, r in enumerate(runs) if "git diff --exit-code" in r)
    assert diff > regenerate
    assert "benchmarks/results/table*" in runs[diff]
    assert "benchmarks/results/figure*" in runs[diff]


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
    kill9 = next(i for i, r in enumerate(runs) if "--durable state --kill9 2" in r)
    assert f"faults {seed}" in runs[kill9] and "--images 10 --recover" in runs[kill9]
    assert "recover verify state" in runs[kill9]
    later = " ".join(runs[kill9:])
    assert "recover ls state" in later and "recover dump state" in later
    assert "campaign resume victim" in " ".join(
        s.get("run", "") for s in jobs["campaign-smoke"]["steps"]
    )
