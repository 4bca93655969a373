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
