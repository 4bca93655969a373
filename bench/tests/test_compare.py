from bench.compare import compare, verdict
from bench.stats import summarize

SPEC = {"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}]}


def s(*samples):
    return summarize(list(samples), "s")


def test_verdict_against_the_bound():
    old = s(1.0, 1.0, 1.0)
    assert verdict(old, s(1.05, 1.05, 1.05), "lower", 0.1) == "no worse"
    assert verdict(old, s(1.2, 1.2, 1.2), "lower", 0.1) == "worse"
    assert verdict(old, s(0.8, 0.8, 0.8), "lower", 0.1) == "better"
    assert verdict(old, s(0.8, 0.8, 0.8), "higher", 0.1) == "worse"


def test_verdict_unresolved_when_spread_exceeds_the_bound():
    old = s(1.0, 1.0, 1.0)
    assert verdict(old, s(0.5, 1.0, 1.5), "lower", 0.1) == "unresolved"
    # ... unless every new run beats every old run.
    assert verdict(s(1.0, 2.0, 3.0), s(0.5, 0.6, 0.9), "lower", 0.1) == "better"
    assert verdict(s(1.0, 2.0, 3.0), s(3.5, 4.0, 9.0), "higher", 0.1) == "better"


def _set(run_s, model, seed=1):
    return {
        "seed": seed,
        "smoke": False,
        "workloads": {"w": {"e2e": {"metrics": {"run_s": s(*run_s)}, "model": model}}},
    }


def test_compare_fails_on_worse_and_on_model_change():
    same = _set([1.0, 1.0, 1.0], {"digest": "a"})
    assert compare(same, _set([1.01, 1.0, 1.0], {"digest": "a"}), SPEC)[1]

    lines, ok = compare(same, _set([1.3, 1.3, 1.3], {"digest": "a"}), SPEC)
    assert not ok and lines[-1].endswith("worse")

    lines, ok = compare(same, _set([1.0, 1.0, 1.0], {"digest": "b"}), SPEC)
    assert not ok and lines[-1].endswith("model changed: digest")

    # Different seeds: models differ by design and are not compared.
    assert compare(same, _set([1.0, 1.0, 1.0], {"digest": "b"}, seed=7), SPEC)[1]
