"""Seeded chaos campaign: deterministic, bit-exact, observed."""

import pytest

from repro.faults import build_plan, run_chaos_campaign


def test_campaign_plan_is_seed_deterministic():
    a = build_plan(11, 8, "campaign")
    b = build_plan(11, 8, "campaign")
    assert a.describe() == b.describe()
    c = build_plan(12, 8, "campaign")
    assert a.describe() != c.describe()


def test_campaign_plan_shape():
    plan = build_plan(0, 8, "campaign")
    kinds = [s.kind for s in plan.specs]
    assert kinds.count("crash") == 3
    assert "drop" in kinds and "duplicate" in kinds
    # crashes land on distinct IDCT workers, round-robin
    crash_comps = [s.component for s in plan.specs if s.kind == "crash"]
    assert sorted(crash_comps) == ["IDCT_1", "IDCT_2", "IDCT_3"]


# The whole engine at 8 images -- plan, injection log, supervision
# events and frame bytes -- as the commit before the template table
# gave it.
CAMPAIGN_DIGESTS = {
    (1, False): "be2395423d948d5ca32e7ba3e7e88d7b6cbc329072db9c28ba3f706a1b65026d",
    (7, False): "fa6082f5b88cea07c599d0a5801e7d6b3a25cc5f3592c90d401576dc3707c67b",
    (42, False): "9b9598dea347f1a3676fb9e006cfbd6b1176255508dc6afe8cebf9e95ea4e2b3",
    (1, True): "03b1674c4174994152459abc00b6fc562b79170baace26eb740a0485f6db71a2",
    (7, True): "8d96101b13e8d3c65c92f2134f2808048a54d16dab8148160ff005f9ad6983ac",
    (42, True): "06c2cf500e7f45ade485bac5586a178942e0b3149e5a4198a6a3a52948c1cc8c",
}


@pytest.mark.parametrize(
    "seed, recover", sorted(CAMPAIGN_DIGESTS),
    ids=lambda v: {False: "off", True: "recover"}.get(v, f"s{v}"),
)
def test_campaign_digest_is_pinned(seed, recover):
    result = run_chaos_campaign(seed=seed, n_images=8, recover=recover)
    assert result.digest == CAMPAIGN_DIGESTS[(seed, recover)]


@pytest.fixture(scope="module")
def campaign():
    return run_chaos_campaign(seed=2, n_images=6)


def test_campaign_survives_faults_bit_exactly(campaign):
    r = campaign
    assert r.ok
    assert r.bit_exact
    assert r.frames_delivered > 0
    assert r.injected.get("crash", 0) == 3
    assert r.restarts >= r.injected["crash"]
    assert r.mttr_us > 0.0


def test_campaign_is_reproducible_end_to_end(campaign):
    again = run_chaos_campaign(seed=2, n_images=6)
    assert again.digest == campaign.digest
    assert again.schedule == campaign.schedule
    assert again.supervision == campaign.supervision


def test_campaign_faults_reach_trace_and_observer(campaign):
    r = campaign
    assert r.fault_trace_events > 0
    # summary is JSON-friendly and carries the headline numbers
    s = r.summary()
    assert s["seed"] == 2
    assert s["digest"] == r.digest
    assert s["bit_exact"] is True


def test_different_seed_changes_the_schedule(campaign):
    other = run_chaos_campaign(seed=3, n_images=6)
    assert other.schedule != campaign.schedule
    assert other.digest != campaign.digest


def _capture_trace(monkeypatch, tamper=None):
    """Wrap the campaign's ``collect_trace`` to keep the buffer it
    returns, optionally appending a row first."""
    import repro.faults.campaign as campaign_mod

    captured = []
    collect = campaign_mod.collect_trace

    def spy(rt):
        buffer = collect(rt)
        if tamper is not None:
            buffer._rows.append(tamper)
            buffer._columns = None
        captured.append(buffer)
        return buffer

    monkeypatch.setattr(campaign_mod, "collect_trace", spy)
    return captured


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_trace_event_counts_match_an_events_recount(monkeypatch, seed):
    captured = _capture_trace(monkeypatch)
    r = run_chaos_campaign(seed=seed, n_images=4)
    (buffer,) = captured
    events = buffer.events()
    assert r.fault_trace_events == sum(e.category == "fault" for e in events) > 0
    assert r.contract_trace_events == sum(e.category == "contract" for e in events)


@pytest.mark.parametrize(
    "row, message",
    [
        ((10, 10**9, "Fetch", "fault", "crash", "X", {}), "unknown phase 'X'"),
        ((-5, 10**9, "Fetch", "fault", "crash", "I", {}), "negative timestamp -5"),
    ],
    ids=["unknown-phase", "negative-timestamp"],
)
def test_invalid_trace_rows_still_fail_the_campaign(monkeypatch, row, message):
    _capture_trace(monkeypatch, tamper=row)
    with pytest.raises(ValueError, match=message):
        run_chaos_campaign(seed=1, n_images=4)


@pytest.mark.parametrize("shards", [0, -3])
def test_invalid_shard_count_is_refused_before_any_run(monkeypatch, shards):
    import repro.faults.campaign as campaign
    from repro.runtime import RuntimeError_

    def no_reference(*_args, **_kwargs):
        raise AssertionError("the fault-free reference ran")

    monkeypatch.setattr(campaign, "reference_oracle", no_reference)
    with pytest.raises(RuntimeError_, match=f"shards={shards}"):
        run_chaos_campaign(seed=1, n_images=4, shards=shards)
