"""Unit tests for components, interfaces and connections."""

import pytest

from repro.core import Component, ComponentState, ConnectionError_
from repro.core.errors import LifecycleError
from repro.core.interfaces import DEFAULT_MAILBOX_BYTES, OBSERVATION_INTERFACE


def test_component_has_default_observation_pair():
    c = Component("c")
    assert OBSERVATION_INTERFACE in c.provided
    assert OBSERVATION_INTERFACE in c.required
    assert c.provided[OBSERVATION_INTERFACE].is_observation
    assert c.required[OBSERVATION_INTERFACE].is_observation


def test_interface_listing_order_matches_figure5():
    """Provided first (observation first), then required."""
    idct = Component("IDCT_1")
    idct.add_provided("_fetchIdct1")
    idct.add_required("idctReorder")
    assert idct.interfaces() == [
        ("introspection", "provided"),
        ("_fetchIdct1", "provided"),
        ("introspection", "required"),
        ("idctReorder", "required"),
    ]


def test_invalid_names_rejected():
    with pytest.raises(ValueError):
        Component("")
    with pytest.raises(ValueError):
        Component("a.b")


def test_duplicate_interface_rejected():
    c = Component("c")
    c.add_provided("in")
    with pytest.raises(ConnectionError_, match="already provides"):
        c.add_provided("in")
    c.add_required("out")
    with pytest.raises(ConnectionError_, match="already requires"):
        c.add_required("out")


def test_connect_sets_pointer():
    a, b = Component("a"), Component("b")
    a.add_required("out")
    b.add_provided("in")
    a.get_required("out").connect(b.get_provided("in"))
    assert a.get_required("out").target is b.get_provided("in")
    assert a.get_required("out").connected


def test_double_connect_rejected():
    a, b, c = Component("a"), Component("b"), Component("c")
    a.add_required("out")
    b.add_provided("in")
    c.add_provided("in")
    a.get_required("out").connect(b.get_provided("in"))
    with pytest.raises(ConnectionError_, match="already connected"):
        a.get_required("out").connect(c.get_provided("in"))


def test_self_connection_rejected():
    a = Component("a")
    a.add_required("out")
    a.add_provided("in")
    with pytest.raises(ConnectionError_, match="same component"):
        a.get_required("out").connect(a.get_provided("in"))


def test_observation_functional_mixing_rejected():
    a, b = Component("a"), Component("b")
    a.add_required("out")
    with pytest.raises(ConnectionError_, match="mix"):
        a.get_required("out").connect(b.get_provided(OBSERVATION_INTERFACE))


def test_multiple_required_share_one_provided():
    """Multi-sender mailbox: 3 IDCTs into one Reorder input."""
    reorder = Component("reorder")
    reorder.add_provided("in")
    for i in range(3):
        idct = Component(f"idct{i}")
        idct.add_required("out")
        idct.get_required("out").connect(reorder.get_provided("in"))


def test_unknown_interface_error_lists_available():
    c = Component("c")
    c.add_provided("in")
    with pytest.raises(ConnectionError_, match="available"):
        c.get_provided("nope")
    with pytest.raises(ConnectionError_, match="available"):
        c.get_required("nope")


def test_interface_bytes_counts_functional_provided_only():
    c = Component("c")
    assert c.interface_bytes() == 0  # observation pair is free
    c.add_provided("in")
    assert c.interface_bytes() == DEFAULT_MAILBOX_BYTES
    c.add_provided("in2")
    assert c.interface_bytes() == 2 * DEFAULT_MAILBOX_BYTES


def test_functional_interface_filters():
    c = Component("c")
    c.add_provided("in")
    c.add_required("out")
    assert [p.name for p in c.functional_provided()] == ["in"]
    assert [r.name for r in c.functional_required()] == ["out"]


def test_add_interface_after_deploy_rejected():
    c = Component("c")
    c.state = ComponentState.DEPLOYED
    with pytest.raises(LifecycleError):
        c.add_provided("late")


def test_behavior_function_style():
    def beh(ctx):
        yield from ctx.compute("x", 1)

    c = Component("c", behavior=beh)
    gen = c.behavior(None)
    assert hasattr(gen, "send")


def test_behavior_missing_raises():
    c = Component("c")
    with pytest.raises(LifecycleError, match="no behaviour"):
        c.behavior(None)


def test_place_chains_and_accumulates():
    c = Component("c").place(cpu=1).place(priority=7)
    assert c.placement == {"cpu": 1, "priority": 7}
