"""Unit tests for the application assembly and observer wiring."""

import pytest

from repro.core import Application, Component, ConnectionError_
from repro.core.errors import LifecycleError
from repro.core.interfaces import OBSERVATION_INTERFACE
from repro.core.observer import REPORTS_INTERFACE


def two_component_app():
    app = Application("t")
    app.create("a", requires=["out"])
    app.create("b", provides=["in"])
    app.connect("a", "out", "b", "in")
    return app


def test_create_declares_interfaces_and_placement():
    app = Application("t")
    c = app.create("c", provides=["in"], requires=["out"], cpu=2)
    assert "in" in c.provided and "out" in c.required
    assert c.placement == {"cpu": 2}


def test_duplicate_component_rejected():
    app = Application("t")
    app.create("c")
    with pytest.raises(ConnectionError_, match="duplicate"):
        app.add(Component("c"))


def test_connect_by_name_and_object():
    app = Application("t")
    a = app.create("a", requires=["out"])
    b = app.create("b", provides=["in"])
    app.connect(a, "out", "b", "in")
    assert a.get_required("out").target is b.get_provided("in")


def test_connect_foreign_component_rejected():
    app = Application("t")
    app.create("a", requires=["out"])
    foreign = Component("x")
    foreign.add_provided("in")
    with pytest.raises(ConnectionError_, match="not part of"):
        app.connect("a", "out", foreign, "in")


def test_unknown_component_ref():
    app = Application("t")
    with pytest.raises(ConnectionError_, match="no component"):
        app.connect("ghost", "out", "ghost2", "in")


def test_validate_requires_connections():
    app = Application("t")
    app.create("a", requires=["out"])
    with pytest.raises(ConnectionError_, match="not connected"):
        app.validate()


def test_validate_empty_app_rejected():
    with pytest.raises(ConnectionError_, match="no components"):
        Application("t").validate()


def test_observation_required_is_optional_for_validate():
    app = two_component_app()
    app.validate()  # no observer attached; introspection unconnected is OK


def test_attach_observer_wires_both_directions():
    app = two_component_app()
    obs = app.attach_observer()
    for name in ("a", "b"):
        comp = app.components[name]
        # observer -> component query path
        req = obs.get_required(f"obs_{name}")
        assert req.target is comp.get_provided(OBSERVATION_INTERFACE)
        # component -> observer reply path
        assert comp.get_required(OBSERVATION_INTERFACE).target is obs.get_provided(
            REPORTS_INTERFACE
        )
    assert obs.targets == ["a", "b"]


def test_attach_observer_subset():
    app = two_component_app()
    obs = app.attach_observer(targets=["a"])
    assert obs.targets == ["a"]
    assert not app.components["b"].get_required(OBSERVATION_INTERFACE).connected


def test_second_observer_rejected():
    app = two_component_app()
    app.attach_observer()
    with pytest.raises(ConnectionError_, match="already has an observer"):
        app.attach_observer()


def test_seal_freezes_structure():
    app = two_component_app()
    app.seal()
    with pytest.raises(LifecycleError, match="already deployed"):
        app.create("late")
    assert all(c.state == "DEPLOYED" for c in app.components.values())


def test_functional_components_excludes_observer():
    app = two_component_app()
    app.attach_observer()
    names = [c.name for c in app.functional_components()]
    assert names == ["a", "b"]
