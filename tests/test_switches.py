"""The one table of process-wide switches (:mod:`repro.switches`).

Every environment spelling keeps the meaning it had when each owner module
parsed its own variable, the nine public names are the table's bound
methods, and a snapshot carries every switch (the pool initializer's input).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import switches
from repro.switches import BATCHPATH, CACHE, OBS, SWITCHES, Switch

SRC = Path(__file__).resolve().parents[1] / "src"

#: environment spelling (None: unset) -> (state of a default-on switch,
#: state of a default-off switch)
SPELLINGS = {
    None: (True, False),
    "": (True, False),
    "0": (False, False),
    " Off ": (False, False),
    "no": (False, False),
    "FALSE": (False, False),
    "1": (True, True),
    "yes": (True, True),
    " TRUE ": (True, True),
    "on": (True, True),
    "maybe": (True, False),
}


@pytest.fixture(autouse=True)
def restored_switches():
    state = switches.snapshot()
    yield
    switches.restore(state)


def test_the_table():
    assert SWITCHES == (CACHE, BATCHPATH, OBS)
    assert [(s.env, s.default) for s in SWITCHES] == [
        ("REPRO_GEOMETRY_CACHE", True),
        ("REPRO_BATCHPATH", True),
        ("REPRO_OBS", False),
    ]


@pytest.mark.parametrize("spelling", list(SPELLINGS), ids=repr)
@pytest.mark.parametrize("switch", SWITCHES, ids=lambda s: s.env)
def test_env_spellings(switch, spelling, monkeypatch):
    if spelling is None:
        monkeypatch.delenv(switch.env, raising=False)
    else:
        monkeypatch.setenv(switch.env, spelling)
    fresh = Switch(switch.env, default=switch.default)
    expected = SPELLINGS[spelling][0 if switch.default else 1]
    assert fresh.on is expected
    assert fresh.enabled() is expected


@pytest.mark.parametrize("switch", SWITCHES, ids=lambda s: s.env)
def test_configure_and_scoped_disable(switch):
    switch.configure(enabled=True)
    switch.configure(enabled=None)  # None leaves the state unchanged
    assert switch.enabled() is True
    with switch.disabled():
        assert switch.on is False
        with switch.disabled():
            assert switch.on is False
        assert switch.on is False
    assert switch.on is True
    with pytest.raises(RuntimeError), switch.disabled():
        raise RuntimeError("the block fails")
    assert switch.on is True
    switch.configure(enabled=False)
    with switch.disabled():
        assert switch.on is False
    assert switch.on is False


def test_snapshot_and_restore():
    state = switches.snapshot()
    assert state == {s.env: s.on for s in SWITCHES}
    flipped = {env: not on for env, on in state.items()}
    switches.restore(flipped)
    assert switches.snapshot() == flipped
    switches.restore({"REPRO_OBS": state["REPRO_OBS"]})  # names only what it sets
    assert switches.snapshot() == {**flipped, "REPRO_OBS": state["REPRO_OBS"]}


def test_public_names_are_bound_to_the_table():
    import repro.geometry as geometry
    import repro.obs as obs
    from repro.geometry import cache
    from repro.obs import registry
    from repro.sim import batchpath

    bound = {
        CACHE: [(cache, "configure", "cache_enabled", "caching_disabled"),
                (geometry, "configure", "cache_enabled", "caching_disabled")],
        BATCHPATH: [(batchpath, "configure", "batchpath_enabled", "batchpath_disabled")],
        OBS: [(registry, "configure", "obs_enabled", "obs_disabled"),
              (obs, "configure", "obs_enabled", "obs_disabled")],
    }
    for switch, places in bound.items():
        for module, configure, enabled, disabled in places:
            assert getattr(module, configure) == switch.configure
            assert getattr(module, enabled) == switch.enabled
            assert getattr(module, disabled) == switch.disabled


def test_non_default_spellings_at_import():
    """A fresh interpreter reads every variable once, through the public getters."""
    script = (
        "import json\n"
        "from repro.geometry.cache import cache_enabled\n"
        "from repro.obs import obs_enabled\n"
        "from repro.sim.batchpath import batchpath_enabled\n"
        "print(json.dumps([cache_enabled(), batchpath_enabled(), obs_enabled()]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)}
    env.update({
        "REPRO_GEOMETRY_CACHE": " Off ",
        "REPRO_BATCHPATH": "no",
        "REPRO_OBS": " TRUE ",
    })
    run = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [False, False, True]


def test_retired_planning_variable_changes_nothing():
    """``REPRO_PLANNING_VECTOR`` names no switch: planning has one implementation."""
    script = (
        "import json\n"
        "from repro import switches\n"
        "from repro.graphs.hamiltonian import convex_hull_insertion_tour\n"
        "from repro.graphs.improve import improve_tour\n"
        "tour = improve_tour(convex_hull_insertion_tour(\n"
        "    {i: (float(i * i % 11), float(i * 7 % 13)) for i in range(12)}))\n"
        "print(json.dumps([sorted(switches.snapshot()), list(tour.order)]))\n"
    )
    outputs = []
    for spelling in (None, "0"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)}
        env.pop("REPRO_PLANNING_VECTOR", None)
        if spelling is not None:
            env["REPRO_PLANNING_VECTOR"] = spelling
        run = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                             capture_output=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append(json.loads(run.stdout))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == sorted(s.env for s in SWITCHES)
