"""Runtime registry: lazy name-based backend resolution."""

import pytest

from repro.errors import ParameterError
from repro.runtime import available_runtimes, build_runtime, register_runtime
from repro.runtime.protocols import Runtime


def test_builtin_names_are_registered():
    names = available_runtimes()
    assert "sim" in names
    assert "asyncio" in names
    assert "realtime" in names


def test_build_sim_runtime_by_name():
    runtime = build_runtime("sim")
    assert runtime.name == "sim"
    assert runtime.supports_faults()
    assert isinstance(runtime, Runtime)


def test_build_asyncio_runtime_by_name_and_alias():
    for name in ("asyncio", "realtime"):
        runtime = build_runtime(name)
        assert runtime.name == "asyncio"
        assert runtime.supports_faults()


def test_default_is_sim():
    assert build_runtime().name == "sim"


def test_unknown_runtime_name_raises():
    with pytest.raises(ParameterError) as excinfo:
        build_runtime("quantum")
    assert "quantum" in str(excinfo.value)
    assert "sim" in str(excinfo.value)  # the error lists what exists


def test_register_runtime_validates_target_shape():
    with pytest.raises(ParameterError):
        register_runtime("broken", "no-colon-here")


def test_register_and_build_custom_runtime():
    register_runtime("sim2", "repro.sim.kernel:SimRuntime")
    try:
        assert build_runtime("sim2").name == "sim"
    finally:
        from repro.runtime import factory

        factory._REGISTRY.pop("sim2", None)


def test_bad_attribute_target_raises():
    register_runtime("ghost", "repro.sim.kernel:NoSuchRuntime")
    try:
        with pytest.raises(ParameterError):
            build_runtime("ghost")
    finally:
        from repro.runtime import factory

        factory._REGISTRY.pop("ghost", None)
