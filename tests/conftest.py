import os
from functools import reduce
from pathlib import Path

import pytest

import policymap
from policymap.closure import right_iterate
from policymap.errors import EmptyPathSet, MissingDevicePolicy
from policymap.policy import compose_parallel, compose_serial, serial_identity
from policymap.topology import (
    adjacency_matrix,
    build_model,
    load_topology,
    transitivity_matrix,
)

DATA = Path(__file__).parent / "data"

ALL_TRANSITIVE = {"Z1": True, "Z2": True, "Z3": True, "Z4": True}
Z4_CLOSED = {"Z1": True, "Z2": True, "Z3": True, "Z4": False}

Z1_Z3_ALL_OPEN = "{A12C23, A12D23, B12C23, B12D23, E14F43, E14G43}"
Z1_Z3_LAB_CLOSED = "{A12C23, A12D23, B12C23, B12D23}"


def data_path(name: str) -> Path:
    return DATA / name


def literal_end_to_end(ctx, device_policies, paths):
    """The paper's fold, the reference for every fold under test: parallel
    over paths, in canonical order, of the serial fold along each path."""
    if not paths:
        raise EmptyPathSet("cannot derive a policy over an empty path set")

    def path_value(path):
        if not path.steps:
            return serial_identity(ctx)
        values = []
        for step in path.steps:
            try:
                values.append(device_policies[step])
            except KeyError:
                raise MissingDevicePolicy(
                    f"no policy value for device {step.text()}"
                ) from None
        return reduce(lambda p, q: compose_serial(ctx, p, q), values)

    return reduce(
        lambda p, q: compose_parallel(ctx, p, q),
        (path_value(path) for path in paths.sorted_paths()),
    )


def hash_seed_env(hash_seed: str) -> dict:
    """The environment of a policymap subprocess run under PYTHONHASHSEED hash_seed."""
    src = str(Path(policymap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def diamond_topology():
    return load_topology(DATA / "diamond.graphml")


@pytest.fixture
def diamond_model(diamond_topology):
    return build_model(diamond_topology, dict(ALL_TRANSITIVE))


@pytest.fixture
def diamond_model_z4_closed(diamond_topology):
    return build_model(diamond_topology, dict(Z4_CLOSED))


def closure_of(model):
    return right_iterate(adjacency_matrix(model), transitivity_matrix(model))


@pytest.fixture
def diamond_astar(diamond_model):
    return closure_of(diamond_model)
