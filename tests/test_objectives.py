import tracemalloc

import numpy as np
import pytest

from igokit import (
    CapacityError,
    InvalidInputError,
    OBJECTIVE_NAMES,
    bernoulli_support,
    make_objective,
)
from igokit.oracle import MAX_ENUM_DIM


def test_onemax_optimum():
    obj = make_objective("onemax", 4)
    assert obj([1, 1, 1, 1]) == 0.0
    assert obj([0, 0, 0, 0]) == 4.0


def test_binval_weights():
    obj = make_objective("binval", 3)
    assert obj([0, 1, 0]) == 5.0  # 2^0 + 2^2
    assert obj([1, 1, 1]) == 0.0
    assert obj([0, 0, 0]) == 7.0


def test_leadingones():
    obj = make_objective("leadingones", 5)
    assert obj([1, 1, 0, 1, 1]) == 3.0
    assert obj([0, 1, 1, 1, 1]) == 5.0
    assert obj([1, 1, 1, 1, 1]) == 0.0


def test_sphere():
    obj = make_objective("sphere", 2)
    assert obj([3.0, 4.0]) == 25.0


def test_ellipsoid_scaling():
    obj = make_objective("ellipsoid", 3)
    assert obj([1.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert obj([0.0, 0.0, 1.0]) == pytest.approx(1e6)
    assert make_objective("ellipsoid", 1)([2.0]) == pytest.approx(4.0)


def test_registry_optima_attained():
    for name in OBJECTIVE_NAMES:
        obj = make_objective(name, 4, seed=3)
        if obj.optimizer is None:
            continue
        assert obj(obj.optimizer) == obj.optimum


def test_random_table_reproducible():
    a = make_objective("random-table", 5, seed=11)
    b = make_objective("random-table", 5, seed=11)
    c = make_objective("random-table", 5, seed=12)
    pts = np.array([[0, 1, 0, 1, 1], [1, 1, 1, 1, 1]], dtype=float)
    assert np.array_equal(a.batch(pts), b.batch(pts))
    assert not np.array_equal(a.batch(pts), c.batch(pts))


def test_random_table_capacity():
    with pytest.raises(CapacityError):
        make_objective("random-table", 17)


def test_reward_direction():
    assert make_objective("random-reward", 4).direction == "max"
    assert make_objective("count-reward", 4).direction == "max"
    assert make_objective("onemax", 4).direction == "min"


def test_dimension_mismatch():
    obj = make_objective("onemax", 4)
    with pytest.raises(InvalidInputError):
        obj([1, 0])
    with pytest.raises(InvalidInputError):
        obj.batch(np.zeros((3, 5)))


def test_unknown_name():
    with pytest.raises(InvalidInputError):
        make_objective("nope", 4)


@pytest.mark.parametrize(
    "name", ["onemax", "binval", "leadingones", "random-table", "random-reward", "count-reward"]
)
def test_support_values_are_one_read_only_table(name):
    obj = make_objective(name, 5, seed=3)
    values = obj.support_values
    assert values.tobytes() == obj.batch(bernoulli_support(5)).tobytes()
    assert not values.flags.writeable and values.flags.owndata
    assert obj.support_values is values
    with pytest.raises(ValueError):
        values[0] = 1.0


# binval's (1 - x) @ weights is float64 at the support's size
@pytest.mark.parametrize(
    "name", ["onemax", "leadingones", "random-table", "random-reward", "count-reward"]
)
def test_support_values_write_no_support_sized_temporary(name):
    bernoulli_support(16)
    obj = make_objective(name, 16, seed=3)
    tracemalloc.start()
    try:
        obj.support_values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a quarter of the d = 16 support as float64, as in test_updates
    assert peak < 2**16 * 16 * 8 / 4


def test_support_values_need_a_binary_objective():
    with pytest.raises(InvalidInputError, match="binary"):
        make_objective("sphere", 3).support_values


def test_support_values_need_an_enumerable_dimension():
    with pytest.raises(CapacityError):
        make_objective("onemax", MAX_ENUM_DIM + 1).support_values


# each was evaluated as if it were a point of {0,1}^3, or raised a raw
# IndexError, before binary objectives checked their points
@pytest.mark.parametrize(
    "name, point",
    [
        ("random-table", [0.5, 0, 0]),
        ("random-table", [2, 0, 0]),
        ("onemax", [0.5, 7, 0]),
        ("leadingones", [0.5, 7, 0]),
        ("binval", [0.5, 7, 0]),
    ],
)
def test_a_binary_objective_refuses_a_point_off_the_cube(name, point):
    obj = make_objective(name, 3)
    with pytest.raises(InvalidInputError, match="0/1"):
        obj.batch([point])
    with pytest.raises(InvalidInputError, match="0/1"):
        obj(point)


def test_bool_points_are_evaluated_unscanned(binary_scans):
    obj = make_objective("random-table", 3)
    support = bernoulli_support(3)
    assert obj.batch(support).tobytes() == obj.batch(support.astype(np.float64)).tobytes()
    assert len(binary_scans) == 1 and binary_scans[0].dtype == np.float64
    assert obj(support[5]) == obj.support_values[5]
