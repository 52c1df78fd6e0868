"""Piecewise floor and the percentile rule, on synthetic inputs."""

import pytest

from floor import highest_percentile, piecewise_floor


def test_floor_takes_the_cheapest_observation_of_each_slice():
    # a disturbance hits a different slice in each repeat: the floor
    # removes all three, a whole-repeat minimum only the smallest
    times = [[1.0, 2.0, 9.0],
             [1.0, 7.0, 3.0],
             [5.0, 2.0, 3.0]]
    events = [[10, 20, 30]] * 3
    assert piecewise_floor(times, events) == 6.0
    assert min(sum(row) for row in times) == 10.0


def test_floor_of_one_repeat_is_its_sum():
    assert piecewise_floor([[0.25, 0.5]], [[1, 2]]) == 0.75


def test_floor_rejects_unequal_slice_counts():
    with pytest.raises(ValueError, match="slices"):
        piecewise_floor([[1.0, 2.0], [1.0]], [[1, 2], [1]])


def test_floor_rejects_unequal_event_deltas():
    with pytest.raises(ValueError, match="different work"):
        piecewise_floor([[1.0, 2.0], [1.0, 2.0]], [[5, 6], [5, 7]])


def test_floor_rejects_mismatched_and_empty_input():
    with pytest.raises(ValueError):
        piecewise_floor([], [])
    with pytest.raises(ValueError):
        piecewise_floor([[1.0]], [[1], [1]])
    with pytest.raises(ValueError):
        piecewise_floor([[]], [[]])


@pytest.mark.parametrize("n, expected", [
    (9, None),       # not even the median has ten samples beyond it
    (20, 50.0),
    (99, 50.0),
    (100, 90.0),
    (999, 90.0),
    (1000, 99.0),    # exactly ten samples beyond p99
    (9999, 99.0),
    (10000, 99.9),
    (100000, 99.99),
])
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_highest_percentile_honours_beyond():
    assert highest_percentile(1000, beyond=11) == 90.0
