"""The rotation-peak landscape against a two-peak hand oracle."""

import math

import numpy as np
import pytest

from dynopt.gdbg.instance import make_instance
from dynopt.gdbg.peaks import PeakSet

from conftest import evaluate_one


def two_peaks():
    centers = np.array([[0.0, 0.0], [3.0, 4.0]])
    return PeakSet(centers, np.array([80.0, 60.0]), np.array([2.0, 1.0]))


class TestEvaluate:
    def test_value_at_each_center_is_its_height(self):
        peaks = two_peaks()
        assert evaluate_one(peaks, np.array([0.0, 0.0])) == 80.0
        assert evaluate_one(peaks, np.array([3.0, 4.0])) == 60.0

    def test_hand_value_between_peaks(self):
        # both peaks sit at rms distance sqrt(3.125) from the midpoint;
        # the shorter, narrower peak wins there: 60 / (1 + d) = 21.678...
        peaks = two_peaks()
        value = evaluate_one(peaks, np.array([1.5, 2.0]))
        d = math.sqrt(3.125)
        assert abs(value - 60.0 / (1.0 + d)) < 1e-12
        assert abs(value - 21.67812573081512) < 1e-12

    def test_uses_rms_distance_not_euclidean(self):
        # one peak at the origin, evaluated at distance (3, 4):
        # rms = sqrt(25/2), not 5
        peaks = PeakSet(np.zeros((1, 2)), [50.0], [2.0])
        value = evaluate_one(peaks, np.array([3.0, 4.0]))
        expected = 50.0 / (1.0 + 2.0 * math.sqrt(12.5))
        assert abs(value - expected) < 1e-12

    def test_takes_best_response_over_peaks(self):
        peaks = two_peaks()
        # far from the tall peak, next to the short one
        value = evaluate_one(peaks, np.array([2.9, 3.9]))
        single = PeakSet(np.array([[3.0, 4.0]]), [60.0], [1.0])
        assert value == evaluate_one(single, np.array([2.9, 3.9]))


def one_vector_value(peaks, x):
    """The peak rule for one vector, with numpy's max wrapper.

    This is the formula the landscape used before it took batches, with its
    mean square taken as the einsum coordinate sum over the count; a batch
    must reproduce it bit for bit, or seeded results would move.
    """
    diff = x - peaks.centers
    dist = np.sqrt(np.einsum("...d,...d->...", diff, diff) / diff.shape[1])
    return float(np.max(peaks.heights / (1.0 + peaks.widths * dist)))


class TestBatchMatchesOneVectorRule:
    @pytest.mark.parametrize("function_id", ["F1(10)", "F1(50)"])
    def test_bit_exact_near_and_far_from_the_peaks(self, function_id):
        peaks = make_instance(function_id, "T1", seed=43).problem
        rng = np.random.default_rng(44)
        centers = peaks.centers[rng.integers(0, len(peaks.heights), size=400)]
        scales = 10.0 ** rng.uniform(-6.0, 0.5, size=(400, 1))
        xs = np.clip(centers + scales * rng.standard_normal(centers.shape))
        xs[:3] = peaks.centers[:3]
        assert peaks.evaluate(xs).tolist() == [one_vector_value(peaks, x) for x in xs]
        assert [evaluate_one(peaks, x) for x in xs[:20]] == peaks.evaluate(xs[:20]).tolist()


class TestOptimum:
    def test_optimum_is_tallest_peak(self):
        peaks = two_peaks()
        assert peaks.optimum_value() == 80.0
        assert np.array_equal(peaks.optimum_position(), [0.0, 0.0])

    def test_optimum_follows_height_changes(self):
        peaks = two_peaks()
        peaks.heights[1] = 95.0
        assert peaks.optimum_value() == 95.0
        assert np.array_equal(peaks.optimum_position(), [3.0, 4.0])

    def test_evaluate_never_exceeds_optimum(self):
        peaks = two_peaks()
        rng = np.random.default_rng(59)
        for _ in range(300):
            x = rng.uniform(-5.0, 5.0, size=2)
            assert evaluate_one(peaks, x) <= peaks.optimum_value() + 1e-12


class TestInPlaceChanges:
    def test_seen_by_the_next_evaluation(self):
        peaks = two_peaks()
        peaks.heights[0] = 90.0
        assert evaluate_one(peaks, np.array([0.0, 0.0])) == 90.0
        peaks.widths[1] = 2.0
        assert evaluate_one(peaks, np.array([3.0, 3.0])) == 60.0 / (1.0 + 2.0 * math.sqrt(0.5))


class TestConstruction:
    def test_mismatched_parameter_counts_rejected(self):
        with pytest.raises(ValueError):
            PeakSet(np.zeros((2, 3)), [50.0], [2.0, 2.0])

    def test_flat_centers_rejected(self):
        with pytest.raises(ValueError):
            PeakSet(np.zeros(3), [50.0], [2.0])
