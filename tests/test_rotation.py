"""Plane rotations: hand-checked action and orthogonality properties."""

import math

import numpy as np
import pytest

from dynopt.gdbg.rotation import givens_matrix, paired_rotation, random_orthogonal

from conftest import FakeRng


class TestGivens:
    def test_quarter_turn_sends_e1_to_e2(self):
        m = givens_matrix(2, 0, 1, math.pi / 2.0)
        rotated = m @ np.array([1.0, 0.0])
        assert abs(rotated[0]) < 1e-12
        assert abs(rotated[1] - 1.0) < 1e-12

    def test_untouched_axes_stay_identity(self):
        m = givens_matrix(5, 1, 3, 0.7)
        for axis in (0, 2, 4):
            e = np.zeros(5)
            e[axis] = 1.0
            assert np.array_equal(m @ e, e)

    def test_zero_angle_is_identity(self):
        assert np.array_equal(givens_matrix(4, 0, 2, 0.0), np.eye(4))

    def test_inverse_is_negative_angle(self):
        m = givens_matrix(3, 0, 2, 0.9)
        back = givens_matrix(3, 0, 2, -0.9)
        assert np.abs(m @ back - np.eye(3)).max() < 1e-12

    def test_same_axis_rejected(self):
        with pytest.raises(ValueError):
            givens_matrix(3, 1, 1, 0.5)


class TestPairedRotation:
    def test_scripted_pairing_matches_givens_product(self):
        angle = 0.8
        rng = FakeRng(permutation=[[0, 1, 2, 3]])
        m = paired_rotation(4, angle, rng)
        expected = givens_matrix(4, 2, 3, angle) @ givens_matrix(4, 0, 1, angle)
        assert np.abs(m - expected).max() < 1e-12

    def test_odd_dimension_leaves_one_axis_fixed(self):
        rng = FakeRng(permutation=[[0, 1, 2]])
        m = paired_rotation(3, math.pi / 2.0, rng)
        e3 = np.array([0.0, 0.0, 1.0])
        assert np.array_equal(m @ e3, e3)

    def test_orthogonal_for_all_dimensions(self):
        rng = np.random.default_rng(41)
        for dim in range(2, 16):
            angle = rng.uniform(-math.pi, math.pi)
            m = paired_rotation(dim, angle, rng)
            assert np.abs(m @ m.T - np.eye(dim)).max() < 1e-9

    def test_preserves_vector_norms(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            dim = int(rng.integers(2, 16))
            m = paired_rotation(dim, rng.uniform(-math.pi, math.pi), rng)
            v = rng.standard_normal(dim)
            assert abs(np.linalg.norm(m @ v) - np.linalg.norm(v)) < 1e-9


def one_matrix_at_a_time(count, dim, rng):
    """The per-matrix build the stacked one replaced: a draw and a QR each."""
    matrices = []
    for _ in range(count):
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
        matrices.append(q * np.sign(np.diag(r)))
    return np.stack(matrices)


class TestRandomOrthogonal:
    def test_orthogonal(self):
        rng = np.random.default_rng(47)
        for dim in range(2, 16):
            stack = random_orthogonal(3, dim, rng)
            assert stack.shape == (3, dim, dim)
            for q in stack:
                assert np.abs(q @ q.T - np.eye(dim)).max() < 1e-9

    def test_determinant_is_unit(self):
        rng = np.random.default_rng(53)
        for q in random_orthogonal(20, 6, rng):
            assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-9

    def test_seeded_determinism(self):
        a = random_orthogonal(2, 8, np.random.default_rng(99))
        b = random_orthogonal(2, 8, np.random.default_rng(99))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim", [5, 10, 15])
    def test_stack_equals_one_matrix_at_a_time(self, dim):
        # bit for bit, and the generator ends in the same state, so the
        # landscape stream after a build or a T7 resize does not move
        for seed in range(40):
            stacked_rng = np.random.default_rng(seed)
            single_rng = np.random.default_rng(seed)
            stacked = random_orthogonal(10, dim, stacked_rng)
            single = one_matrix_at_a_time(10, dim, single_rng)
            assert stacked.tobytes() == single.tobytes()
            assert stacked_rng.bit_generator.state == single_rng.bit_generator.state
