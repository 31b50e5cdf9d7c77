"""Tests for repro.utils.validation."""

import re

import numpy as np
import pytest

from repro.utils.validation import (
    check_bool,
    check_choice,
    check_finite,
    check_integer,
    check_nonnegative,
    check_positive,
    check_positive_int,
    check_real,
    check_real_dtype,
    check_same_shape,
    check_shape_3d,
    check_velocity_shape,
)


class TestCheckPositive:
    def test_accepts_positive_float(self):
        assert check_positive(2.5, "x") == 2.5

    def test_accepts_integer_value(self):
        assert check_positive(3, "x") == 3.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive(0.0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive(-1.0, "beta")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_positive(float("nan"), "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_positive(float("inf"), "x")


class TestCheckNonnegative:
    @pytest.mark.parametrize("value", [0.0, 0.5, 7])
    def test_accepts_finite_nonnegative(self, value):
        assert check_nonnegative(value, "beta") == float(value)

    @pytest.mark.parametrize("value", [-1e-12, np.nan, np.inf])
    def test_rejects_negative_and_non_finite(self, value):
        with pytest.raises(ValueError, match="beta"):
            check_nonnegative(value, "beta")


class TestSettingTypes:
    """No setting is parsed from text or taken from a bool of another type."""

    @pytest.mark.parametrize("value", [2, 2.5, np.float32(2.5), np.int64(2)])
    def test_real_accepts_python_and_numpy_numbers(self, value):
        assert check_real(value, "beta") == float(value)

    @pytest.mark.parametrize("value", ["0.01", True, np.bool_(False), None, 1j])
    def test_real_rejects_text_bools_and_the_rest(self, value):
        with pytest.raises(TypeError, match="beta must be a real number"):
            check_real(value, "beta")

    @pytest.mark.parametrize("check", [check_positive, check_nonnegative])
    def test_range_checks_check_the_type_first(self, check):
        with pytest.raises(TypeError, match="sigma must be a real number, got str"):
            check("1", "sigma")

    @pytest.mark.parametrize("value", [True, False, np.bool_(True)])
    def test_bool_accepts_python_and_numpy_bools(self, value):
        assert check_bool(value, "verbose") is bool(value)

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_bool_rejects_text_and_numbers(self, value):
        with pytest.raises(TypeError, match="verbose must be a bool"):
            check_bool(value, "verbose")

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
    def test_integer_rejects_floats_bools_and_text(self, value):
        with pytest.raises(TypeError, match="n must be an integer"):
            check_integer(value, "n")


class TestCheckChoice:
    def test_accepts_a_member(self):
        assert check_choice("h1", "regularization", ("h1", "h2")) == "h1"

    def test_rejects_a_non_member_listing_the_choices(self):
        with pytest.raises(ValueError, match=r"regularization must be one of \('h1', 'h2'\)"):
            check_choice("h3", "regularization", ("h1", "h2"))


class TestCheckFinite:
    def test_returns_a_finite_array_unchanged(self):
        a = np.arange(6.0)
        assert check_finite(a, "image") is a

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([np.nan], "image has 1 non-finite value "),
            ([np.inf, -np.inf], "image has 2 non-finite values "),
            ([np.nan, np.inf, np.nan], "image has 3 non-finite values "),
        ],
    )
    def test_names_the_array_and_counts_the_bad_entries(self, bad, message):
        a = np.concatenate([np.ones(4), bad])
        with pytest.raises(ValueError, match=re.escape(message)):
            check_finite(a, "image")


class TestCheckPositiveInt:
    def test_accepts_positive_int(self):
        assert check_positive_int(4, "n") == 4

    def test_accepts_numpy_integer(self):
        assert check_positive_int(np.int64(7), "n") == 7

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "n")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive_int(-3, "n")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(2.0, "n")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "n")


class TestCheckShape3d:
    def test_accepts_tuple(self):
        assert check_shape_3d((4, 6, 8)) == (4, 6, 8)

    def test_accepts_list(self):
        assert check_shape_3d([16, 16, 16]) == (16, 16, 16)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            check_shape_3d((4, 4))

    def test_rejects_too_small_entries(self):
        with pytest.raises(ValueError):
            check_shape_3d((4, 1, 4))


class TestCheckSameShape:
    def test_accepts_matching(self):
        a = np.zeros((3, 4))
        check_same_shape(a, np.ones((3, 4)))

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            check_same_shape(np.zeros((3, 4)), np.zeros((4, 3)))


class TestCheckVelocityShape:
    def test_accepts_correct_shape(self):
        v = np.zeros((3, 4, 5, 6))
        out = check_velocity_shape(v, (4, 5, 6))
        assert out.shape == (3, 4, 5, 6)

    def test_rejects_scalar_field(self):
        with pytest.raises(ValueError):
            check_velocity_shape(np.zeros((4, 5, 6)), (4, 5, 6))

    def test_rejects_wrong_grid(self):
        with pytest.raises(ValueError):
            check_velocity_shape(np.zeros((3, 4, 5, 6)), (4, 5, 7))


class TestCheckRealDtype:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int16, np.uint8])
    def test_accepts_real_floats_and_integers(self, dtype):
        assert check_real_dtype(dtype, "image") == np.dtype(dtype)

    @pytest.mark.parametrize("dtype", [np.complex128, np.bool_, np.str_, object])
    def test_rejects_the_rest_naming_the_array(self, dtype):
        with pytest.raises(TypeError, match="image must hold real floating-point or integer"):
            check_real_dtype(dtype, "image")
