"""Tests of ``save_problem``'s ``compress`` flag.

The classic :func:`load_problem` round trip is covered in ``test_data.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.io import load_problem, save_problem


@pytest.fixture()
def problem_arrays(rng):
    shape = (6, 7, 8)
    reference = rng.standard_normal(shape)
    return reference, rng.standard_normal(shape)


class TestSaveProblemCompressFlag:
    def test_uncompressed_archive_is_larger_and_loads_identically(
        self, tmp_path, problem_arrays
    ):
        reference, template = problem_arrays
        stored = save_problem(tmp_path / "s.npz", reference, template, compress=False)
        deflated = save_problem(tmp_path / "d.npz", reference, template, compress=True)
        assert stored.stat().st_size > deflated.stat().st_size
        for path in (stored, deflated):
            loaded = load_problem(path)
            np.testing.assert_array_equal(loaded["reference"], reference)
            np.testing.assert_array_equal(loaded["template"], template)
