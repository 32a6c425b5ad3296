import math

import numpy as np
import pytest

from hmin.report import check_leq, worst_abs


def test_worst_abs_of_no_samples_is_nan_and_fails():
    for values in ([], (v for v in ()), np.empty(0)):
        worst = worst_abs(values)
        assert math.isnan(worst)
        assert not check_leq("c", worst, 1.0).passed


def test_worst_abs_is_the_largest_magnitude():
    assert worst_abs([0.5, -2.0, 1.0]) == 2.0


@pytest.mark.parametrize("values", [[math.nan, 1.0, 2.0],
                                    [1.0, math.nan, 2.0],
                                    [1.0, 2.0, math.nan]])
def test_worst_abs_nan_anywhere_is_nan_and_fails(values):
    worst = worst_abs(iter(values))
    assert math.isnan(worst)
    assert not check_leq("c", worst, 1.0).passed


def test_worst_abs_inf_is_inf():
    assert worst_abs([1.0, -math.inf]) == math.inf
