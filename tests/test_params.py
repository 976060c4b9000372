import dataclasses
import math

import pytest

from uil.params import InterferometerParams, PerformanceMetrics


def test_valid_construction_and_transmission():
    p = InterferometerParams(0.3, 0.4, 1.0, kappa=0.5, eta=0.8, alpha=1 + 2j)
    assert p.transmission == math.exp(-0.5)
    assert p.alpha == 1 + 2j


def test_alpha_coerced_to_complex():
    p = InterferometerParams(0.1, 0.2, 0.3, alpha=2.0)
    assert isinstance(p.alpha, complex)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kappa": -0.1},
        {"kappa": math.inf},
        {"eta": 0.0},
        {"eta": 1.2},
        {"eta": -0.5},
        {"alpha": complex(math.nan, 0)},
        {"alpha": complex(1.5e308, 1.5e308)},  # |alpha| overflows
    ],
)
def test_invalid_fields_rejected(kwargs):
    with pytest.raises(ValueError):
        InterferometerParams(0.3, 0.4, 1.0, **kwargs)


@pytest.mark.parametrize("field", ["theta1", "theta2", "phi"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_angles_rejected(field, bad):
    kwargs = {"theta1": 0.1, "theta2": 0.2, "phi": 0.3}
    kwargs[field] = bad
    with pytest.raises(ValueError):
        InterferometerParams(**kwargs)


def test_metrics_field_order_matches_data_columns():
    names = list(dataclasses.asdict(PerformanceMetrics(0, 0, 0, 0, 0, 0, 0, 0)))
    assert names == [
        "mean_O",
        "std_O",
        "delta_phi",
        "intensity_probe",
        "std_intensity_probe",
        "rho_intensity",
        "rho_fluctuation",
        "visibility",
    ]

