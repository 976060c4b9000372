import dataclasses
import math

import numpy as np
import pytest

from uil.params import DOMAINS, InterferometerParams, PerformanceMetrics, check_domain


def test_valid_construction_and_transmission():
    p = InterferometerParams(0.3, 0.4, 1.0, kappa=0.5, eta=0.8, alpha=1 + 2j)
    assert p.alpha == 1 + 2j


def test_alpha_coerced_to_complex():
    p = InterferometerParams(0.1, 0.2, 0.3, alpha=2.0)
    assert isinstance(p.alpha, complex)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"kappa": -0.1}, r"kappa must be finite and >= 0, got -0\.1"),
        ({"kappa": math.inf}, r"kappa must be finite and >= 0, got inf"),
        ({"eta": 0.0}, r"eta must be in \(0, 1\], got 0\.0"),
        ({"eta": 1.2}, r"eta must be in \(0, 1\], got 1\.2"),
        ({"eta": -0.5}, r"eta must be in \(0, 1\], got -0\.5"),
        ({"alpha": complex(math.nan, 0)}, r"alpha_abs must be finite and >= 0, got nan"),
        ({"alpha": complex(1.5e308, 1.5e308)}, r"alpha_abs must be finite and >= 0, got inf"),  # |alpha| overflows
    ],
    ids=[f"kwargs{i}" for i in range(7)],
)
def test_invalid_fields_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        InterferometerParams(0.3, 0.4, 1.0, **kwargs)


@pytest.mark.parametrize("field", ["theta1", "theta2", "phi"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_angles_rejected(field, bad):
    kwargs = {"theta1": 0.1, "theta2": 0.2, "phi": 0.3}
    kwargs[field] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite, got {bad!r}"):
        InterferometerParams(**kwargs)


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_check_domain_passes_valid_values_through_and_names_the_first_bad_one(name):
    values = np.array([0.5, 1.0, math.nan, -1.0])
    valid = values[:2]
    assert check_domain(name, valid) is valid
    assert check_domain(name, 0.5) == 0.5
    with pytest.raises(ValueError, match=f"^{name} must be .*, got nan$"):
        check_domain(name, values)
    with pytest.raises(ValueError, match=f"^{name} must be .*, got nan$"):
        check_domain(name, np.array(math.nan))  # a 0-d array, not an IndexError


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

