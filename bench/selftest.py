"""Self-test of the reference module: `python3 bench/selftest.py`.

Checks that the closed forms reproduce the paper's headline numbers and
that the comparison used by the benchmark flags a 1e-9 perturbation.
Kept out of the package's test suite on purpose (it is not named
test_*.py and lives outside `tests/`).
"""

from __future__ import annotations

import math
import sys

import numpy as np

import reference


def close(got, want, rtol=1e-12) -> bool:
    return abs(got - want) <= rtol * abs(want)


def main() -> int:
    failures = []

    def expect(label: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    alpha = 2.5
    balanced = reference.closed_forms(math.pi / 4, math.pi / 4, math.pi / 2, 0.0, 1.0, alpha)
    expect("balanced delta_phi = 1/|alpha|", close(float(balanced["delta_phi"]), 1 / alpha))
    expect("balanced rho_intensity = 2/|alpha|", close(float(balanced["rho_intensity"]), 2 / alpha))
    expect("balanced rho_fluctuation = sqrt(2)", close(float(balanced["rho_fluctuation"]), math.sqrt(2)))
    expect("balanced std_O = |alpha|", close(float(balanced["std_O"]), alpha))
    expect("balanced visibility = 1", close(float(balanced["visibility"]), 1.0))

    theta, value = reference.equal_splitter_fluctuation_optimum(0.0, 1.0)
    expect("equal-splitter optimum 8*sqrt(3)/9", close(value, 8 * math.sqrt(3) / 9))
    expect("equal-splitter angle arctan(1/sqrt(2))", abs(theta - math.atan(1 / math.sqrt(2))) < 1e-6)

    limit = reference.closed_forms(0.0, math.pi / 4, math.pi / 2, 0.0, 1.0, alpha)
    expect("theta1 -> 0 supremum rho_fluctuation = 2", float(limit["rho_fluctuation"]) == 2.0)
    expect("theta1 = 0 has no sensitivity", math.isinf(float(limit["delta_phi"])))
    expected = reference.expected_optimum("rho_fluctuation", "fixed_mixer", 0.0, 1.0, alpha)
    expect("fixed-mixer rho_fluctuation supremum 2", expected["value"] == 2.0 and expected["boundary_supremum"])

    product = reference.cramer_rao_products(
        balanced["delta_phi"], math.pi / 4, math.pi / 4, math.pi / 2, 0.0, 1.0, alpha
    )
    expect("Cramer-Rao equality at the balanced point", abs(float(product[0]) - 1.0) < 1e-14)
    rng = np.random.default_rng(0)
    points = [rng.uniform(0.0, math.pi / 2, 1000), rng.uniform(0.0, math.pi / 2, 1000),
              rng.uniform(0.0, 2 * math.pi, 1000), rng.uniform(0.0, 3.0, 1000),
              rng.uniform(0.3, 1.0, 1000), rng.uniform(0.2, 4.0, 1000)]
    random_forms = reference.closed_forms(*points)
    products = reference.cramer_rao_products(random_forms["delta_phi"], *points)
    expect("Cramer-Rao bound on random lossy points", products.min() >= reference.CR_FLOOR)

    want = balanced["rho_fluctuation"]
    expect("exact value passes", not reference.mismatches("rho_fluctuation", want, want))
    expect("1e-9 perturbation is flagged", bool(reference.mismatches("rho_fluctuation", want * (1 + 1e-9), want)))
    mean = random_forms["mean_O"]
    scale = points[5] ** 2
    expect("mean_O 1e-9 shift is flagged", bool(reference.mismatches("mean_O", mean + 1e-9 * scale, mean, scale)))
    expect("inf compared exactly", bool(reference.mismatches("delta_phi", 1e300, math.inf)))
    expect("NaN is flagged", bool(reference.mismatches("std_O", math.nan, 1.0)))

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
