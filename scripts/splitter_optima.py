#!/usr/bin/env python3
"""Tabulate optimal splitting angles under every constraint regime.

Runs both performance ratios through the optimizer for each regime at a
chosen loss, and prints where the optimum sits (interior maximum,
boundary supremum, or unbounded).
"""

import argparse
import math

from uil.optimize import ConstraintRegime, OBJECTIVES, REGIME_KINDS, optimize


def describe(report) -> str:
    if report.unbounded:
        return "unbounded as theta1 -> 0"
    where = (
        f"theta1 = {report.theta1:.6f}, theta2 = {report.theta2:.6f}"
    )
    if report.boundary_supremum:
        return f"boundary supremum {report.value:.6f} ({where})"
    degrees = math.degrees(report.theta1)
    return f"interior maximum {report.value:.6f} at {where} ({degrees:.2f} deg)"


def run(kappa: float) -> None:
    print(f"kappa = {kappa}, working point phi = pi/2")
    for objective in OBJECTIVES:
        for kind in REGIME_KINDS:
            report = optimize(objective, ConstraintRegime(kind, kappa=kappa))
            print(f"  {objective:16s} {kind:16s} {describe(report)}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kappa", type=float, default=0.0)
    run(parser.parse_args().kappa)
