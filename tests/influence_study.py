"""Seeded agreement study of the influence-function interval for alpha-hat
against the 1000-resample bootstrap it replaces in ``duplication_decision``
from ``_INFLUENCE_MIN_N`` values on.

Run as a script (pytest does not collect it), from the repository root:

    PYTHONPATH=src python tests/influence_study.py

For each alpha and n it draws ``SAMPLES`` SN(alpha) samples (sample seed
i = 0, 1, ...) and compares each 95% endpoint in skewness space:

* gap_ib = |influence endpoint - bootstrap endpoint (seed i)|;
* gap_bb = |bootstrap endpoint (seed i) - bootstrap endpoint (seed i + 10^4)|.

The influence interval passes at an n when, for every alpha and both
endpoints, median(gap_ib) / median(gap_bb) <= 1.5, and its symmetry-gate
verdict matches the seed-i bootstrap's on every sample. Two independent
bootstraps of one sample differ by twice the resampling variance, an
unbiased influence interval by once, so a ratio near 1/sqrt(2) ~ 0.71 is
what agreement looks like.
"""

from __future__ import annotations

import math
import time

import numpy as np

from gjb.distributions import SkewNormalShape, delta_of_alpha, sample_sn
from gjb.moments import skewness_of_delta
from gjb.testing import _bootstrap_bounds, _influence_bounds, _prepare_sample, empirical_shape

ALPHAS = (0.0, 1.0, 6.0)
SIZES = (10_000, 20_000, 50_000)
SAMPLES = 50
RESAMPLES = 1_000
SECOND_SEED = 10_000  # offset of the second bootstrap's seed
MAX_RATIO = 1.5


def skewness(bounds) -> np.ndarray:
    return np.array([skewness_of_delta(delta_of_alpha(float(a))) for a in bounds])


def symmetric(bounds) -> bool:
    return bounds[0] < 0.5 and bounds[1] > -0.5


def cell(alpha: float, n: int) -> dict:
    gap_ib, gap_bb, gate_agrees = [], [], 0
    for i in range(SAMPLES):
        x = sample_sn(SkewNormalShape(alpha), n, seed=i)
        y = _prepare_sample(x)
        infl = _influence_bounds(y, empirical_shape(x)[1])
        boot = _bootstrap_bounds(y, RESAMPLES, i)
        other = _bootstrap_bounds(y, RESAMPLES, i + SECOND_SEED)
        gap_ib.append(np.abs(skewness(infl) - skewness(boot)))
        gap_bb.append(np.abs(skewness(boot) - skewness(other)))
        gate_agrees += symmetric(infl) == symmetric(boot)
    med_ib = np.median(gap_ib, axis=0)
    med_bb = np.median(gap_bb, axis=0)
    return {"ib": med_ib, "bb": med_bb, "ratio": med_ib / med_bb, "gate": gate_agrees}


def main() -> None:
    print(f"{SAMPLES} SN(alpha) samples per cell, {RESAMPLES} resamples per bootstrap; "
          "gaps are medians in skewness space (low, high endpoint)")
    header = ("n", "alpha", "gap_ib low", "gap_ib high", "gap_bb low", "gap_bb high",
              "ratio low", "ratio high", "gate")
    print("| " + " | ".join(header) + " |")
    print("|" + " --- |" * len(header))
    verdicts = []
    for n in SIZES:
        t0 = time.perf_counter()
        passed = True
        for alpha in ALPHAS:
            r = cell(alpha, n)
            passed &= bool(np.all(r["ratio"] <= MAX_RATIO)) and r["gate"] == SAMPLES
            row = [str(n), f"{alpha:g}", *(f"{v:.5f}" for v in (*r["ib"], *r["bb"])),
                   *(f"{v:.2f}" for v in r["ratio"]), f"{r['gate']}/{SAMPLES}"]
            print("| " + " | ".join(row) + " |", flush=True)
        verdicts.append(f"n = {n}: {'pass' if passed else 'FAIL'} "
                        f"({time.perf_counter() - t0:.0f} s)")
    print("\n".join(verdicts))
    print(f"(a ratio of 1/sqrt(2) = {1 / math.sqrt(2):.2f} is an unbiased interval)")


if __name__ == "__main__":
    main()
