"""Arithmetic of the FlashSim host-speed benchmark.

Pure functions with no I/O, shared by run.py and the self-tests:
medians and quartiles, signature comparison and failure counting, and
the per-layer share estimates.
"""

import statistics


def median(values):
    """Median of a non-empty sequence of numbers."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them.

    A single value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def host_factor(cal_before, cal_after, nominal):
    """Scale from measured host seconds to calibrated seconds.

    cal_before and cal_after time one fixed kernel right before and
    right after a run; nominal is what that kernel takes on the
    calibrated host. A host running slow by some factor slows the
    kernel too, and the scale removes it.
    """
    mean = (cal_before + cal_after) / 2
    if mean <= 0:
        raise ValueError("calibration time must be positive")
    return nominal / mean


def signature_diff(reference, signature):
    """Names of the signature fields that differ from the reference.

    A field missing on either side counts as different.
    """
    keys = set(reference) | set(signature)
    return sorted(k for k in keys if reference.get(k) != signature.get(k))


def count_failures(reference, outcomes):
    """(attempted, failed) over run outcomes.

    Each outcome is the signature dict of one run, or None for a run
    that aborted. A run fails when it aborted or its signature differs
    from the reference; with no reference (None) every run fails.
    """
    attempted = len(outcomes)
    failed = sum(
        1 for sig in outcomes
        if sig is None or reference is None or signature_diff(reference, sig))
    return attempted, failed


def mismatch_frac(attempted, failed):
    """Share of attempted runs that failed."""
    if attempted < 1:
        raise ValueError("no runs attempted")
    return failed / attempted


def est_share(ns_per_op, ops, run_s):
    """Estimated share of a run's host time spent in one layer.

    ns_per_op is the layer's probe cost per operation measured outside
    the run; ops is how many of those operations the run made.
    """
    if run_s <= 0:
        raise ValueError("run time must be positive")
    return ns_per_op * 1e-9 * ops / run_s


def ratio(num, den):
    """num / den, or 0.0 when den is 0 (e.g. no PP invocations)."""
    return num / den if den else 0.0
