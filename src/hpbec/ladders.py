"""The monotonicity test shared by every verification ladder."""


def is_nonincreasing(values):
    """True when no value exceeds its predecessor by more than roundoff.

    A ladder of residuals or gaps along increasing caps or box sizes must not
    grow; the slack (1e-12 relative, 1e-15 absolute) absorbs the last-digit
    noise of values that have already reached their floor.
    """
    return all(b <= a * (1.0 + 1e-12) + 1e-15 for a, b in zip(values, values[1:]))
