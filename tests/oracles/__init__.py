"""Reference implementations the parity tests diff ``src/`` against."""


def left_fold(values) -> float:
    """``0.0 + x0 + x1 + ...``, one addition at a time.

    The float total builtin ``sum`` gave before Python 3.12; since then
    it compensates rounding error (Neumaier) and returns other bits.
    """
    total = 0.0
    for value in values:
        total += value
    return total
