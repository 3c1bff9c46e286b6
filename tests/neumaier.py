"""Builtin ``sum`` as Python 3.12 and later compute it, on any Python.

Since 3.12, ``sum`` adds floats with Neumaier compensation, so
``sum([0.1] * 10)`` is ``1.0`` there and ``0.9999999999999999`` on
3.11. Code whose bits must not depend on the interpreter cannot total
floats with ``sum``. To run the tier-1 suite as 3.12 would, on 3.11::

    PYTHONPATH=src:. python -c "import builtins, sys, pytest; \\
    from tests.neumaier import neumaier_sum; builtins.sum = neumaier_sum; \\
    sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider']))"
"""

import math
import operator


def _compensated(total: float, carry: float, value: float):
    """One Neumaier step: ``(total + value, running compensation)``."""
    moved = total + value
    if abs(total) >= abs(value):
        carry += (total - moved) + value
    else:
        carry += (value - moved) + total
    return moved, carry


def _settled(total: float, carry: float) -> float:
    # Keeps the sign of a negative zero and never turns an infinite or
    # overflowed total into NaN.
    if carry and math.isfinite(carry):
        return total + carry
    return total


def neumaier_sum(iterable, /, start=0):
    """``sum(iterable, start)`` with CPython 3.12's fast paths.

    Exact ints add as ints. Once the running total is an exact float,
    exact floats and ints that fit a C long are added with Neumaier
    compensation. Any other item (a numpy scalar, a list) settles the
    compensation and is added with ``+`` from then on.
    """
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = operator.add(result, item)
            if type(result) is not int:
                break
    if type(result) is float:
        total, carry = result, 0.0
        for item in items:
            if type(item) is float or (
                type(item) in (int, bool) and -(2**63) <= item < 2**63
            ):
                total, carry = _compensated(total, carry, float(item))
                continue
            result = _settled(total, carry) + item
            break
        else:
            return _settled(total, carry)
    for item in items:
        result = result + item
    return result
