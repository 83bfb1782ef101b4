"""Unit conversions, physical constants and the rules for numbers and choices.

Internal convention: all frequencies are angular (rad/s) once inside the
package; Hz and degrees appear only at external boundaries (CLI, file
formats, reporting).

Every number that enters the package, from a library caller or a config,
goes through `number`: a finite real number, not a bool or a string, at or
above its bound. Anything else, an integer past the float range included,
raises a FieldError, a ValueError with a `field` attribute, that starts
`<field> must be finite`. Every flag, spin index, axis or label goes through
`choice`, and every list of them through `choices`: True is not spin 1, nor
is 1.0. This module imports nothing from the package, so every module can use it.
"""

import math
import numbers

import numpy as np

TWO_PI = 2.0 * math.pi

# CODATA values
HBAR = 1.054571817e-34  # J s
MU0_OVER_4PI = 1e-7  # T^2 m^3 / J

# 13C defaults (glycine C-C pair)
GAMMA_C13 = 6.7283e7  # rad s^-1 T^-1
GLYCINE_CC_DISTANCE = 1.53e-10  # m, literature C-C bond length


class FieldError(ValueError):
    """A ValueError about one named input: its `field` attribute names it."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


def number(value, field, minimum=-math.inf, positive=False):
    """value as a float, if it is a finite real number (an int or a float,
    Python's or numpy's, but not a bool, which would pass for 0 or 1) at
    least `minimum`, and above 0 if `positive`; else a ValueError naming
    `field` (a FieldError)."""
    x = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    if math.isfinite(x) and x >= minimum and (x > 0 or not positive):
        return x
    bound = " and > 0" if positive else "" if minimum == -math.inf else f" and >= {minimum:g}"
    raise FieldError(field, f"{field} must be finite, a real number, not a bool{bound}, "
                            f"got {shown(value)}")


def _kind(value):
    """A `choice`'s kind: bool (Python's or numpy's), int (any other integer), str or None."""
    return (bool if isinstance(value, (bool, np.bool_)) else int
            if isinstance(value, numbers.Integral) else str if isinstance(value, str) else None)


def _allowed(value, allowed):
    """Whether value equals one of `allowed` and is of its kind."""
    kind = _kind(value)
    return kind is not None and any(_kind(a) is kind and value == a for a in allowed)


def choice(value, allowed, field):
    """value, if one of `allowed` and of its kind; else a FieldError naming `field`."""
    if not _allowed(value, allowed):
        raise FieldError(field, f"{field} must be one of {tuple(allowed)}, got {shown(value)}")
    return value


def choices(values, allowed, field):
    """values as a tuple, if a list or a tuple of `choice`s; else a FieldError naming `field`."""
    if not (isinstance(values, (list, tuple)) and all(_allowed(v, allowed) for v in values)):
        raise FieldError(field, f"{field} must list values from {tuple(allowed)}, "
                                f"got {shown(values)}")
    return tuple(values)


def shown(value):
    """repr(value), or a note where it holds an integer too long to print."""
    try:
        return repr(value)
    except ValueError:
        return "an integer too long to print"


def hz_to_angular(f):
    """Hz -> rad/s."""
    return TWO_PI * f


def angular_to_hz(w):
    """rad/s -> Hz."""
    return w / TWO_PI


def ppm_to_hz(shift, carrier_mhz):
    """Chemical shift (ppm) at a given carrier (MHz) -> offset in Hz.

    1 ppm of an f MHz carrier is exactly f Hz.
    """
    return shift * number(carrier_mhz, "carrier_mhz", positive=True)


def deg_to_rad(deg):
    return math.radians(deg)


def rad_to_deg(rad):
    return math.degrees(rad)
