import math

import numpy as np
import pytest

from r2tr.units import FieldError, choice, choices, ppm_to_hz


@pytest.mark.parametrize("carrier_mhz", [
    0.0, -100.0,
    # a NaN carrier gave NaN offsets, and an integer past the float range an
    # OverflowError that named no field
    pytest.param(math.nan, id="nan"),
    pytest.param(10**400, id="huge-int"),
])
def test_ppm_to_hz_rejects_a_carrier_that_is_not_positive(carrier_mhz):
    with pytest.raises(ValueError, match="^carrier_mhz must be finite") as exc:
        ppm_to_hz(20.0, carrier_mhz)
    assert exc.value.field == "carrier_mhz"


@pytest.mark.parametrize("value, allowed, taken", [
    (True, (True, False), True),
    (np.False_, (True, False), True),
    (1, (True, False), False),  # an integer is not a flag
    (1, (0, 1), True),
    (np.int64(1), (0, 1), True),
    (True, (0, 1), False),  # nor a flag a spin index
    (1.0, (0, 1), False),  # nor a float
    (2, (0, 1), False),
    ("x", ("x", "y", "z"), True),
    (b"x", ("x", "y", "z"), False),
    (["x"], ("x", "y", "z"), False),
    (None, ("00", "01"), False),
])
def test_choice_takes_a_value_of_an_allowed_kind_only(value, allowed, taken):
    if taken:
        assert choice(value, allowed, "field") is value
    else:
        with pytest.raises(FieldError, match="^field must be one of") as exc:
            choice(value, allowed, "field")
        assert exc.value.field == "field"


@pytest.mark.parametrize("values, taken", [
    ([0, 1], True),
    ((1,), True),
    ([], True),
    ([0, 2], False),
    ([True], False),
    (np.array([0, 1]), False),  # only a list or a tuple
    ("01", False),
    (0, False),
])
def test_choices_takes_a_list_or_tuple_of_choices(values, taken):
    if taken:
        assert choices(values, (0, 1), "spins") == tuple(values)
    else:
        with pytest.raises(FieldError, match="^spins must list") as exc:
            choices(values, (0, 1), "spins")
        assert exc.value.field == "spins"
