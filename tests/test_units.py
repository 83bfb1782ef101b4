import math

import pytest

from r2tr.units import ppm_to_hz


@pytest.mark.parametrize("carrier_mhz", [
    0.0, -100.0,
    # a NaN carrier gave NaN offsets, and an integer past the float range an
    # OverflowError that named no field
    pytest.param(math.nan, id="nan"),
    pytest.param(10**400, id="huge-int"),
])
def test_ppm_to_hz_rejects_a_carrier_that_is_not_positive(carrier_mhz):
    with pytest.raises(ValueError, match="^carrier_mhz must be finite"):
        ppm_to_hz(20.0, carrier_mhz)
