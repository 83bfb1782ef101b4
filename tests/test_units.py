import pytest

from r2tr.units import ppm_to_hz


@pytest.mark.parametrize("carrier_mhz", [0.0, -100.0])
def test_ppm_to_hz_rejects_a_carrier_that_is_not_positive(carrier_mhz):
    with pytest.raises(ValueError, match="carrier must be positive"):
        ppm_to_hz(20.0, carrier_mhz)
