import math

import numpy as np
import pytest

from r2tr import readout
from r2tr.operators import SpinSystem, basis_state
from r2tr.readout import (Spectrum, UnclassifiableStateError, classify_state,
                          fid_to_csv, simulate_fid, stick_spectrum)
from r2tr.units import GAMMA_C13, GLYCINE_CC_DISTANCE, TWO_PI, deg_to_rad


def glycine_system():
    return SpinSystem(gamma=GAMMA_C13, r=GLYCINE_CC_DISTANCE,
                      theta_d=deg_to_rad(64.0), phi=0.0,
                      omega_r=TWO_PI * 7884.0,
                      offsets=(TWO_PI * 2000.0, TWO_PI * 18699.0))


def test_stick_spectrum_basis_states():
    sys = glycine_system()
    sp = stick_spectrum(basis_state("00"), sys)
    assert [round(a) for _, a in sp.peaks] == [1, 1]
    assert [off for off, _ in sp.peaks] == pytest.approx([2000.0, 18699.0])
    sp = stick_spectrum(basis_state("10"), sys)
    assert [round(a) for _, a in sp.peaks] == [-1, 1]
    sp = stick_spectrum(basis_state("11"), sys)
    assert [round(a) for _, a in sp.peaks] == [-1, -1]


def test_stick_spectrum_maximally_mixed():
    sys = glycine_system()
    sp = stick_spectrum(np.eye(4) / 4.0, sys)
    assert all(abs(a) < 1e-12 for _, a in sp.peaks)


def test_classify_round_trip():
    sys = glycine_system()
    for label in ("00", "01", "10", "11"):
        sp = stick_spectrum(basis_state(label), sys)
        assert classify_state(sp) == label


def test_classify_threshold(monkeypatch):
    sp = Spectrum(peaks=((2000.0, 0.05), (18699.0, 1.0)))
    with pytest.raises(UnclassifiableStateError):
        classify_state(sp)
    monkeypatch.setattr(readout, "CLASSIFY_THRESHOLD", 0.01)
    assert classify_state(sp) == "00"


def test_fid_of_ground_state():
    sys = glycine_system()
    dwell = 1e-6
    fid = simulate_fid(basis_state("00"), sys, 2e-4, dwell)
    assert len(fid) == 200
    ts = np.arange(200) * dwell
    expected = 0.5 * (np.exp(1j * sys.offsets[0] * ts)
                      + np.exp(1j * sys.offsets[1] * ts))
    assert np.allclose(fid, expected, atol=1e-9)


def test_fid_requires_positive_dwell():
    with pytest.raises(ValueError):
        simulate_fid(basis_state("00"), glycine_system(), 1e-3, 0.0)


@pytest.mark.parametrize("duration, dwell, field", [
    # a NaN failed to convert to an integer point count, and a negative
    # duration gave numpy's negative dimensions
    pytest.param(math.nan, 1e-5, "duration", id="duration-nan"),
    pytest.param(-1e-3, 1e-5, "duration", id="duration-negative"),
    pytest.param(math.inf, 1e-5, "duration", id="duration-inf"),
    pytest.param("1e-3", 1e-5, "duration", id="duration-string"),
    pytest.param(1e-3, math.nan, "dwell", id="dwell-nan"),
    pytest.param(1e-3, "1e-5", "dwell", id="dwell-string"),
    pytest.param(1e-3, True, "dwell", id="dwell-bool"),
])
def test_fid_rejects_bad_input_naming_the_field(duration, dwell, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        simulate_fid(basis_state("00"), glycine_system(), duration, dwell)


def test_fid_transform_peak_positions_and_signs():
    sys = glycine_system()
    dwell = 1e-5  # 100 kHz bandwidth
    fid = simulate_fid(basis_state("10"), sys, 0.02, dwell)
    # the detected signal is e^{+i w t}, so peaks land at +offset
    freqs = np.fft.fftshift(np.fft.fftfreq(len(fid), d=dwell))
    amps = 2.0 * (np.fft.fftshift(np.fft.fft(fid)) / len(fid)).real
    # the two strongest bins lie within one frequency bin of the offsets
    strongest = np.sort(np.argsort(np.abs(amps))[-2:])
    bin_width = 1.0 / 0.02
    assert np.all(np.abs(freqs[strongest] - np.array([2000.0, 18699.0])) <= bin_width)
    peaks = tuple(zip(freqs[strongest], amps[strongest]))
    assert peaks[0][1] < 0 < peaks[1][1]
    assert classify_state(Spectrum(peaks=peaks)) == "10"


def test_parseval():
    sys = glycine_system()
    dwell = 1e-5
    fid = simulate_fid(basis_state("00"), sys, 0.01, dwell)
    amps = np.fft.fft(fid) / len(fid)
    time_energy = np.sum(np.abs(fid) ** 2) / len(fid)
    freq_energy = np.sum(np.abs(amps) ** 2)
    assert time_energy == pytest.approx(freq_energy, rel=1e-9)


def test_spectrum_csv(tmp_path):
    sp = Spectrum(peaks=((2000.0, 1.0), (18699.0, -1.0)))
    path = tmp_path / "spec.csv"
    sp.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "offset_hz,amplitude"
    assert lines[1] == "2000,1"


def test_fid_csv(tmp_path):
    path = tmp_path / "fid.csv"
    fid_to_csv(np.array([1 + 2j, 3 - 4j]), 1e-5, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s,re,im"
    assert lines[2] == "1e-05,3,-4"


def test_fid_csv_writes_numpy_scalars_as_they_format(tmp_path):
    # the writer formats Python floats; numpy's float64 subclasses float,
    # so zeros of either sign, nan, inf and subnormals read as before
    fid = np.array([0.0, -0.0 - 0.0j, complex(np.nan, -np.inf), 5e-324 - 2e-310j,
                    1 / 3 + 2j / 3, -1e300j])
    path = tmp_path / "fid.csv"
    fid_to_csv(fid, 2.5e-5, path)
    assert path.read_text().splitlines() == ["t_s,re,im"] + [
        f"{k * 2.5e-5:.12g},{v.real:.12g},{v.imag:.12g}" for k, v in enumerate(fid)]
