import json

import numpy as np
import pytest

from drivenchain.device import (bundled_table_path, consistency_report,
                                load_device_table)
from drivenchain.errors import ConfigError
from drivenchain.units import rad_ns_from_ghz


@pytest.fixture(scope="module")
def table():
    return load_device_table(bundled_table_path())


def test_bundled_couplings(table):
    assert table.couplings_mhz[0] == pytest.approx(11.37)
    assert table.couplings_mhz[-1] == pytest.approx(12.00)
    assert len(table.couplings_mhz) == 11


def test_bundled_coherence_times(table):
    assert table.t1_us[8] == pytest.approx(35.13)   # ninth qubit
    assert table.t2s_us[8] == pytest.approx(1.79)


def test_cosine_row_fourth_site(table):
    # the fourth qubit sits on the profile minimum at 4.300 GHz
    assert table.cosine_ghz[3] == pytest.approx(4.300)
    pot = table.potential_spec("cosine")
    absolute = pot.static_offsets[3] + rad_ns_from_ghz(
        table.rotating_frame_ghz("cosine"))
    assert absolute == pytest.approx(rad_ns_from_ghz(4.300), rel=1e-9)


def test_rotating_frame_and_amplitude(table):
    assert table.rotating_frame_ghz("cosine") == pytest.approx(4.335, abs=1e-3)
    assert table.dc_amplitude_mhz("cosine") == pytest.approx(35.0, abs=0.5)


def test_chain_spec_from_table(table):
    chain = table.chain_spec()
    assert chain.n_sites == 12
    assert chain.bond_couplings[0] == pytest.approx(
        rad_ns_from_ghz(11.37e-3), rel=1e-12)
    # U approximated by the mean anharmonicity (negative)
    assert chain.onsite_nonlinearity < 0


def test_empty_file_is_parse_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(ConfigError):
        load_device_table(path)


def test_missing_field_is_named(tmp_path):
    data = json.loads(bundled_table_path().read_text())
    del data["flat_ghz"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="flat_ghz"):
        load_device_table(path)


def test_wrong_row_length(tmp_path):
    data = json.loads(bundled_table_path().read_text())
    data["t1_us"] = data["t1_us"][:11]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="t1_us"):
        load_device_table(path)


def test_bundled_table_warnings(table):
    warnings = consistency_report(table)
    assert len(warnings) == 2
    text = " ".join(warnings)
    assert "zero-based" in text        # cosine-row index convention
    assert "half" in text              # flat row at half the amplitude


def test_consistent_synthetic_table_no_warnings(tmp_path):
    # a table that follows the one-based formula reading and the full-level
    # flat background raises neither flag
    data = json.loads(bundled_table_path().read_text())
    gbar, amp = 4.335, 0.035
    weights = np.cos(4 * np.pi * np.arange(1, 13) / 12)
    cos_row = [round(gbar + amp * w, 6) for w in weights]
    data["cosine_ghz"] = cos_row
    data["flat_ghz"] = cos_row[:6] + [round(gbar + amp, 6)] * 6
    path = tmp_path / "consistent.json"
    path.write_text(json.dumps(data))
    assert consistency_report(load_device_table(path)) == []
