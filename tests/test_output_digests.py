"""The output bytes of a fixed set of runs, against the record in output_digests.json.

A change that alters any stream file, manifest or curve file of these runs
fails here; regenerate the record with `PYTHONPATH=src python
tests/output_digests.py` only when the change means to alter them, and say so.
"""

import math

import pytest

from output_digests import load_records, numpy_key, produce

# fit sums may move in their last bits with the BLAS thread count
FIT_RTOL = 1e-6


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("digests")
    return root, produce(root)


@pytest.fixture(scope="module")
def recorded():
    record = load_records().get(numpy_key())
    if record is None:
        # NumPy does not promise the same Generator streams across versions (NEP 19)
        pytest.skip(f"no output digests are recorded for numpy {numpy_key()}: the runs' bytes are "
                    f"not checked on this version; tests/output_digests.py records them")
    return record


def test_every_run_succeeds(outputs):
    _, got = outputs
    assert got["codes"] and set(got["codes"].values()) == {0}, got["codes"]


def test_text_and_binary_chains_write_the_same_curve(outputs):
    root, _ = outputs
    for seed in root.iterdir():
        for kind in ("tau", "delay"):
            text, binary = (seed / f"{kind}-{fmt}" / "curve.csv" for fmt in ("text", "binary"))
            assert text.read_bytes() == binary.read_bytes(), f"{seed.name} {kind}"


def test_output_bytes_match_the_record(outputs, recorded):
    _, got = outputs
    assert got["codes"] == recorded["codes"]
    changed = sorted(name for name in recorded["digests"] if got["digests"].get(name) != recorded["digests"][name])
    assert not changed, f"{len(changed)} output files changed, first {changed[:5]}"
    assert sorted(got["digests"]) == sorted(recorded["digests"])


def test_fit_values_match_the_record(outputs, recorded):
    _, got = outputs
    assert sorted(got["fits"]) == sorted(recorded["fits"])
    for name, expected in recorded["fits"].items():
        values = got["fits"][name]
        assert values.keys() == expected.keys(), name
        for key, value in expected.items():
            if isinstance(value, float):
                assert math.isclose(values[key], value, rel_tol=FIT_RTOL), f"{name} {key}"
            else:
                assert values[key] == value, f"{name} {key}"
