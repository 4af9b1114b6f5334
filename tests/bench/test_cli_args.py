"""CLI argument handling: unset flags fall back to each target's own
default, explicit values are honoured as given, and single-store targets
refuse a store list instead of silently running its first entry."""

import json

import pytest

from repro.bench.cli import SINGLE_STORE, main


def _doc(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


def test_fillrandom_honours_an_explicit_num_of_240(tmp_path):
    assert main(["fillrandom", "--num", "240", "--json", str(tmp_path)]) == 0
    (row,) = _doc(tmp_path, "fillrandom.json")["results"]
    assert row["ops"] == 240


def test_fillrandom_honours_an_explicit_seed_of_zero(tmp_path):
    assert main(
        ["fillrandom", "--num", "200", "--seed", "0", "--json", str(tmp_path)]
    ) == 0
    assert _doc(tmp_path, "fillrandom.json")["meta"]["seed"] == 0


def test_fillrandom_defaults_to_the_scaled_op_count_and_seed_1234(tmp_path):
    assert main(["fillrandom", "--json", str(tmp_path)]) == 0
    doc = _doc(tmp_path, "fillrandom.json")
    assert doc["meta"]["seed"] == 1234
    assert doc["results"][0]["ops"] == 5000


def test_parallelism_honours_an_explicit_num_of_240(tmp_path):
    assert main(
        ["parallelism", "--num", "240", "--channels", "1", "--threads", "1",
         "--json", str(tmp_path)]
    ) == 0
    (row,) = _doc(tmp_path, "parallelism.json")["results"]
    assert row["ops"] == 240


def test_crash_matrix_keeps_seed_0_and_240_ops(tmp_path):
    assert main(
        ["crash-matrix", "--points", "2", "--modes", "noblsm",
         "--json", str(tmp_path)]
    ) == 0
    (mode,) = _doc(tmp_path, "crash-matrix.json")["modes"]
    assert mode["seed"] == 0
    assert mode["num_ops"] == 240


@pytest.mark.parametrize("target", SINGLE_STORE)
def test_single_store_targets_reject_a_store_list(target, capsys):
    with pytest.raises(SystemExit) as exc:
        main([target, "--stores", "noblsm,leveldb"])
    assert exc.value.code == 2
    assert "runs one store" in capsys.readouterr().err


def test_soak_meta_records_the_effective_rate_and_duration(tmp_path):
    assert main(
        ["soak", "--duration", "0.01", "--json", str(tmp_path)]
    ) == 0
    meta = _doc(tmp_path, "soak.json")["meta"]
    assert meta["arrival_rate"] == 40_000.0
    assert meta["duration_s"] == 0.01


def test_gate_needs_a_name_and_a_directory(capsys):
    with pytest.raises(SystemExit):
        main(["gate", "soak"])
    with pytest.raises(SystemExit):
        main(["gate", "--json", "out"])
