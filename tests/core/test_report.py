"""Tests for table/figure rendering."""

import pytest

from repro.core.modalities import MODALITY_ORDER, MODALITY_TAXONOMY, Modality
from repro.core.report import ascii_table, modality_table, series_block, taxonomy_table


def test_ascii_table_alignment_and_rule():
    table = ascii_table(["name", "value"], [["a", 1], ["longer", 22]], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert lines[1].startswith("name")
    assert set(lines[2]) <= {"-", " "}
    assert len({len(line) for line in lines[1:]}) <= 2  # consistent width


def test_ascii_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        ascii_table(["a", "b"], [["only-one"]])


def test_series_block_format():
    block = series_block("F1", {"gateway": [(0, 1.0), (1, 5.0)]})
    lines = block.splitlines()
    assert lines[0] == "F1"
    assert lines[1] == "# series: gateway"
    assert lines[2].split("\t") == ["0", "1"]


def test_modality_table_has_row_per_modality():
    counts = {m: i for i, m in enumerate(MODALITY_ORDER)}
    table = modality_table({"users": counts}, title="T1")
    lines = table.splitlines()
    assert len(lines) == 3 + len(MODALITY_ORDER)  # title, header, rule, rows
    assert "Science-gateway access" in table


def test_modality_table_blank_for_missing():
    table = modality_table({"users": {Modality.BATCH: 5}})
    assert "5" in table


def test_taxonomy_table_mentions_all_modalities():
    table = taxonomy_table()
    for modality in MODALITY_ORDER:
        assert MODALITY_TAXONOMY[modality].label in table
