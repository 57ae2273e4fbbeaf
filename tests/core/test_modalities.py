"""Tests for the modality taxonomy."""

from repro.core.modalities import (
    MODALITY_ORDER,
    MODALITY_TAXONOMY,
    Modality,
)


def test_all_modalities_have_taxonomy_entries():
    assert set(MODALITY_TAXONOMY) == set(Modality)


def test_order_covers_all_modalities_once():
    assert sorted(m.value for m in MODALITY_ORDER) == sorted(
        m.value for m in Modality
    )
    assert len(MODALITY_ORDER) == len(set(MODALITY_ORDER))


def test_order_starts_with_batch_ends_with_coupled():
    assert MODALITY_ORDER[0] is Modality.BATCH
    assert MODALITY_ORDER[-1] is Modality.COUPLED


def test_labels_are_nonempty_and_distinct():
    labels = [MODALITY_TAXONOMY[m].label for m in Modality]
    assert all(labels)
    assert len(set(labels)) == len(labels)


def test_every_entry_lists_signals():
    for description in MODALITY_TAXONOMY.values():
        assert description.signals
        assert description.objective
        assert description.access
