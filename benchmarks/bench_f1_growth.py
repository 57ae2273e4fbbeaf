"""Bench F1: regenerate the modality-growth-by-quarter figure."""

from repro.core.modalities import Modality


def test_f1_growth(regenerate):
    output = regenerate("F1", days=182.0, gateway_adoption_ramp_days=120.0)
    gateway = output.data[Modality.GATEWAY.value]
    batch = output.data[Modality.BATCH.value]
    assert len(gateway) >= 2
    # Gateway adoption grows quarter over quarter; batch stays flat.
    assert gateway[-1] > gateway[0]
    assert abs(batch[-1] - batch[0]) <= max(2, 0.2 * batch[0])
