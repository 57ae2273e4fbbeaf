"""Tests for time series, the survey model and classifier scoring."""

import numpy as np
import pytest

from repro.core.classifier import AttributeClassifier, Classification
from repro.core.evaluation import score_classification, user_count_errors
from repro.core.modalities import Modality
from repro.core.survey import (
    DEFAULT_RESPONSE_RATES,
    SurveyInstrument,
    SurveyResult,
)
from repro.core.timeseries import quarterly_user_counts
from repro.infra.job import AttributeKeys
from repro.infra.units import DAY, HOUR


# ---------------------------------------------------------------- timeseries


def test_quarterly_user_counts_buckets_by_end_time(make_record):
    bucket = 10 * DAY
    records = [
        make_record(user="early", submit=0.0, elapsed=HOUR, job_id=9000),
        make_record(user="late", submit=15 * DAY, elapsed=HOUR, job_id=9001),
    ]
    series = quarterly_user_counts(records, bucket=bucket)
    assert sorted(series) == [0, 1]
    assert sum(series[0].values()) == 1
    assert sum(series[1].values()) == 1


def test_quarterly_counts_show_growth(make_record):
    bucket = 10 * DAY
    records = []
    # 1 gateway user in bucket 0, 5 in bucket 1.
    for bucket_index, n_users in [(0, 1), (1, 5)]:
        for u in range(n_users):
            records.append(
                make_record(
                    user="gw",
                    submit=bucket_index * bucket + u * HOUR,
                    elapsed=HOUR / 2,
                    attributes={
                        AttributeKeys.SUBMIT_INTERFACE: "gateway",
                        AttributeKeys.GATEWAY_NAME: "portal",
                        AttributeKeys.GATEWAY_USER: f"end{u}",
                    },
                    job_id=9100 + bucket_index * 10 + u,
                )
            )
    series = quarterly_user_counts(records, bucket=bucket)
    assert series[0][Modality.GATEWAY] == 1
    assert series[1][Modality.GATEWAY] == 5


# ------------------------------------------------------------------- survey


def rng():
    return np.random.default_rng(11)


def test_survey_response_rates_bias_participation():
    truth = {f"cli{i}": Modality.COUPLED for i in range(50)}
    truth.update({f"gw{i}": Modality.GATEWAY for i in range(50)})
    survey = SurveyInstrument(rng())
    result = survey.run(truth)
    coupled_responses = sum(1 for u in result.responses if u.startswith("cli"))
    gateway_responses = sum(1 for u in result.responses if u.startswith("gw"))
    assert coupled_responses > gateway_responses


def test_survey_self_report_bias_inflates_batch():
    truth = {f"e{i}": Modality.EXPLORATORY for i in range(400)}
    survey = SurveyInstrument(
        rng(), response_rates={Modality.EXPLORATORY: 1.0}
    )
    result = survey.run(truth)
    counts = result.reported_counts()
    assert counts[Modality.BATCH] > 0  # some self-report as batch
    assert counts[Modality.EXPLORATORY] > counts[Modality.BATCH]


def test_survey_result_shares_sum_to_one():
    truth = {f"u{i}": Modality.BATCH for i in range(100)}
    result = SurveyInstrument(rng()).run(truth)
    shares = result.reported_shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    assert 0.0 < result.response_rate < 1.0


def test_survey_validation():
    with pytest.raises(ValueError):
        SurveyInstrument(rng(), response_rates={Modality.BATCH: 1.5})
    with pytest.raises(ValueError):
        SurveyInstrument(
            rng(), self_report={Modality.BATCH: {Modality.BATCH: 0.5}}
        )


def test_empty_survey():
    result = SurveyInstrument(rng()).run({})
    assert result.response_rate == 0.0
    assert sum(result.reported_shares().values()) == 0.0


# ----------------------------------------------------------------- evaluation


def test_score_classification_perfect(make_record):
    records = [
        make_record(user="u", attributes={AttributeKeys.ENSEMBLE_ID: "e"},
                    job_id=9300 + i, submit=i * 60.0)
        for i in range(4)
    ]
    classification = AttributeClassifier().classify(records)
    truth = {r.job_id: Modality.ENSEMBLE for r in records}
    summary = score_classification(classification, truth)
    assert summary.accuracy == 1.0
    assert summary.precision(Modality.ENSEMBLE) == 1.0
    assert summary.recall(Modality.ENSEMBLE) == 1.0
    assert summary.f1(Modality.ENSEMBLE) == 1.0
    assert summary.f1(Modality.VIZ) == 0.0


def test_score_classification_confusion(make_record):
    records = [
        make_record(user="u", job_id=9400 + i, submit=i * 10 * HOUR,
                    elapsed=4 * HOUR, cores=64)
        for i in range(4)
    ]
    classification = AttributeClassifier().classify(records)  # -> BATCH
    truth = {r.job_id: Modality.ENSEMBLE for r in records}  # truth says no
    summary = score_classification(classification, truth)
    assert summary.accuracy == 0.0
    assert summary.recall(Modality.ENSEMBLE) == 0.0
    assert summary.precision(Modality.BATCH) == 0.0
    assert summary.confusion[Modality.ENSEMBLE][Modality.BATCH] == 4


def test_score_requires_complete_truth(make_record):
    records = [make_record(job_id=9500)]
    classification = AttributeClassifier().classify(records)
    with pytest.raises(ValueError):
        score_classification(classification, {})


def test_user_count_errors():
    measured = {Modality.GATEWAY: 3, Modality.BATCH: 40}
    true = {Modality.GATEWAY: 300, Modality.BATCH: 40}
    errors = user_count_errors(measured, true)
    assert errors[Modality.GATEWAY] == pytest.approx(-0.99)
    assert errors[Modality.BATCH] == 0.0
    assert errors[Modality.VIZ] == 0.0  # absent everywhere


def test_user_count_errors_zero_truth_reports_raw_count():
    errors = user_count_errors({Modality.VIZ: 7}, {})
    assert errors[Modality.VIZ] == 7.0
