"""repro — event-driven reproduction of *Cyberinfrastructure Usage
Modalities on the TeraGrid* (2011).

Subpackages
-----------
``repro.sim``
    Discrete-event simulation kernel (processes, events, resources, RNG
    streams, workload distributions).
``repro.infra``
    The federated-grid substrate: sites, schedulers, accounting,
    allocations, network, storage, gateways, information service,
    metascheduler, workflows, co-allocation.
``repro.users``
    The synthetic community: fields, modality profiles, population builder
    and per-modality behaviour processes (the ground truth).
``repro.core``
    The paper's contribution: the modality taxonomy and the measurement
    system (classifiers, metrics, time series, survey, evaluation, reports).
``repro.workloads``
    Federation presets, the end-to-end scenario runner and SWF trace I/O.
``repro.experiments``
    One registered runner per table/figure (T1–T8, F1–F9) and per
    ablation (A1–A5, R1).

Quick start::

    from repro.workloads import run_scenario
    from repro.core import AttributeClassifier, compute_metrics

    result = run_scenario(days=14, seed=42)
    classification = AttributeClassifier().classify(result.records)
    metrics = compute_metrics(result.records, classification)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
