"""The experiment suite: one module per table/figure of DESIGN.md §4.

Importing the package registers every experiment: the registry maps each
id to its task plan (:class:`repro.experiments.base.TaskPlan`), and
:func:`run_experiment` runs one serially, so benchmarks, examples, the
command line and the parallel runner share one implementation.
"""

from repro.experiments.base import ExperimentOutput, campaign, registry, run_experiment
from repro.experiments import (  # noqa: F401  (registration side effects)
    t1_users,
    t2_usage,
    t3_accuracy,
    t4_sites,
    t5_survey,
    t6_fields,
    t7_gateways,
    t8_access_paths,
    f1_growth,
    f2_jobsize,
    f3_wait_times,
    f4_capability,
    f5_metascheduling,
    f6_attribute_coverage,
    f7_workflows,
    f8_pilots,
    f9_data_movement,
    a1_walltime_accuracy,
    a2_reservation_style,
    a3_checkpointing,
    a4_resilience,
    a5_ingest_robustness,
    r1_replicates,
)

__all__ = [
    "ExperimentOutput",
    "campaign",
    "registry",
    "run_experiment",
]
