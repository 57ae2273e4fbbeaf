"""The usage-modality taxonomy.

A *usage modality* answers "what is this user trying to do, and how?" along
four dimensions: the **objective** (production science, porting, analysis),
the **access path** (login CLI, grid middleware, web gateway), the
**execution shape** (single batch jobs, ensembles/workflows, interactive
sessions, multi-site coupled runs) and the **data pattern**.

The six modalities below are the TeraGrid taxonomy this reproduction
targets, ordered by 2010-era prevalence (user counts; see DESIGN.md §3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Modality", "ModalityDescription", "MODALITY_TAXONOMY"]


class Modality(enum.Enum):
    """The six TeraGrid usage modalities."""

    BATCH = "batch"
    EXPLORATORY = "exploratory"
    GATEWAY = "gateway"
    ENSEMBLE = "ensemble"
    VIZ = "viz"
    COUPLED = "coupled"

    # Members are singletons compared by identity, so the identity hash is
    # exact, and it runs in C: ``Enum.__hash__`` is Python code, and the
    # measurement layer hashes a label per record.  No report depends on the
    # iteration order of a set of modalities.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class ModalityDescription:
    """Human-readable taxonomy entry with its measurable signals."""

    modality: "Modality"
    label: str
    objective: str
    access: str
    execution: str
    signals: tuple[str, ...]


MODALITY_TAXONOMY: dict[Modality, ModalityDescription] = {
    Modality.BATCH: ModalityDescription(
        modality=Modality.BATCH,
        label="Batch computing on a single resource",
        objective="Production simulation runs for a research program",
        access="Login-node CLI or GRAM",
        execution="Independent parallel batch jobs, hours-long, moderate size",
        signals=(
            "steady job cadence",
            "hours-scale runtimes",
            "low failure fraction",
            "no grouping attributes",
        ),
    ),
    Modality.EXPLORATORY: ModalityDescription(
        modality=Modality.EXPLORATORY,
        label="Exploratory and application porting",
        objective="Getting a code working / evaluating a resource",
        access="Login-node CLI",
        execution="Many short small jobs, frequent failures, bursty daytime",
        signals=(
            "minutes-scale median runtime",
            "small core counts",
            "high failure/kill fraction",
        ),
    ),
    Modality.GATEWAY: ModalityDescription(
        modality=Modality.GATEWAY,
        label="Science-gateway access",
        objective="Domain science through a web portal without a grid account",
        access="Science gateway over a community account",
        execution="Very many small short jobs under one community identity",
        signals=(
            "gateway submission-interface attribute",
            "gateway-user attribute (when tagged)",
            "community allocation",
        ),
    ),
    Modality.ENSEMBLE: ModalityDescription(
        modality=Modality.ENSEMBLE,
        label="Workflow, ensemble, and parameter sweep",
        objective="Parameter studies, uncertainty quantification, pipelines",
        access="Workflow engines, pilot jobs, scripted submission",
        execution="Bursts of similar jobs; DAG-structured dependencies",
        signals=(
            "ensemble/workflow grouping attributes",
            "submission bursts of similar jobs",
        ),
    ),
    Modality.VIZ: ModalityDescription(
        modality=Modality.VIZ,
        label="Remote interactive steering and visualization",
        objective="Interactive analysis/steering of running computations",
        access="Interactive queue sessions, viz gateways",
        execution="Few-node sessions needing immediate start; user-attended",
        signals=(
            "interactive attribute / interactive queue",
            "business-hours sessions",
            "cancellations when queues are slow",
        ),
    ),
    Modality.COUPLED: ModalityDescription(
        modality=Modality.COUPLED,
        label="Tightly-coupled distributed computation",
        objective="Single application spanning multiple sites at once",
        access="Co-allocation / advance reservations",
        execution="Rare, very large, synchronized multi-site runs",
        signals=(
            "co-allocation attribute",
            "synchronized starts across resources",
        ),
    ),
}

#: Display order used in every table (prevalence order from DESIGN.md §3).
MODALITY_ORDER: tuple[Modality, ...] = (
    Modality.BATCH,
    Modality.EXPLORATORY,
    Modality.GATEWAY,
    Modality.ENSEMBLE,
    Modality.VIZ,
    Modality.COUPLED,
)
