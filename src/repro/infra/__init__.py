"""The simulated TeraGrid substrate.

Everything the measurement system (:mod:`repro.core`) observes is produced
here: resource-provider sites with batch-scheduled clusters, allocations and
service-unit charging, a central accounting database, a wide-area network,
science gateways, submission interfaces, an information service, a
metascheduler, a co-allocator for tightly-coupled multi-site runs, and a DAG
workflow engine.
"""

from repro.infra.units import (
    HOUR,
    DAY,
    WEEK,
    MINUTE,
    core_hours,
    nu_charge,
)
from repro.infra.job import Job, JobState, SubmissionInterface
from repro.infra.cluster import Cluster
from repro.infra.allocations import Allocation, AllocationLedger, AllocationType
from repro.infra.accounting import CentralAccountingDB, UsageRecord
from repro.infra.amie import (
    AmieIngestEndpoint,
    AmiePacket,
    FaultyTransport,
    IngestRecoveryPolicy,
    PacketFaultRegime,
    QuarantinedPacket,
    ReconciliationReport,
    ResilientAmieFeed,
)
from repro.infra.site import ResourceProvider, SiteDownError
from repro.infra.network import Network, NetworkLink, Transfer
from repro.infra.submission import LoginSubmitter, GramSubmitter
from repro.infra.gateway import ScienceGateway
from repro.infra.infoservice import InformationService
from repro.infra.metascheduler import (
    Metascheduler,
    NoEligibleSiteError,
    SelectionStrategy,
)
from repro.infra.workflow import TaskGraph, WorkflowEngine
from repro.infra.coalloc import CoAllocator
from repro.infra.faults import NodeFailureInjector
from repro.infra.resilience import (
    OutageEvent,
    OutagePolicy,
    SiteOutageInjector,
    saved_progress,
)
from repro.infra.pilot import Pilot, PilotManager, PilotTask
from repro.infra.queues import QueueSet, QueueSpec, default_queues

__all__ = [
    "Allocation",
    "AllocationLedger",
    "AllocationType",
    "AmieIngestEndpoint",
    "AmiePacket",
    "CentralAccountingDB",
    "FaultyTransport",
    "IngestRecoveryPolicy",
    "PacketFaultRegime",
    "QuarantinedPacket",
    "ReconciliationReport",
    "ResilientAmieFeed",
    "Cluster",
    "CoAllocator",
    "DAY",
    "GramSubmitter",
    "HOUR",
    "InformationService",
    "Job",
    "JobState",
    "LoginSubmitter",
    "Metascheduler",
    "MINUTE",
    "Network",
    "NetworkLink",
    "NodeFailureInjector",
    "NoEligibleSiteError",
    "OutageEvent",
    "OutagePolicy",
    "Pilot",
    "PilotManager",
    "PilotTask",
    "QueueSet",
    "QueueSpec",
    "ResourceProvider",
    "default_queues",
    "ScienceGateway",
    "SelectionStrategy",
    "SiteDownError",
    "SiteOutageInjector",
    "SubmissionInterface",
    "TaskGraph",
    "Transfer",
    "UsageRecord",
    "WEEK",
    "WorkflowEngine",
    "core_hours",
    "nu_charge",
    "saved_progress",
]
