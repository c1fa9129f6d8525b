"""Convergent one-way data migration: library plus deterministic simulator.

A legacy store stays the source of truth while dual writes, a self-healing
validation queue, and four verification triggers drive an independently
modeled target store to consistency under injected faults, up to a
freeze-drain-flip switch-over.
"""

from .domain import (
    CycleError,
    DiscrepancyClass,
    EntityType,
    Key,
    MappingRule,
    Schema,
    SourceRecord,
    TargetRecord,
    TransformError,
    UnknownTypeError,
    VersionStamp,
    compare_records,
    identity_rule,
    map_source,
    merge_rule,
    register_schema,
    split_rule,
)
from .healing import (
    DeadLetter,
    EnqueueResult,
    FixStatus,
    Healer,
    RetryPolicy,
    SelfHealingQueue,
    Trigger,
    ValidationEvent,
)
from .metrics import (
    ConsistencyReport,
    EventLog,
    MetricsRegistry,
    SettlementTracker,
    consistency_rate,
    loop_gauges,
    time_to_converge,
)
from .ramp import Clearance, RampCriteria, RampPlan, SwitchReport, check_clearance
from .scenario import ConfigError, Scenario, load_file, parse, serialize
from .simulation import RunReport, SimResult, run_scenario
from .stores import (
    ChangeEvent,
    ChangeStream,
    Clock,
    FaultProfile,
    LegacyStore,
    PutResult,
    Snapshot,
    StoreUnavailable,
    TargetStore,
)

__version__ = "0.1.0"
