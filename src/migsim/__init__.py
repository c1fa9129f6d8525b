"""Convergent one-way data migration: library plus deterministic simulator.

A legacy store stays the source of truth while dual writes, a self-healing
validation queue, and four verification triggers drive an independently
modeled target store to consistency under injected faults, up to a
freeze-drain-flip switch-over.

The package exports what a caller needs to run a scenario and check it:
the scenario codec, the runner and its report, the event log and the
oracle.  Everything else is reached through its module.
"""

from .metrics import EventLog
from .oracle import oracle_verify
from .scenario import ConfigError, Scenario, load_file, parse, serialize
from .simulation import RunReport, run_scenario

__version__ = "0.1.0"
