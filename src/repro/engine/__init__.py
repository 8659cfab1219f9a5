"""Storm-like distributed stream processing engine substrate.

The engine provides everything the paper's evaluation environment (Apache
Storm on a 21-node cluster) contributed to the experiments, re-implemented as a
simulator:

* keyed windowed state, one table per retained interval
  (:mod:`repro.engine.state`); tuples travel as parallel key / value columns,
  there is no per-tuple object,
* the batch-only operator contract, task instances and the topology
  description shared with the process runtime (:mod:`repro.engine.operator`,
  :mod:`repro.engine.topology`: one ``TopologySpec`` is simulated here and
  executed by :mod:`repro.runtime`),
* a fluid per-interval execution model with queueing, backpressure and latency
  (:mod:`repro.engine.executor`, :mod:`repro.engine.backpressure`),
* the pause → migrate → ack → resume migration protocol of Fig. 5
  (:mod:`repro.engine.migration_protocol`),
* the interval-driven simulators used by the experiments
  (:mod:`repro.engine.simulator`) and metric collection
  (:mod:`repro.engine.metrics`),
* the built-in strategy declarations (:mod:`repro.engine.strategies`).
"""

from repro.engine.executor import ExecutorConfig, TaskExecutor
from repro.engine.metrics import IntervalMetrics, MetricsCollector
from repro.engine.migration_protocol import MigrationProtocol, MigrationReport
from repro.engine.operator import OperatorLogic, Task
from repro.engine.simulator import OperatorSimulator, PipelineSimulator, SimulationConfig
from repro.engine.state import KeyedState
from repro.engine.topology import StageSpec, TopologySpec

__all__ = [
    "ExecutorConfig",
    "IntervalMetrics",
    "KeyedState",
    "MetricsCollector",
    "MigrationProtocol",
    "MigrationReport",
    "OperatorLogic",
    "OperatorSimulator",
    "PipelineSimulator",
    "SimulationConfig",
    "StageSpec",
    "Task",
    "TaskExecutor",
    "TopologySpec",
]
