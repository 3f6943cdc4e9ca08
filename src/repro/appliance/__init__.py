"""Multi-device appliances: parallelism plans, comm models, clusters."""

from repro.appliance.cluster import (
    GpuAppliance,
    PnmAppliance,
    devices_required,
)
from repro.appliance.continuous import (
    ContinuousBatchScheduler,
    ContinuousBatchStats,
    FailoverEvent,
    TenantClass,
    simulated_step_model,
)
from repro.appliance.pipeline import PipelinePlan
from repro.appliance.scheduler import (
    RejectedRequest,
    RequestScheduler,
    ServiceStats,
    timer_service,
)
from repro.appliance.comm import CxlCommModel, GpuCommModel
from repro.appliance.parallelism import (
    ParallelismPlan,
    feasible_plans,
    params_per_device,
)

__all__ = [
    "ContinuousBatchScheduler",
    "ContinuousBatchStats",
    "FailoverEvent",
    "PipelinePlan",
    "RejectedRequest",
    "RequestScheduler",
    "ServiceStats",
    "TenantClass",
    "simulated_step_model",
    "timer_service",
    "CxlCommModel",
    "GpuAppliance",
    "GpuCommModel",
    "ParallelismPlan",
    "PnmAppliance",
    "devices_required",
    "feasible_plans",
    "params_per_device",
]
