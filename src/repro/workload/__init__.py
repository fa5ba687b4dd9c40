"""Workload substrate: VMs, arrival process, CPU traces, data volumes.

This package synthesizes the workload the paper drives its evaluation
with (Section V-A):

* VM utilization sampled every 5 seconds for one day and extended to a
  week by adding statistical variance with the same mean
  (:mod:`repro.workload.traces`),
* Poisson arrivals and exponential lifetimes
  (:mod:`repro.workload.arrivals`),
* migration image sizes of 2/4/8 GB with probabilities 60/30/10 %
  (:mod:`repro.workload.vm`),
* pairwise data volumes drawn from a log-normal distribution with a
  10 MB mean and uniform variance in [1, 4]
  (:mod:`repro.workload.datacorr`),
* and versioned, content-hashed *trace packs* that bundle a trace
  source with its data-correlation parameters: the one workload type
  the engine and orchestrator consume (:mod:`repro.workload.packs`).
"""

from repro.workload.arrivals import ArrivalModel, VMPopulation
from repro.workload.datacorr import DataCorrelationProcess, VolumeMatrix
from repro.workload.packs import (
    DataCorrelationParams,
    RecordedTraceSource,
    SyntheticTraceSource,
    TracePack,
    available_packs,
    default_pack,
    get_pack,
    register_pack,
)
from repro.workload.recorded import RecordedTraceLibrary, load_utilization_csv
from repro.workload.traces import ApplicationProfile, TraceLibrary
from repro.workload.vm import AppType, VirtualMachine, sample_image_size_gb

__all__ = [
    "AppType",
    "ApplicationProfile",
    "ArrivalModel",
    "DataCorrelationParams",
    "DataCorrelationProcess",
    "RecordedTraceLibrary",
    "RecordedTraceSource",
    "SyntheticTraceSource",
    "TraceLibrary",
    "TracePack",
    "VMPopulation",
    "VirtualMachine",
    "VolumeMatrix",
    "available_packs",
    "default_pack",
    "get_pack",
    "load_utilization_csv",
    "register_pack",
    "sample_image_size_gb",
]
