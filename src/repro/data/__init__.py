"""Dataset substrate: synthetic Douban-like EBSN generation, presets,
chronological splitting and persistence."""

from repro.data.io import load_ebsn, save_ebsn
from repro.data.meetup import load_meetup_directory, load_meetup_export
from repro.data.presets import PRESETS, get_preset, make_dataset, preset_names
from repro.data.splits import DatasetSplit, PartnerTriple, chronological_split
from repro.data.synthetic import (
    ArrivalTraceConfig,
    EventArrival,
    SyntheticConfig,
    SyntheticEBSNGenerator,
    SyntheticGroundTruth,
    generate_arrival_trace,
    generate_ebsn,
)

__all__ = [
    "PRESETS",
    "ArrivalTraceConfig",
    "DatasetSplit",
    "EventArrival",
    "PartnerTriple",
    "SyntheticConfig",
    "SyntheticEBSNGenerator",
    "SyntheticGroundTruth",
    "chronological_split",
    "generate_arrival_trace",
    "generate_ebsn",
    "get_preset",
    "load_ebsn",
    "load_meetup_directory",
    "load_meetup_export",
    "make_dataset",
    "preset_names",
    "save_ebsn",
]
