"""Persistence of system descriptions (graph + architecture + mapping) as JSON."""

from .serialization import (
    RequestError,
    SerializationError,
    SystemDescription,
    architecture_from_dict,
    architecture_to_dict,
    load_system,
    read_system_document,
    save_system,
    system_from_dict,
    system_to_dict,
    validate_explore_request,
    validate_schedule_request,
    validate_sweep_request,
)

__all__ = [
    "RequestError",
    "SerializationError",
    "SystemDescription",
    "architecture_from_dict",
    "architecture_to_dict",
    "load_system",
    "read_system_document",
    "save_system",
    "system_from_dict",
    "system_to_dict",
    "validate_explore_request",
    "validate_schedule_request",
    "validate_sweep_request",
]
