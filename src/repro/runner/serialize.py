"""JSON-safe (de)serialisation of experiment payloads.

Cell results cross two boundaries — pickling to/from worker processes and
JSON to/from the on-disk cache — so attack outcomes are flattened to a
plain-JSON payload.  ``bytes`` and ``tuple`` values (both common in
``AttackResult.leaked``/``details``) are wrapped in tagged objects so the
round trip is lossless.
"""

from __future__ import annotations

from repro.attacks.result import AttackCategory, AttackResult
from repro.core.platforms import WorkloadResult

_BYTES_TAG = "__bytes__"
_TUPLE_TAG = "__tuple__"


def encode_value(value: object) -> object:
    """Recursively convert ``value`` into JSON-representable types."""
    if isinstance(value, bytes):
        return {_BYTES_TAG: value.hex()}
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def decode_value(value: object) -> object:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        if set(value) == {_BYTES_TAG}:
            return bytes.fromhex(value[_BYTES_TAG])
        if set(value) == {_TUPLE_TAG}:
            return tuple(decode_value(v) for v in value[_TUPLE_TAG])
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def attack_result_to_dict(result: AttackResult) -> dict:
    return {
        "name": result.name,
        "category": result.category.value,
        "success": result.success,
        "score": result.score,
        "leaked": encode_value(result.leaked),
        "details": encode_value(result.details),
    }


def attack_result_from_dict(data: dict) -> AttackResult:
    return AttackResult(
        name=data["name"],
        category=AttackCategory(data["category"]),
        success=data["success"],
        score=data["score"],
        leaked=decode_value(data["leaked"]),
        details=decode_value(data["details"]),
    )


def workload_to_dict(workload: WorkloadResult) -> dict:
    return {
        "cycles": workload.cycles,
        "instructions": workload.instructions,
        "wall_time_us": workload.wall_time_us,
        "energy_pj": workload.energy_pj,
    }


def workload_from_dict(data: dict) -> WorkloadResult:
    return WorkloadResult(
        cycles=data["cycles"],
        instructions=data["instructions"],
        wall_time_us=data["wall_time_us"],
        energy_pj=data["energy_pj"],
    )
