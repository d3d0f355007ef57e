"""Chaos harness: seeded fault injection into the experiment runner itself.

The repo already injects faults into *simulated hardware*
(:mod:`repro.fault` — clock glitches, CLKSCREW).  This module points the
same discipline at the measuring apparatus: it wraps
:func:`~repro.runner.engine.execute_spec` so that selected cells crash
their worker process, hang past the supervisor's timeout, raise, or
return a corrupted payload.  The chaos test suite uses it to prove the
supervised runner's recovery guarantees hold under adversarial execution
conditions, not just on the happy path.

Every injection decision is a pure function of ``(chaos seed, cell
coordinates, attempt)`` via the repo's SHA-256 seed derivation — a chaos
run is exactly as reproducible as a clean one, and a cell that drew a
crash on attempt 0 draws independently on attempt 1, so retries
genuinely exercise recovery rather than deterministically re-failing.

Faults:

``crash``
    ``os._exit(CRASH_EXIT_CODE)`` — the worker dies without unwinding,
    exactly like an OOM kill; the pool surfaces ``BrokenProcessPool``.
``hang``
    sleeps ``hang_s`` (chosen to exceed the runner's per-cell timeout)
    before computing, so the supervisor must detect and replace it.
``raise``
    raises :class:`~repro.errors.ChaosError` from inside the cell.
``corrupt``
    computes the real payload, then tampers with it *without* refreshing
    the integrity digest — detection is the runner's job.

When a cell executes in the parent process (serial mode or serial
fallback) the process-lethal modes are downgraded to ``raise``: chaos
must threaten the harness, never the experimenter's shell.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.errors import ChaosError
from repro.runner.seeding import derive_seed

#: All injectable fault kinds, in draw-index order.
FAULT_MODES = ("crash", "hang", "raise", "corrupt")

#: Exit status of a chaos-crashed worker (visible in pool diagnostics).
CRASH_EXIT_CODE = 86


@dataclass(frozen=True)
class ChaosConfig:
    """Picklable description of a chaos campaign.

    ``rate`` is the per-(cell, attempt) injection probability; ``modes``
    restricts which faults may be drawn; ``hang_s`` is how long a hung
    cell sleeps and should comfortably exceed the runner's timeout.
    """

    rate: float
    seed: int = 0xC4A05
    modes: tuple[str, ...] = FAULT_MODES
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"chaos rate must be in [0, 1], got {self.rate}")
        unknown = set(self.modes) - set(FAULT_MODES)
        if unknown:
            raise ValueError(f"unknown chaos modes: {sorted(unknown)}")
        if not self.modes:
            raise ValueError("chaos needs at least one fault mode")

    def draw(self, spec, attempt: int) -> str | None:
        """The fault for this ``(cell, attempt)``, or ``None``.

        Deterministic: the same config, spec and attempt always draw the
        same fault, and distinct attempts draw independently.
        """
        digest = derive_seed(self.seed, spec.seed, spec.platform,
                             spec.category, attempt, "chaos")
        if (digest % (1 << 32)) / float(1 << 32) >= self.rate:
            return None
        pick = derive_seed(self.seed, spec.seed, spec.platform,
                           spec.category, attempt, "chaos-mode")
        return self.modes[pick % len(self.modes)]


def corrupt_payload(payload: dict) -> dict:
    """Tamper with a computed payload, leaving its stale integrity digest
    in place so a vigilant consumer can (must) notice."""
    payload = dict(payload)
    payload["kind"] = "chaos-corrupted"
    payload.pop("attacks", None)
    payload.pop("workload", None)
    return payload


def chaos_execute_spec(spec, attempt: int, config: ChaosConfig,
                       in_worker: bool = True,
                       collect: bool = False,
                       reference: bool = False) -> dict:
    """:func:`execute_spec` with a chance of drawn sabotage.

    ``in_worker`` gates the process-lethal modes: a crash or hang is only
    realised inside a disposable pool worker; in the parent process both
    downgrade to :class:`ChaosError` so serial runs stay survivable.
    ``collect`` and ``reference`` are forwarded to :func:`execute_spec`
    (telemetry and the lane choice ride along even under chaos —
    observed recovery must stay observable, and both lanes' payloads
    face the same corruption adversary).
    """
    from repro.runner.engine import execute_spec

    mode = config.draw(spec, attempt)
    if mode in ("crash", "hang") and not in_worker:
        mode = "raise"
    if mode == "crash":
        os._exit(CRASH_EXIT_CODE)
    if mode == "hang":
        time.sleep(config.hang_s)
    if mode == "raise":
        raise ChaosError(
            f"injected failure in {spec.platform}/{spec.category} "
            f"(attempt {attempt})")
    payload = execute_spec(spec, collect=collect, reference=reference)
    if mode == "corrupt":
        payload = corrupt_payload(payload)
    return payload
