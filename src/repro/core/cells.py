"""Figure 1's cell entry points: one platform's attack suite or workload.

Both follow the runner's cell contract (see
:func:`repro.runner.engine.execute_spec`): a function of ``(spec,
reference)`` that rebuilds the platform's SoC from the
:func:`~repro.cpu.soc.soc_factory_for` registry, seeds itself from the
spec's coordinates, and returns ``(payload, socs)``, where ``socs`` are
the SoCs the cell simulated (the runner meters them when the run is
observed).  ``reference`` selects the retained oracle lane: the scalar
kernel sweep and the scalar attacks.

The runner imports this module only to execute a cell, so rendering
Figure 1 from cached cells never loads the attack suites.
"""

from __future__ import annotations

import repro.core.sweep as sweep
from repro.arch.null import NullArchitecture
from repro.attacks.knobs import MatrixKnobs
from repro.attacks.result import AttackCategory
from repro.attacks.suites import SUITES
from repro.common import PlatformClass
from repro.core.platforms import reference_workload
from repro.cpu.soc import SoC, soc_factory_for
from repro.crypto.rng import XorShiftRNG
from repro.runner.engine import WORKLOAD_CATEGORY, CellSpec
from repro.runner.seeding import derive_cell_seed
from repro.runner.serialize import attack_result_to_dict, workload_to_dict

#: The default lane's kernels, which the attack modules import on first
#: use: a forked pool worker inherits them (see
#: ``runner.engine._import_cell_modules``).
FORK_PRELOAD = ("repro.attacks.batch", "repro.power.batch")


def _instret(soc: SoC) -> int:
    return sum(core.instret for core in soc.cores)


def execute_workload_cell(spec: CellSpec, reference: bool = False
                          ) -> tuple[dict, tuple[SoC, ...]]:
    """One platform's reference workload plus its kernel calibration
    sweep (the lane replay, or the scalar loop when ``reference``)."""
    platform = PlatformClass(spec.platform)
    soc = soc_factory_for(platform)()
    knobs = MatrixKnobs.from_key(spec.knobs)
    summary = sweep.run_kernel_sweep(
        platform, derive_cell_seed(spec.seed, spec.platform, spec.category),
        knobs.sweep_instances, knobs.sweep_iters, reference=reference)
    payload = {"kind": WORKLOAD_CATEGORY,
               "workload": workload_to_dict(reference_workload(soc)),
               "sweep": summary,
               "cell_instret": _instret(soc)}
    return payload, (soc,)


def execute_attack_cell(spec: CellSpec, reference: bool = False
                        ) -> tuple[dict, tuple[SoC, ...]]:
    """One ``(platform, adversary category)`` cell: the category's suite
    against undefended software on the platform's SoC."""
    platform = PlatformClass(spec.platform)
    soc = soc_factory_for(platform)()
    rng = XorShiftRNG(derive_cell_seed(spec.seed, spec.platform,
                                       spec.category))
    results = SUITES[AttackCategory(spec.category)](
        NullArchitecture(soc, platform), rng,
        MatrixKnobs.from_key(spec.knobs), reference=reference)
    payload = {"kind": "attacks",
               "attacks": [attack_result_to_dict(r) for r in results],
               "cell_instret": _instret(soc)}
    return payload, (soc,)
