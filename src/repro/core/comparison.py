"""Section 3/4 comparisons, regenerated from the models and live attacks.

The survey compares architectures in prose; here every comparison row is
materialised and, where it is a *security claim*, verified by running the
corresponding attack:

* :func:`architecture_feature_table` (TAB-S3) — feature rows from
  :meth:`features` with the DMA-protection claim verified live by a
  malicious DMA engine;
* :func:`cache_defence_table` (TAB-S41) — cache-side-channel verdicts per
  architecture from actually running Prime+Probe / Flush+Reload /
  Evict+Time against the standard AES enclave;
* :func:`transient_applicability_table` (TAB-S42) — Spectre/Meltdown/
  Foreshadow outcomes across the microarchitectural design space.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.runner import CellSpec, ExperimentRunner

# Each table imports what it runs when it runs (TAB-S3 the eight
# architectures and the DMA attack, TAB-S41 its five hosts and the
# runner, TAB-S42 the transient oracle), so importing this module loads
# no architecture, SoC model or attack.

#: What TAB-S41's cell imports on first use, which a forked pool worker
#: then inherits (see ``runner.engine._import_cell_modules``): the row
#: hosts and their SoC factories, the cache attacks, their batched
#: kernels and the kernels' dispatch imports.
FORK_PRELOAD = ("repro.arch.null", "repro.arch.sgx", "repro.arch.sanctum",
                "repro.arch.trustzone", "repro.arch.sanctuary",
                "repro.cpu.soc", "repro.attacks.cache_sca",
                "repro.attacks.batch", "repro.attacks.timing")


@cache
def _arch_hosts() -> tuple:
    from repro.arch import (
        SGX,
        SMART,
        Sanctuary,
        Sanctum,
        Sancus,
        TrustLite,
        TrustZone,
        TyTAN,
    )
    from repro.cpu.soc import (
        make_embedded_soc,
        make_mobile_soc,
        make_server_soc,
    )
    return (
        (SGX, make_server_soc),
        (Sanctum, make_server_soc),
        (TrustZone, make_mobile_soc),
        (Sanctuary, make_mobile_soc),
        (SMART, make_embedded_soc),
        (Sancus, make_embedded_soc),
        (TrustLite, make_embedded_soc),
        (TyTAN, make_embedded_soc),
    )


def __getattr__(name: str):
    """``ARCH_HOSTS``: (architecture class, SoC factory) in the paper's
    presentation order, imported on first access (PEP 562)."""
    if name != "ARCH_HOSTS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _arch_hosts()


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    """Plain ASCII table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))

    def fmt(cells) -> str:
        return " | ".join(str(c).ljust(w) for c, w in zip(cells, widths))

    sep = "-+-".join("-" * w for w in widths)
    return "\n".join([fmt(headers), sep] + [fmt(row) for row in rows])


# -- TAB-S3 -------------------------------------------------------------------

_SECRET_WORD = 0x5EC2E7C0DE5EC2E7


def _verify_dma_claim(arch) -> str:
    """Aim a malicious DMA engine at the architecture's protected asset."""
    from repro.arch import SMART, Sancus
    from repro.attacks.software import DMAAttack
    if isinstance(arch, (SMART, Sancus)):
        if isinstance(arch, Sancus):
            return "n/a (key never addressable)"
        # SMART's key ROM port is gate-protected even against DMA, but the
        # memory it attests — and the reports it writes — are plain RAM:
        # that is what "DMA attacks not in the threat model" costs.
        target = 0x8000_4000
        arch.soc.memory.write_bytes(target, b"attested app")
        result = DMAAttack(arch, target, expected=b"attested").run()
        return "leaked" if result.success else "blocked"
    try:
        handle = arch.create_enclave("dma-probe-target")
    except Exception:
        return "n/a"
    arch.enter_enclave(handle)
    try:
        arch.enclave_write(handle, 0, _SECRET_WORD)
    finally:
        arch.exit_enclave(handle)
    expected = _SECRET_WORD.to_bytes(8, "little")
    result = DMAAttack(arch, handle.paddr, expected=expected).run()
    if result.success:
        return "leaked plaintext"
    if result.details.get("ciphertext_only"):
        return "ciphertext only"
    return "blocked"


def architecture_feature_table() -> tuple[list[str], list[list[str]]]:
    """TAB-S3: one verified feature row per architecture."""
    headers = ["architecture", "platform", "software TCB", "enclaves",
               "mem. encryption", "cache defence", "DMA protection",
               "DMA verified", "attestation", "new HW"]
    rows: list[list[str]] = []
    for arch_cls, make_soc in _arch_hosts():
        arch = arch_cls(make_soc())
        f = arch.features()
        if f.llc_partitioning:
            cache_defence = "LLC partitioning"
        elif f.cache_exclusion:
            cache_defence = "cache exclusion"
        elif f.flush_on_switch:
            cache_defence = "flush on switch"
        else:
            cache_defence = "none"
        rows.append([
            f.name, f.target_platform.value, f.software_tcb,
            f.enclave_count, "yes" if f.memory_encryption else "no",
            cache_defence, f.dma_protection, _verify_dma_claim(arch),
            f.attestation, "yes" if f.requires_new_hardware else "no"])
    return headers, rows


# -- TAB-S41 --------------------------------------------------------------------

@dataclass
class CacheDefenceRow:
    """Per-architecture cache-side-channel verdicts."""

    architecture: str
    defence: str
    prime_probe: float
    flush_reload: float
    evict_time: float | None = None

    @property
    def protected(self) -> bool:
        scores = [self.prime_probe, self.flush_reload]
        if self.evict_time is not None:
            scores.append(self.evict_time)
        return all(s < 0.5 for s in scores)


#: TAB-S41 rows in presentation order: host architecture ``NAME`` ->
#: its cache defence.
_CACHE_DEFENCES = {
    "none": "none (baseline)",
    "sgx": "none (no LLC defence)",
    "sanctum": "LLC page colouring",
    "trustzone": "none (no LLC defence)",
    "sanctuary": "LLC exclusion + L1 flush",
}


def execute_cache_defence_cell(spec: CellSpec, reference: bool = False
                               ) -> tuple[dict, tuple]:
    """Payload for one TAB-S41 row, and the row's SoC: ``spec.platform``
    names the host architecture, ``spec.seed`` is the table seed.  Each
    attack draws from its own digest-derived stream, so rows are
    independent of each other and of attack ordering within the row.
    The payload carries no ``cell_instret``: the field is fingerprinted,
    so adding it would change every row's fingerprint.  The attacks
    measure on their batched lane unless ``reference`` is set, and grade
    the measurement the same way on either lane.  The kernels model the
    baseline, SGX, TrustZone and Sanctuary victims exactly; Sanctum's
    DMA filter fails their side-effect-free gates, so its Prime+Probe
    measures on the scalar loop.  Flush+Reload on every TEE host stops
    at its first probe, which the host refuses, before any lane choice.
    """
    from repro.arch.null import NullArchitecture
    from repro.arch.sanctuary import Sanctuary
    from repro.arch.sanctum import Sanctum
    from repro.arch.sgx import SGX
    from repro.arch.trustzone import TrustZone
    from repro.attacks.base import AttackerProcess
    from repro.attacks.cache_sca import (
        EvictTimeAttack,
        FlushReloadAttack,
        PrimeProbeAttack,
        _CacheAttackConfig,
    )
    from repro.cpu.soc import make_mobile_soc, make_server_soc
    from repro.crypto.rng import XorShiftRNG
    from repro.runner.engine import CACHE_DEFENCE_CATEGORY
    from repro.runner.seeding import derive_seed

    knobs = dict(spec.knobs)
    hosts = {arch_cls.NAME: (arch_cls, make_soc) for arch_cls, make_soc
             in ((NullArchitecture, make_server_soc),
                 (SGX, make_server_soc), (Sanctum, make_server_soc),
                 (TrustZone, make_mobile_soc), (Sanctuary, make_mobile_soc))}
    arch_cls, make_soc = hosts[spec.platform]
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    config = _CacheAttackConfig(
        samples_per_value=8 if knobs["quick"] else 14,
        plaintext_values=8,
        target_bytes=(0, 5) if knobs["quick"] else (0, 5, 10, 15))
    arch = arch_cls(make_soc())
    victim = arch.deploy_aes_victim(key, core_id=0)

    def score(attack_cls, name: str) -> float:
        rng = XorShiftRNG(derive_seed(spec.seed, arch.NAME, name))
        return attack_cls(victim, AttackerProcess(arch, core_id=1), rng,
                          config, batch=not reference).run().score

    row = CacheDefenceRow(
        architecture=arch.NAME, defence=_CACHE_DEFENCES[arch.NAME],
        prime_probe=score(PrimeProbeAttack, "prime+probe"),
        flush_reload=score(FlushReloadAttack, "flush+reload"),
        evict_time=(score(EvictTimeAttack, "evict+time")
                    if knobs["evict_time"] else None))
    return {"kind": CACHE_DEFENCE_CATEGORY, "row": asdict(row)}, (arch.soc,)


def cache_defence_table(quick: bool = True, include_evict_time: bool = False,
                        seed: int = 0x41,
                        runner: ExperimentRunner | None = None
                        ) -> list[CacheDefenceRow]:
    """TAB-S41: run the cache attacks against each enclave-capable arch.

    Each row is one cell of ``runner`` (default: a private serial,
    uncached :class:`~repro.runner.ExperimentRunner`).
    """
    from repro.runner import (
        CACHE_DEFENCE_CATEGORY,
        CellSpec,
        ExperimentRunner,
    )
    knobs = (("evict_time", int(include_evict_time)), ("quick", int(quick)))
    specs = [CellSpec(seed=seed, platform=name,
                      category=CACHE_DEFENCE_CATEGORY, knobs=knobs)
             for name in _CACHE_DEFENCES]
    runner = runner or ExperimentRunner()
    payloads = runner.run(specs)
    missing = [s.platform for s in specs if s not in payloads]
    if missing:
        raise RuntimeError(
            "TAB-S41 rows failed after retries: " + ", ".join(missing))
    return [CacheDefenceRow(**payloads[s]["row"]) for s in specs]


def render_cache_defence_table(rows: list[CacheDefenceRow]) -> str:
    headers = ["architecture", "defence", "prime+probe", "flush+reload",
               "evict+time", "protected"]
    table = []
    for row in rows:
        et = "-" if row.evict_time is None else f"{row.evict_time:.2f}"
        table.append([row.architecture, row.defence,
                      f"{row.prime_probe:.2f}", f"{row.flush_reload:.2f}",
                      et, "yes" if row.protected else "NO"])
    return render_table(headers, table)


# -- TAB-S42 -----------------------------------------------------------------------

def transient_applicability_table(secret: bytes = b"TRNS",
                                  seed: int = 0x42
                                  ) -> tuple[list[str], list[list[str]]]:
    """TAB-S42: transient attacks across the microarchitectural design space.

    Rows are design points; a cell shows the attack's key-recovery score.
    The paper's qualitative claims appear as the pattern: everything works
    on the commodity speculative design, each mitigation kills exactly its
    attack, and the in-order (embedded) design is immune across the board.
    The design points and scripted-attack runs live in
    :mod:`repro.attacks.transient_oracle`, so the Spectre scanner sweeps
    the same grid.
    """
    from repro.attacks.transient_oracle import (
        ORACLE_ATTACKS,
        TRANSIENT_DESIGN_POINTS,
        scripted_transient_scores,
    )
    headers = ["design point", *ORACLE_ATTACKS]
    rows: list[list[str]] = []
    for label, _ in TRANSIENT_DESIGN_POINTS:
        # Independent digest-derived stream per (design point, attack):
        # adding a design point or attack cannot shift any other cell.
        scores = scripted_transient_scores(label, secret=secret, seed=seed)
        rows.append([label, *(f"{scores[attack]:.2f}"
                              for attack in ORACLE_ATTACKS)])
    return headers, rows
