"""Software cache side-channel attacks (Section 4.1).

All three classic attacks against the shared T-table AES victim:

* :class:`PrimeProbeAttack` — the attacker owns no victim memory; it fills
  the LLC sets backing one T-table with its own lines, lets the victim
  encrypt, and measures which of its lines were displaced.
* :class:`FlushReloadAttack` — requires attacker-addressable (shared)
  victim table lines; flush, let the victim run, reload and time.
* :class:`EvictTimeAttack` — evict one table line, time the *victim's
  whole encryption*; a guaranteed first-round miss on the target line
  shows up as elevated latency.

Key recovery follows Osvik/Shamir/Tromer's first-round analysis [34]: the
round-1 lookup for state byte ``b`` indexes table ``t`` at
``pt[b] ^ k[b]``, so the touched 16-entry table *line* reveals the high
nibble ``(pt[b] ^ k[b]) >> 4``.  Later rounds touch lines near-uniformly
(the classic noise floor: a non-target line stays cold with probability
``(15/16)^35 ≈ 0.10``), so each attacked byte is scored statistically
across plaintexts.

The attacks receive the victim's table base address as *profiled
knowledge* (real attackers recover it with an alignment/profiling phase);
whether the channel exists at all is decided entirely by the architecture
underneath, which is the property the experiments measure.

Each attack measures, then grades.  ``run()`` takes the measurement of
the bit-identical batched kernel in :mod:`repro.attacks.batch` by
default, or of the scalar loop ``_measure()`` (the reference oracle)
when the kernel declines or ``batch=False``; it then grades the
recovered nibbles and builds the :class:`AttackResult`, the same way on
either lane.  Flush+Reload's precondition probe runs in ``run()``,
before any lane choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.obs as obs
from repro.arch.base import AES_TABLE_STRIDE, AESVictim
from repro.attacks.base import (
    AttackCategory,
    AttackResult,
    AttackerProcess,
    measure,
)
from repro.crypto.aes import TTABLE_LOOKUP_BYTE, TTableAES
from repro.crypto.rng import XorShiftRNG

#: state byte -> round-1 T-table index for that byte.
BYTE_TO_TABLE = {TTABLE_LOOKUP_BYTE[j]: j % 4 for j in range(16)}

LINE_SIZE = 64
LINES_PER_TABLE = AES_TABLE_STRIDE // LINE_SIZE  # 16


def _grade(recovered: dict[int, int], key: bytes) -> float:
    """Fraction of recovered high nibbles that match the true key."""
    if not recovered:
        return 0.0
    correct = sum(1 for b, nib in recovered.items()
                  if nib == key[b] >> 4)
    return correct / len(recovered)


def _verdict(attack, recovered: dict[int, int], every_byte: bool,
             leaked: object = None, **details) -> AttackResult:
    """Grade a cache attack's ``recovered`` nibbles: success is a score
    of at least 0.75, and with ``every_byte`` also a nibble for every
    target byte."""
    score = _grade(recovered, attack.victim.key)
    return AttackResult(
        name=attack.NAME, category=AttackCategory.MICROARCHITECTURAL,
        success=score >= 0.75 and (
            not every_byte
            or len(recovered) == len(attack.config.target_bytes)),
        score=score, leaked=leaked,
        details={"recovered": recovered, **details})


def _alloc_eviction_pages(attacker: AttackerProcess) -> int:
    """Give ``attacker`` the pages its eviction sets draw from; return
    the LLC's ways, the lines each set needs."""
    llc = attacker.soc.hierarchy.l2
    # Enough pages that every LLC set is coverable with `ways` lines
    # *if the OS hands out uncoloured frames*; under Sanctum's
    # allocator the enclave-coloured sets stay unreachable no matter
    # how many pages we ask for.
    pages_needed = max(llc.ways * llc.num_sets * llc.line_size // 4096, 32)
    attacker.alloc_pages(min(pages_needed, 1024))
    return llc.ways


def _eviction_sets(attack, table: int) -> list[list[int]]:
    """Attacker line addresses per line of ``table`` (a set shorter than
    ``attack._ways`` is unreachable: defended)."""
    llc = attack.attacker.soc.hierarchy.l2
    base = attack.victim.table_paddr + table * AES_TABLE_STRIDE
    return [attack.attacker.eviction_addresses_for_set(
                llc.set_index(base + line * LINE_SIZE), attack._ways)
            for line in range(LINES_PER_TABLE)]


def _plaintext_nibbles(config: "_CacheAttackConfig") -> list[int]:
    """The high-nibble values of ``pt[b]`` an attack samples."""
    return list(range(0, 16, max(16 // config.plaintext_values, 1)))


def _best_nibble(values: np.ndarray, counts: np.ndarray) -> int:
    """Score nibble candidates from per-plaintext-value line activity.

    ``counts[i, line]`` counts observed victim touches of table line
    ``line`` when ``pt[b]`` had high nibble ``values[i]``.  The correct
    candidate ``k`` maximises activity on line ``v ^ k`` across all
    ``v``; one fancy-indexed gather scores every candidate against every
    value at once instead of 256 dict walks.
    """
    values = np.asarray(values, dtype=np.int64)
    gathered = counts[np.arange(len(values))[:, np.newaxis],
                      values[:, np.newaxis] ^ np.arange(16)]
    # The true line is touched on *every* encryption (the round-1
    # lookup is unconditional), so the worst single-value count is a
    # far sharper discriminator than the sum; the sum breaks ties.
    # Counts are integer-valued floats, so both reductions are exact.
    mins = gathered.min(axis=0)
    sums = gathered.sum(axis=0)
    return max(range(16), key=lambda c: (mins[c], sums[c]))


@dataclass
class _CacheAttackConfig:
    """Shared tuning knobs."""

    samples_per_value: int = 12
    plaintext_values: int = 8  # how many high-nibble values of pt[b] to try
    target_bytes: tuple[int, ...] = (0, 5, 10, 15)  # one byte per table


class _CacheAttack:
    """The three attacks' constructor: victim, attacker, RNG (seeded with
    the class's ``SEED`` by default), tuning knobs and lane.  An attack
    that ``EVICTS`` also gets its eviction sets' pages."""

    NAME: str
    SEED: int
    EVICTS = True

    def __init__(self, victim: AESVictim, attacker: AttackerProcess,
                 rng: XorShiftRNG | None = None,
                 config: _CacheAttackConfig | None = None,
                 batch: bool = True) -> None:
        self.victim = victim
        self.attacker = attacker
        self.rng = rng or XorShiftRNG(self.SEED)
        self.config = config or _CacheAttackConfig()
        self.batch = bool(batch)
        if self.EVICTS:
            self._ways = _alloc_eviction_pages(attacker)


class PrimeProbeAttack(_CacheAttack):
    """Prime+Probe against an enclave-hosted AES service."""

    NAME = "prime+probe"
    SEED = 0x9927

    def run(self) -> AttackResult:
        recovered, coverage = measure(self)
        return _verdict(
            self, recovered, every_byte=True,
            leaked={b: f"high nibble {n:#x}" for b, n in recovered.items()},
            set_coverage=coverage,
            bytes_attacked=list(self.config.target_bytes))

    def _measure(self) -> tuple[dict[int, int], float]:
        cfg = self.config
        span = obs.span  # hoisted: shared-nullcontext lookup, once
        recovered: dict[int, int] = {}
        coverage = 0.0
        for target_byte in cfg.target_bytes:
            with span("prime+probe:byte", cat="attack",
                      byte=target_byte):
                table = BYTE_TO_TABLE[target_byte]
                eviction = _eviction_sets(self, table)
                covered = sum(1 for addrs in eviction
                              if len(addrs) >= self._ways)
                coverage = max(coverage, covered / LINES_PER_TABLE)
                if covered < LINES_PER_TABLE:
                    obs.event("prime+probe.blocked", cat="attack",
                              byte=target_byte, covered=covered)
                    continue  # cannot even prime: the defence already won
                values = _plaintext_nibbles(cfg)
                counts = np.zeros((len(values), LINES_PER_TABLE))
                for vi, v in enumerate(values):
                    for _ in range(cfg.samples_per_value):
                        pt = bytearray(self.rng.bytes(16))
                        pt[target_byte] = (v << 4) | (pt[target_byte] & 0x0F)
                        # Prime: fill every line's set with attacker data.
                        for addrs in eviction:
                            for addr in addrs:
                                self.attacker.touch(addr)
                        self.victim.encrypt(bytes(pt))
                        # Probe: a displaced attacker line means victim
                        # traffic.
                        counts[vi] += np.fromiter(
                            (sum(1 for addr in addrs
                                 if self.attacker.timed_read(addr)
                                 > self.attacker.hit_threshold)
                             for addrs in eviction),
                            dtype=np.float64, count=LINES_PER_TABLE)
                recovered[target_byte] = _best_nibble(values, counts)
        return recovered, coverage


class FlushReloadAttack(_CacheAttack):
    """Flush+Reload; needs attacker-addressable victim table lines."""

    NAME = "flush+reload"
    SEED = 0xF77E
    EVICTS = False

    def _line_paddr(self, table: int, line: int) -> int:
        return self.victim.table_paddr + table * AES_TABLE_STRIDE \
            + line * LINE_SIZE

    def run(self) -> AttackResult:
        # Precondition: the table lines must be attacker-loadable (shared
        # pages).  Against enclave memory the very first access is denied.
        ok, _ = self.attacker.try_read(self._line_paddr(0, 0))
        if not ok:
            obs.event("flush+reload.blocked", cat="attack")
            return AttackResult(
                name=self.NAME,
                category=AttackCategory.MICROARCHITECTURAL,
                success=False, score=0.0,
                details={"blocked": "victim memory not attacker-addressable"})
        return _verdict(self, measure(self), every_byte=False)

    def _measure(self) -> dict[int, int]:
        cfg = self.config
        recovered: dict[int, int] = {}
        span = obs.span  # hoisted: shared-nullcontext lookup, once
        for target_byte in cfg.target_bytes:
            with span("flush+reload:byte", cat="attack",
                      byte=target_byte):
                table = BYTE_TO_TABLE[target_byte]
                lines = [self._line_paddr(table, line)
                         for line in range(LINES_PER_TABLE)]
                values = _plaintext_nibbles(cfg)
                counts = np.zeros((len(values), LINES_PER_TABLE))
                for vi, v in enumerate(values):
                    for _ in range(cfg.samples_per_value):
                        pt = bytearray(self.rng.bytes(16))
                        pt[target_byte] = (v << 4) | (pt[target_byte] & 0x0F)
                        for paddr in lines:
                            self.attacker.flush(paddr)
                        self.victim.encrypt(bytes(pt))
                        latencies = np.fromiter(
                            (self.attacker.timed_read(paddr)
                             for paddr in lines),
                            dtype=np.float64, count=LINES_PER_TABLE)
                        counts[vi] += latencies <= self.attacker.hit_threshold
                recovered[target_byte] = _best_nibble(values, counts)
        return recovered


class EvictTimeAttack(_CacheAttack):
    """Evict+Time: evict a table line, time the victim's encryption."""

    NAME = "evict+time"
    SEED = 0xE71C

    def _victim_cycles(self, pt: bytes) -> int:
        core = self.victim.arch.soc.cores[self.victim.core_id]
        before = core.cycles
        self.victim.encrypt(pt)
        return core.cycles - before

    def run(self) -> AttackResult:
        return _verdict(self, measure(self), every_byte=True)

    def _measure(self) -> dict[int, int]:
        cfg = self.config
        recovered: dict[int, int] = {}
        for target_byte in cfg.target_bytes:
            eviction = _eviction_sets(self, BYTE_TO_TABLE[target_byte])
            if any(len(addrs) < self._ways for addrs in eviction):
                continue  # defence: sets unreachable
            values = _plaintext_nibbles(cfg)
            times = np.zeros((len(values), LINES_PER_TABLE))
            for vi, v in enumerate(values):
                for line in range(LINES_PER_TABLE):
                    for _ in range(cfg.samples_per_value):
                        pt = bytearray(self.rng.bytes(16))
                        pt[target_byte] = (v << 4) | (pt[target_byte] & 0x0F)
                        for addr in eviction[line]:
                            self.attacker.touch(addr)
                        times[vi, line] += self._victim_cycles(bytes(pt))
            recovered[target_byte] = _best_nibble(values, times)
        return recovered


class SharedAESService:
    """An *unprotected* AES service with tables in shared pages.

    The Flush+Reload baseline: a process using a shared crypto library,
    with no TEE underneath.  Quacks like :class:`AESVictim` where the
    attacks care (``encrypt``, ``table_paddr``, ``key``, ``core_id``).
    """

    def __init__(self, soc, key: bytes, core_id: int = 0,
                 table_paddr: int | None = None,
                 domain: str | None = None) -> None:
        self.soc = soc
        self.key = key
        self.core_id = core_id
        self.domain = domain  # cache security-domain label (ABL-1 uses it)
        dram = soc.regions.get("dram")
        default_base = (dram.base + dram.size // 3) & ~0xFFF
        self.table_paddr = table_paddr if table_paddr is not None \
            else default_base
        if self.table_paddr % 64:
            raise ValueError("AES tables must be cache-line aligned")
        self.encryptions = 0

        def on_lookup(table: int, index: int) -> None:
            paddr = (self.table_paddr + table * AES_TABLE_STRIDE
                     + index * 4) & ~7
            soc.hierarchy.access(self.core_id, paddr, domain=self.domain)

        self._cipher = TTableAES(key, on_lookup=on_lookup)

    def encrypt(self, plaintext: bytes) -> bytes:
        self.encryptions += 1
        return self._cipher.encrypt_block(plaintext)
