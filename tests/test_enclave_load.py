"""SGX's page-batched enclave load against the per-word loop.

``SGX._load_pages`` (EADD, then EINIT) moves each page's words as one
batch when the bus, MMU and caches give every word of the page the same
outcome.  The oracle here is the per-word EADD/EINIT loop it replaced:
one ``Core.write_mem`` per enclave word, then one ``Core.read_mem`` per
word of the first page.  Both must leave the same SoC (caches and LRU
stamps, TLB, bus and MEE counters, core accounting, speculative L1 view,
memory), the same MEE tags in the same order, and the same measurement.
The cache half of the batch, ``CacheHierarchy.access_words``, is also
checked on its own against one ``access`` per word.
"""

from __future__ import annotations

import pytest

from repro.arch.sgx import SGX
from repro.attacks.batch_diff import soc_state
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.partition import WayPartition
from repro.cpu.core import Core
from repro.cpu.soc import make_server_soc
from repro.errors import SecurityViolation
from repro.lockstep import compare
from repro.memory.paging import PAGE_SIZE


def _per_word_load(self, handle) -> bytes:
    """The per-word EADD/EINIT loop (the oracle)."""
    core = self.soc.cores[handle.core_id]
    image = handle.name.encode().ljust(32, b"\x00")[:32]
    for off in range(0, handle.size, 8):
        if off < len(image):
            word = int.from_bytes(image[off:off + 8], "little")
        else:
            word = 0
        core.write_mem(handle.base + off, word)
    return bytes(core.read_mem(handle.base + off) & 0xFF
                 for off in range(0, min(handle.size, 4096), 8))


class _CountingMemPath:
    """Counts the per-word ``Core`` memory calls while installed."""

    def __init__(self, monkeypatch) -> None:
        self.reads = self.writes = 0
        read, write = Core.read_mem, Core.write_mem

        def read_mem(core, va):
            self.reads += 1
            return read(core, va)

        def write_mem(core, va, value):
            self.writes += 1
            write(core, va, value)

        monkeypatch.setattr(Core, "read_mem", read_mem)
        monkeypatch.setattr(Core, "write_mem", write_mem)


def _outcome(sgx: SGX, handles) -> dict:
    mee = sgx.mee
    return {"soc": soc_state(sgx.soc, sgx),
            "tags": list(mee._tags.items()),
            "mee": (mee.encrypted_writes, mee.decrypted_reads,
                    mee.integrity_failures),
            "measurements": [h.measurement for h in handles],
            "sizes": [h.size for h in handles]}


def _snoop(sgx: SGX) -> None:
    sgx.soc.bus.add_snooper(lambda txn: None)


def _partition_llc(sgx: SGX) -> None:
    llc = sgx.soc.hierarchy.l2
    llc.partition = WayPartition(llc.ways)


def _build(sizes, monkeypatch=None, per_word=False, setup=None):
    sgx = SGX(make_server_soc())
    if setup is not None:
        setup(sgx)
    if per_word:
        monkeypatch.setattr(SGX, "_load_pages", _per_word_load)
    handles = [sgx.create_enclave(f"enclave-{i}", size=size)
               for i, size in enumerate(sizes)]
    return sgx, handles


#: One page, two pages, a non-page-multiple (rounded up to two pages),
#: and a second enclave on the same instance after each.
SIZES = [(PAGE_SIZE,), (2 * PAGE_SIZE,), (PAGE_SIZE + 100,),
         (2 * PAGE_SIZE, PAGE_SIZE), (PAGE_SIZE + 100, 3 * PAGE_SIZE)]


@pytest.mark.parametrize("sizes", SIZES, ids=str)
def test_page_load_matches_the_per_word_loop(monkeypatch, sizes):
    calls = _CountingMemPath(monkeypatch)
    fast = _outcome(*_build(sizes))
    # One scalar store per page (its first word) and one scalar load for
    # EINIT: every other word moved in a batch.
    pages = sum(-(-size // PAGE_SIZE) for size in sizes)
    assert (calls.writes, calls.reads) == (pages, len(sizes))
    with monkeypatch.context() as patch:
        ref = _outcome(*_build(sizes, patch, per_word=True))
    compare("enclave", fast, ref)


@pytest.mark.parametrize("setup", [_snoop, _partition_llc],
                         ids=["snooper", "partitioned-llc"])
def test_declined_page_path_runs_the_per_word_loop(monkeypatch, setup):
    """A bus snooper sees every transaction, and a way partition may
    refuse a fill, so the page path declines and each word takes the
    per-word path, with the same outcome."""
    sizes = (2 * PAGE_SIZE,)
    calls = _CountingMemPath(monkeypatch)
    fast = _outcome(*_build(sizes, setup=setup))
    assert (calls.writes, calls.reads) == (2 * PAGE_SIZE // 8, 512)
    with monkeypatch.context() as patch:
        ref = _outcome(*_build(sizes, patch, per_word=True, setup=setup))
    compare("enclave", fast, ref)


def _tamper(sgx: SGX, handle, offset: int) -> None:
    frame, _ = sgx.os_page_table.lookup(handle.base + (offset & ~0xFFF))
    paddr = frame | (offset & 0xFFF)
    memory = sgx.soc.memory
    memory.write_word(paddr, memory.read_word(paddr) ^ 1)


def test_ciphertext_tamper_after_eadd_is_caught():
    sgx, (handle,) = _build((2 * PAGE_SIZE,))
    _tamper(sgx, handle, PAGE_SIZE + 8)
    sgx.enter_enclave(handle)
    try:
        assert sgx.enclave_read(handle, PAGE_SIZE) == 0
        with pytest.raises(SecurityViolation):
            sgx.enclave_read(handle, PAGE_SIZE + 8)
    finally:
        sgx.exit_enclave(handle)
    assert sgx.mee.integrity_failures == 1


def test_tampered_page_read_fails_where_the_per_word_loop_fails():
    """A failed tag mid-page sends the page's read back to the per-word
    loop, which moves the words before it and raises on it."""
    outcomes = []
    for batched in (True, False):
        sgx, (handle,) = _build((PAGE_SIZE,))
        _tamper(sgx, handle, 200 * 8)
        core = sgx.soc.cores[handle.core_id]
        sgx.enter_enclave(handle)
        try:
            with pytest.raises(SecurityViolation) as failure:
                if batched:
                    sgx._move_page(core, handle.base, PAGE_SIZE // 8)
                else:
                    for off in range(0, PAGE_SIZE, 8):
                        core.read_mem(handle.base + off)
        finally:
            sgx.exit_enclave(handle)
        outcomes.append((str(failure.value), _outcome(sgx, [handle])))
    compare("tampered", outcomes[0], outcomes[1])


def test_a_move_must_stay_in_one_page():
    sgx, (handle,) = _build((2 * PAGE_SIZE,))
    core = sgx.soc.cores[handle.core_id]
    with pytest.raises(ValueError):
        sgx._move_page(core, handle.base + 8, PAGE_SIZE // 8)


def _hierarchy_state(hierarchy: CacheHierarchy) -> list:
    return [([tuple(st.tags) for st in cache.set_states()],
             [(st.policy._stamp, tuple(st.policy._last_use))
              for st in cache.set_states()],
             [None if line is None else (line.tag, line.dirty)
              for st in cache.set_states() for line in st.lines],
             (cache.stats.hits, cache.stats.misses, cache.stats.evictions))
            for cache in (*hierarchy.l1s, hierarchy.l2)]


@pytest.mark.parametrize("start, count, is_write, cacheable", [
    (0x8000_0000, 512, True, True), (0x8000_0018, 37, False, True),
    (0x8000_0004, 40, False, True), (0x8000_0038, 1, True, True),
    (0x8000_0000, 20, False, False)])
def test_access_words_matches_per_word_accesses(start, count, is_write,
                                                cacheable):
    """``CacheHierarchy.access_words`` (whole lines, partial lines at
    either end, unaligned words, one word, an uncacheable run) against
    one ``access`` per word, on a hierarchy whose L1 sets are already
    full."""
    hierarchies = [CacheHierarchy(), CacheHierarchy()]
    for hierarchy in hierarchies:
        for line in range(0x9000_0000, 0x9000_0000 + 64 * 64 * 8, 64):
            hierarchy.access(0, line, is_write=True)
    batched, per_word = hierarchies
    latency = batched.access_words(0, start, count, is_write, "d", cacheable)
    assert latency == sum(
        per_word.access(0, start + 8 * i, is_write, "d", cacheable).latency
        for i in range(count))
    compare("hierarchy", _hierarchy_state(batched),
            _hierarchy_state(per_word))
