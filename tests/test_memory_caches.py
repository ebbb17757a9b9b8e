"""Unit and property tests for the LRU translation cache.

The batched paths (``TranslationCache.access_batch``,
``Iommu.ats_translate_batch``, ``DeviceAtc.translate_batch``) are locked
against the per-key ``lookup``/``insert`` loop, which stays the oracle.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import calibration
from repro.memory import Iommu, MemoryKind, PageFault, TranslationCache
from repro.memory import lru_hit_mask
from repro.pcie.atc import DeviceAtc
from repro.sim.rng import RngStream


def test_hit_and_miss_counting():
    cache = TranslationCache(2)
    hit, _ = cache.lookup("a")
    assert not hit
    cache.insert("a", 1)
    hit, value = cache.lookup("a")
    assert hit and value == 1
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_rate == pytest.approx(0.5)
    assert cache.miss_rate == pytest.approx(0.5)


def test_lru_eviction_order():
    cache = TranslationCache(2)
    cache.insert("a", 1)
    cache.insert("b", 2)
    cache.lookup("a")  # refresh a; b is now LRU
    cache.insert("c", 3)
    assert "a" in cache
    assert "b" not in cache
    assert "c" in cache
    assert cache.evictions == 1


def test_reinsert_does_not_evict():
    cache = TranslationCache(2)
    cache.insert("a", 1)
    cache.insert("b", 2)
    cache.insert("a", 10)  # update, not a new entry
    assert cache.evictions == 0
    assert cache.peek("a") == 10


def test_invalidate():
    cache = TranslationCache(4)
    cache.insert("a", 1)
    cache.insert("b", 2)
    cache.invalidate("a")
    cache.invalidate("missing")  # no-op
    assert "a" not in cache and "b" in cache
    assert cache.invalidations == 1


def test_invalidate_counts_an_entry_whose_value_is_none():
    cache = TranslationCache(4)
    cache.insert("k", None)
    hit, value = cache.lookup("k")
    assert hit and value is None
    cache.invalidate("k")
    assert "k" not in cache
    assert cache.invalidations == 1


def test_invalidate_where_and_clear():
    cache = TranslationCache(8)
    for i in range(6):
        cache.insert(("dom", i), i)
    removed = cache.invalidate_where(lambda key: key[1] % 2 == 0)
    assert removed == 3
    assert len(cache) == 3
    cache.clear()
    assert len(cache) == 0


def test_reset_counters_keeps_contents():
    cache = TranslationCache(2)
    cache.insert("a", 1)
    cache.lookup("a")
    cache.lookup("zz")
    cache.reset_counters()
    assert cache.hits == cache.misses == 0
    assert "a" in cache


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        TranslationCache(0)


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=16),
    keys=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=200),
)
def test_cache_never_exceeds_capacity_and_counts_balance(capacity, keys):
    cache = TranslationCache(capacity)
    for key in keys:
        hit, _ = cache.lookup(key)
        if not hit:
            cache.insert(key, key)
        assert len(cache) <= capacity
    assert cache.hits + cache.misses == len(keys)


@settings(max_examples=30, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=8))
def test_cyclic_access_beyond_capacity_always_misses(capacity):
    """LRU's pathology: a cyclic scan one entry wider than the cache never
    hits — this is exactly the Figure 8 round-robin worst case."""
    cache = TranslationCache(capacity)
    working_set = capacity + 1
    for _ in range(5):  # several full cycles
        for key in range(working_set):
            hit, _ = cache.lookup(key)
            if not hit:
                cache.insert(key, key)
    assert cache.hits == 0


# -- batched access: the per-key loop is the oracle ---------------------------


def _cache_state(cache):
    entries = list(cache._entries.items())  # simlint: ok L-private
    return entries, cache.hits, cache.misses, cache.evictions, cache.invalidations


def _oracle_access(cache, keys, fill, tag=None):
    """The per-key loop ``access_batch`` must reproduce."""
    mask = []
    for i, code in enumerate(keys):
        key = code if tag is None else (tag, code)
        hit, _ = cache.lookup(key)
        if not hit:
            cache.insert(key, fill(i, code))
        mask.append(hit)
    return mask


def _stream(kind, length, span, rng):
    if kind == "random":
        return [rng.randint(0, span - 1) for _ in range(length)]
    if kind == "cyclic":
        return [i % span for i in range(length)]
    return [i % span if rng.random() < 0.7 else rng.randint(0, 2 * span - 1)
            for i in range(length)]


def _two_caches(capacity, resident):
    oracle, batched = TranslationCache(capacity), TranslationCache(capacity)
    for key, value in resident:
        oracle.insert(key, value)
        batched.insert(key, value)
    oracle.reset_counters()
    batched.reset_counters()
    return oracle, batched


def _check_batch_matches_loop(capacity, resident, keys, tag):
    oracle, batched = _two_caches(capacity, resident)
    # Values depend on the stream position, so a value from the wrong miss
    # cannot pass for the right one.
    expected = _oracle_access(oracle, keys, lambda i, code: ("fill", i, code), tag)
    mask = batched.access_batch(
        np.array(keys, dtype=np.int64),
        lambda miss, keep: [("fill", i, keys[i]) for i in keep.tolist()],
        tag=tag,
    )
    assert mask.tolist() == expected
    assert _cache_state(batched) == _cache_state(oracle)


@st.composite
def batch_cases(draw):
    capacity = draw(st.integers(min_value=1, max_value=12))
    tag = draw(st.sampled_from([None, "d"]))
    # Resident keys in the stream's key space, and foreign ones that still
    # take cache slots: strings for plain keys, other domains for IOTLB keys.
    if tag is None:
        own = st.integers(min_value=0, max_value=30)
        foreign = st.text(alphabet="xyz", min_size=1, max_size=2)
    else:
        own = st.tuples(st.just("d"), st.integers(min_value=0, max_value=30))
        foreign = st.tuples(st.sampled_from(["e", "f"]), st.integers(0, 30))
    resident = draw(st.lists(
        st.tuples(st.one_of(own, foreign),
                  st.one_of(st.none(), st.integers(min_value=0, max_value=9))),
        max_size=20,
    ))
    kind = draw(st.sampled_from(["random", "cyclic", "mixed"]))
    length = draw(st.integers(min_value=0, max_value=3 * capacity + 10))
    span = draw(st.integers(min_value=1, max_value=2 * capacity + 4))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    keys = _stream(kind, length, span, RngStream(seed, "batch"))
    return capacity, resident, keys, tag


@settings(max_examples=300, deadline=None, derandomize=True)
@given(batch_cases())
@example((1, [], [0, 0, 1, 0, 1, 1], None))  # capacity 1
@example((1, [(("e", 0), None)], [0, 0, 1, 0], "d"))
@example((4, [(i, i) for i in range(4)], [0, 1], None))  # shorter than C
@example((3, [], [i % 4 for i in range(13)], None))  # cyclic past C
@example((3, [("x", 1), (2, None)], [2, 5, 2, 6, 7, 2, 5], None))
def test_access_batch_matches_per_key_loop(case):
    _check_batch_matches_loop(*case)


@pytest.mark.parametrize("capacity, length, span", [
    (1, 500, 5), (7, 2000, 40), (64, 4000, 300), (200, 3000, 400),
])
def test_access_batch_matches_loop_on_long_streams(capacity, length, span):
    """Long mixed streams reach every level of the distinct-key count."""
    rng = RngStream(capacity, "long", length)
    resident = [(rng.randint(0, span - 1), "old") for _ in range(capacity)]
    _check_batch_matches_loop(capacity, resident, _stream("mixed", length, span, rng), None)


def test_lru_hit_mask_counts_resident_keys():
    # Capacity 2 holding [5, 6]: 5 hits; 7 evicts 6, so 6 then misses.
    assert lru_hit_mask([5, 7, 6], 2, resident=[5, 6]).tolist() == [True, False, False]


def test_access_batch_fill_error_leaves_cache_untouched():
    cache = TranslationCache(2)
    cache.insert(1, "one")
    before = _cache_state(cache)

    def fill(miss, keep):
        raise RuntimeError("no translation")

    with pytest.raises(RuntimeError):
        cache.access_batch(np.array([1, 2, 3]), fill)
    assert _cache_state(cache) == before


# -- ATS and the device ATC over batches --------------------------------------


def _gdr_iommu(iotlb_capacity=6, ats_enabled=True):
    iommu = Iommu(iotlb_capacity=iotlb_capacity, ats_enabled=ats_enabled)
    for domain, base in (("d", 0x10_0000), ("e", 0x90_0000)):
        iommu.create_domain(domain)
        iommu.map(domain, 0, base, 8 * 4096, kind=MemoryKind.GPU_HBM, pin=False)
        iommu.map(domain, 8 * 4096, base + 0x40_0000, 4 * 4096,
                  kind=MemoryKind.HOST_DRAM, pin=False)
    return iommu


def _iommu_state(iommu):
    return _cache_state(iommu.iotlb)


def _warm(iommu):
    """Resident IOTLB keys of both domains, other-domain ones included."""
    for domain, page in (("e", 1), ("d", 3), ("e", 2), ("d", 9)):
        iommu.ats_translate(domain, page * 4096)
    iommu.iotlb.reset_counters()


def test_ats_translate_batch_matches_per_address_calls():
    rng = RngStream(5, "ats")
    das = [rng.randint(0, 11) * 4096 + rng.randint(0, 4095) for _ in range(60)]
    reply_at = list(range(0, 60, 3))
    oracle, batched = _gdr_iommu(), _gdr_iommu()
    _warm(oracle)
    _warm(batched)
    expected = [oracle.ats_translate("d", da) for da in das]
    result = batched.ats_translate_batch("d", das, reply_at)
    assert result.iotlb_hit.tolist() == [r.iotlb_hit for r in expected]
    assert result.latency.tolist() == [r.latency for r in expected]
    assert result.replies == [(expected[i].hpa, expected[i].kind) for i in reply_at]
    assert _iommu_state(batched) == _iommu_state(oracle)


def test_ats_batch_hit_answers_from_the_iotlb_entry():
    """A remap without unmap leaves the IOTLB entry stale; hits use it."""
    oracle, batched = _gdr_iommu(), _gdr_iommu()
    for iommu in (oracle, batched):
        iommu.ats_translate("d", 0)
        iommu.map("d", 0, 0x70_0000, 4096, kind=MemoryKind.HOST_DRAM, pin=False)
    das = [0, 4096, 0]
    expected = [oracle.ats_translate("d", da) for da in das]
    result = batched.ats_translate_batch("d", das, [0, 1, 2])
    assert result.replies == [(r.hpa, r.kind) for r in expected]
    assert result.replies[0][0] == 0x10_0000  # the stale translation
    assert _iommu_state(batched) == _iommu_state(oracle)


def test_ats_batch_unmapped_page_faults_first_and_changes_nothing():
    oracle, batched = _gdr_iommu(), _gdr_iommu()
    _warm(oracle)
    _warm(batched)
    before = _iommu_state(batched)
    das = [0, 4096 + 17, 40 * 4096 + 5, 3 * 4096, 50 * 4096]
    with pytest.raises(PageFault) as per_address:
        for da in das:
            oracle.ats_translate("d", da)
    with pytest.raises(PageFault) as batch:
        batched.ats_translate_batch("d", das)
    assert batch.value.address == per_address.value.address == 40 * 4096 + 5
    assert str(batch.value) == str(per_address.value)
    assert _iommu_state(batched) == before


def test_ats_batch_disabled_faults_and_changes_nothing():
    iommu = _gdr_iommu(ats_enabled=False)
    before = _iommu_state(iommu)
    with pytest.raises(PageFault) as per_address:
        iommu.ats_translate("d", 4096 + 3)
    with pytest.raises(PageFault) as batch:
        iommu.ats_translate_batch("d", [4096 + 3, 0])
    assert str(batch.value) == str(per_address.value)
    assert _iommu_state(iommu) == before


def _atc_pair(atc_capacity):
    pair = []
    for _ in range(2):
        iommu = _gdr_iommu()
        _warm(iommu)
        atc = DeviceAtc(iommu, "d", capacity_pages=atc_capacity, page_size=4096)
        for page in (2, 3, 11):
            atc.translate(page * 4096)
        atc.reset_counters()
        pair.append(atc)
    return pair


@pytest.mark.parametrize("atc_capacity", [1, 3, 5])
def test_device_atc_translate_batch_matches_per_address_calls(atc_capacity):
    rng = RngStream(atc_capacity, "atc")
    das = [rng.randint(0, 11) * 4096 + rng.randint(0, 4095) for _ in range(80)]
    oracle, batched = _atc_pair(atc_capacity)
    expected = [oracle.translate(da) for da in das]
    atc_hit, iotlb_hit, latency = batched.translate_batch(das)
    assert atc_hit.tolist() == [r.atc_hit for r in expected]
    assert iotlb_hit.tolist() == [r.iotlb_hit for r in expected]
    assert latency.tolist() == [r.latency for r in expected]
    assert _cache_state(batched.cache) == _cache_state(oracle.cache)
    assert _iommu_state(batched.iommu) == _iommu_state(oracle.iommu)


def test_device_atc_batch_fault_leaves_both_caches_untouched():
    _, atc = _atc_pair(3)
    before = (_cache_state(atc.cache), _iommu_state(atc.iommu))
    with pytest.raises(PageFault) as fault:
        atc.translate_batch([0, 99 * 4096])
    assert fault.value.address == 99 * 4096
    assert (_cache_state(atc.cache), _iommu_state(atc.iommu)) == before


def test_device_atc_batch_hits_need_no_ats():
    """An all-hit batch never asks the IOMMU, as the per-address path."""
    _, atc = _atc_pair(3)
    atc.iommu.ats_enabled = False
    atc_hit, iotlb_hit, latency = atc.translate_batch([2 * 4096, 3 * 4096 + 1])
    assert atc_hit.all() and iotlb_hit.all()
    assert latency.tolist() == [calibration.ATC_HIT_SECONDS] * 2
