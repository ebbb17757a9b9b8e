"""Device-side Address Translation Cache (ATC).

The ATC caches ATS replies inside a PCIe endpoint (an RNIC, here).  Its
bounded capacity is the root cause of the Figure 8 GDR throughput collapse:
once 16 connections' worth of 4 KiB pages exceed the ATC, every access pays
an ATS round trip, and past the IOTLB reach it also pays a table walk.
"""

import numpy as np

from repro import calibration
from repro.memory.address import align_down, align_down_array
from repro.memory.caches import TranslationCache


class AtcTranslation:
    """Result of translating one device address through the ATC/ATS path."""

    __slots__ = ("hpa", "kind", "latency", "atc_hit", "iotlb_hit")

    def __init__(self, hpa, kind, latency, atc_hit, iotlb_hit):
        self.hpa = hpa
        self.kind = kind
        self.latency = latency
        self.atc_hit = atc_hit
        self.iotlb_hit = iotlb_hit

    def __repr__(self):
        return "AtcTranslation(hpa=0x%x, atc_hit=%s, iotlb_hit=%s)" % (
            self.hpa,
            self.atc_hit,
            self.iotlb_hit,
        )


class DeviceAtc:
    """An endpoint's ATC bound to one IOMMU domain via ATS."""

    def __init__(
        self,
        iommu,
        domain_name,
        capacity_pages=calibration.ATC_CAPACITY_PAGES,
        page_size=calibration.GDR_PAGE_BYTES,
        name="ATC",
    ):
        self.iommu = iommu
        self.domain_name = domain_name
        self.page_size = page_size
        self.cache = TranslationCache(capacity_pages, name=name)

    def translate(self, da):
        """Translate a device address, consulting the ATC then ATS."""
        page = align_down(da, self.page_size)
        hit, cached = self.cache.lookup(page)
        if hit:
            hpa_page, kind = cached
            return AtcTranslation(
                hpa_page + (da - page),
                kind,
                calibration.ATC_HIT_SECONDS,
                True,
                True,
            )
        result = self.iommu.ats_translate(self.domain_name, page)
        self.cache.insert(page, (result.hpa, result.kind))
        return AtcTranslation(
            result.hpa + (da - page),
            result.kind,
            calibration.ATC_HIT_SECONDS + result.latency,
            False,
            result.iotlb_hit,
        )

    def translate_batch(self, das):
        """:meth:`translate` over an array of device addresses, in order.

        One exact LRU pass over the ATC; its misses, in order, are the
        stream of one :meth:`~repro.memory.iommu.Iommu.ats_translate_batch`
        call.  Returns ``(atc_hit, iotlb_hit, latency)`` arrays holding the
        per-address results' fields, and leaves both caches as the
        per-address calls would.
        """
        pages = align_down_array(das, self.page_size)
        replies = []

        def fill(miss, keep):
            at = np.searchsorted(miss, keep)
            # An ATC that missed every access hands its stream on as is;
            # neither index array is needed during the IOTLB pass.
            stream = pages if len(miss) == len(pages) else pages[miss]
            del miss
            replies.append(self.iommu.ats_translate_batch(self.domain_name, stream, at))
            return replies[0].replies

        atc_hit = self.cache.access_batch(pages, fill)
        iotlb_hit = atc_hit.copy()
        latency = np.full(len(pages), calibration.ATC_HIT_SECONDS)
        if replies:
            iotlb_hit[~atc_hit] = replies[0].iotlb_hit
            latency[~atc_hit] = calibration.ATC_HIT_SECONDS + replies[0].latency
        return atc_hit, iotlb_hit, latency

    def invalidate_range(self, da, length):
        """Handle an ATS invalidation from the IOMMU (on unmap)."""
        start = align_down(da, self.page_size)
        end = align_down(da + length - 1, self.page_size)
        self.cache.invalidate_where(lambda key: start <= key <= end)

    def reset_counters(self):
        self.cache.reset_counters()

    @property
    def hit_rate(self):
        return self.cache.hit_rate

    def __repr__(self):
        return "DeviceAtc(domain=%r, %r)" % (self.domain_name, self.cache)
