"""GEMM protectors: the recovery-decision policies compared in the paper.

A protector inspects the checksum report of each executed GEMM and decides
whether to trigger error recovery (re-computation at nominal voltage, per
paper Sec. VI-A). The inference engine consults the protector after error
injection; if recovery is requested the clean result is used and the
recovery cost is charged.

Implemented policies:

- :class:`NoProtection` — never recovers (the paper's "no protection" line).
- :class:`ClassicalABFT` — recovers on *any* nonzero checksum discrepancy
  [18], [46].
- :class:`ApproxABFT` — recovers when the total MSD exceeds a threshold
  [45]; magnitude-aware but frequency-blind.
- :class:`StatisticalABFT` — the paper's contribution: per-column
  significance threshold ``theta_mag`` derived from MSD, count-if, and a
  frequency threshold ``theta_freq``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.abft.checksums import ChecksumReport, lane_of_slice
from repro.abft.region import CriticalRegion
from repro.errors.sites import GemmSite


@dataclass
class ProtectionStats:
    """Counters a protector keeps across a run (recovery-cost accounting)."""

    inspected: int = 0
    detected: int = 0
    recovered: int = 0
    recovered_macs: int = 0
    per_site_recoveries: dict[str, int] = field(default_factory=dict)

    def record(self, site: GemmSite, detected: bool, recovered: bool, macs: int) -> None:
        self.inspected += 1
        if detected:
            self.detected += 1
        if recovered:
            self.recovered += 1
            self.recovered_macs += macs
            key = str(site)
            self.per_site_recoveries[key] = self.per_site_recoveries.get(key, 0) + 1

    def record_clean(self, n: int) -> None:
        """Record ``n`` inspections of all-zero reports: neither detected
        nor recovered, so only the inspection count moves."""
        self.inspected += n

    @property
    def recovery_rate(self) -> float:
        """Fraction of inspected GEMMs that triggered recovery."""
        return self.recovered / self.inspected if self.inspected else 0.0


class Protector:
    """Base class; subclasses implement :meth:`should_recover`."""

    #: Human-readable method name used in reports and benchmarks.
    name = "base"

    def __init__(self) -> None:
        self.stats = ProtectionStats()

    def reset(self) -> None:
        self.stats = ProtectionStats()

    def should_recover(self, report: ChecksumReport, site: GemmSite) -> bool:
        """The recovery decision for one report. Must be ``False`` on an
        all-zero report: the dispatch pipeline counts those in bulk through
        :meth:`inspect_clean` and never asks (DESIGN.md section 8)."""
        raise NotImplementedError

    def inspect(self, report: ChecksumReport, site: GemmSite, macs: int) -> bool:
        """Record statistics and return the recovery decision."""
        recover = self.should_recover(report, site)
        self.stats.record(site, report.any_error, recover, macs)
        return recover

    def inspect_clean(self, n_slices: int, tripped: Sequence[int] = ()) -> None:
        """Bulk-record the inspections of a call's untripped slices.

        ``tripped`` holds the indices of the call's ``n_slices`` 2-D slices
        whose checksum row has a nonzero entry; every other slice saw an
        all-zero report, on which no policy detects or recovers (the
        :meth:`should_recover` contract), so its inspection is a count.
        """
        self.stats.record_clean(n_slices - len(tripped))

    def for_slice(self, index: Optional[int], n_slices: int) -> "Protector":
        """Protector owning 2-D slice ``index`` of ``n_slices``.

        Lane-routing hook for the dispatch pipeline's protect instrument: a
        plain protector owns every slice of every call; :class:`LaneProtector`
        overrides this to hand each lane's slices to that lane's protector.
        """
        return self


class LaneProtector(Protector):
    """Routes per-slice inspections to one protector per batch lane.

    A lane-packed dispatch (DESIGN.md section 9) inspects every 2-D slice of
    the packed call exactly as the solo runs would, but each slice's
    decision — and its statistics and charged recovery MACs — must land on
    the protector of the trial that owns the slice. Lanes stack along the
    leading batch axis, so the slice runs resolve through
    :func:`~repro.abft.checksums.lane_of_slice`. Every lane protector sees
    precisely the inspections of its solo run; this wrapper keeps no
    decision logic of its own.
    """

    name = "lanes"

    def __init__(self, lanes: Sequence[Protector]) -> None:
        super().__init__()
        if not lanes or any(lane is None for lane in lanes):
            raise ValueError("a lane protector needs one protector per lane")
        self.lanes: tuple[Protector, ...] = tuple(lanes)

    def reset(self) -> None:
        super().reset()
        for lane in self.lanes:
            lane.reset()

    def lane_of(self, index: int, n_slices: int) -> int:
        return lane_of_slice(index, n_slices, len(self.lanes))

    def inspect_clean(self, n_slices: int, tripped: Sequence[int] = ()) -> None:
        """Split the untripped slices into lane runs: each lane owns
        ``n_slices // n_lanes`` slices, less those of ``tripped`` that
        :func:`~repro.abft.checksums.lane_of_slice` assigns to it."""
        n_lanes = len(self.lanes)
        run = n_slices // n_lanes
        owners = lane_of_slice(np.asarray(tripped, dtype=np.int64), n_slices, n_lanes)
        for lane, n_tripped in zip(self.lanes, np.bincount(owners, minlength=n_lanes)):
            lane.stats.record_clean(run - int(n_tripped))

    def for_slice(self, index: Optional[int], n_slices: int) -> Protector:
        if index is None:
            raise ValueError(
                "lane-packed dispatches need a leading batch axis; a plain "
                "2-D GEMM has no lane structure"
            )
        return self.lanes[self.lane_of(index, n_slices)]

    def should_recover(self, report: ChecksumReport, site: GemmSite) -> bool:
        raise NotImplementedError(
            "LaneProtector only routes; decisions belong to its lanes"
        )


class NoProtection(Protector):
    """Never detects, never recovers."""

    name = "no-protection"

    def should_recover(self, report: ChecksumReport, site: GemmSite) -> bool:
        return False


class ClassicalABFT(Protector):
    """Exact checksum comparison: any discrepancy triggers recovery [18]."""

    name = "classical-abft"

    def should_recover(self, report: ChecksumReport, site: GemmSite) -> bool:
        return report.any_error


class ApproxABFT(Protector):
    """MSD-threshold detection (ApproxABFT [45]).

    Tolerates small *total* deviation but cannot distinguish one large error
    from many small ones — the frequency blindness the paper's Q1.4 study
    exposes.
    """

    name = "approx-abft"

    def __init__(self, msd_threshold: float) -> None:
        super().__init__()
        if msd_threshold < 0:
            raise ValueError("msd_threshold must be non-negative")
        self.msd_threshold = msd_threshold

    def should_recover(self, report: ChecksumReport, site: GemmSite) -> bool:
        return report.msd > self.msd_threshold


class StatisticalABFT(Protector):
    """The paper's statistical ABFT decision rule (Sec. V-A).

    Per GEMM: compute ``theta_mag`` from the observed MSD via the fitted
    critical region for the GEMM's component, count per-column
    discrepancies exceeding it (``freq_eff``), and recover iff
    ``freq_eff > theta_freq``.

    Parameters
    ----------
    regions:
        Mapping from component value (e.g. ``"O"``) to fitted
        :class:`CriticalRegion`; GEMMs whose component has no entry use
        ``default_region``.
    default_region:
        Fallback parameters (a conservative region recovers like classical
        ABFT on unknown components).
    """

    name = "statistical-abft"

    def __init__(
        self,
        regions: dict[str, CriticalRegion] | None = None,
        default_region: Optional[CriticalRegion] = None,
    ) -> None:
        super().__init__()
        self.regions = dict(regions or {})
        self.default_region = default_region or CriticalRegion(
            a=1.05, b=0.0, theta_freq=0.0, kind="sensitive"
        )

    def region_for(self, site: GemmSite) -> CriticalRegion:
        return self.regions.get(site.component.value, self.default_region)

    def should_recover(self, report: ChecksumReport, site: GemmSite) -> bool:
        if not report.any_error:
            return False
        region = self.region_for(site)
        thr = region.theta_mag(report.msd)
        freq_eff = report.count_if_above(thr)
        return freq_eff > region.theta_freq
