"""Dynamic error injector routing error models onto GEMM sites.

The inference engine calls :meth:`ErrorInjector.corrupt` with every INT32
GEMM result and its :class:`~repro.errors.sites.GemmSite`; the injector
decides (via its :class:`~repro.errors.sites.SiteFilter`) whether the site is
targeted and applies the configured error model, keeping running statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from repro.errors.models import ErrorModel
from repro.errors.sites import GemmSite, SiteFilter, SiteFilterUnion
from repro.utils.seeding import derive_rng


@lru_cache(maxsize=None)
def _site_keys(site: GemmSite) -> tuple[str, str]:
    """``(stats key, RNG key prefix)`` of a site, formatted once per site
    rather than once per lane per call (a model has a few dozen sites)."""
    key = str(site)
    return key, f"inject/{key}/"


@dataclass
class InjectionStats:
    """Aggregate counters kept by an injector across a run."""

    gemm_calls: int = 0
    targeted_calls: int = 0
    corrupted_calls: int = 0
    injected_errors: int = 0
    per_site_errors: dict[str, int] = field(default_factory=dict)

    def record(self, site: GemmSite, targeted: bool, n_errors: int) -> None:
        self.gemm_calls += 1
        if targeted:
            self.targeted_calls += 1
        if n_errors > 0:
            self.corrupted_calls += 1
            self.injected_errors += n_errors
            key = _site_keys(site)[0]
            self.per_site_errors[key] = self.per_site_errors.get(key, 0) + n_errors


class ErrorInjector:
    """Applies an :class:`ErrorModel` to GEMM results matching a filter.

    Parameters
    ----------
    model:
        The error model (``BitFlipModel``, ``MagFreqModel``, ...).
    site_filter:
        Which sites to target; defaults to everywhere. Treated as immutable
        once attached: per-site match decisions are memoized (the injector
        is consulted for *every* GEMM of every forward, and most campaign
        filters target a single layer or component). Replace the injector
        rather than mutating its filter in place.
    seed:
        Root seed; every (site, call-index) pair derives an independent
        stream so runs are reproducible regardless of evaluation order.
    """

    def __init__(
        self,
        model: ErrorModel,
        site_filter: SiteFilter | None = None,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.site_filter = site_filter or SiteFilter.everywhere()
        self.seed = seed
        self.stats = InjectionStats()
        self._call_index = 0
        self._match_cache: dict[GemmSite, bool] = {}
        self.enabled = True

    def reset(self) -> None:
        """Clear statistics and the call counter (fresh experiment)."""
        self.stats = InjectionStats()
        self._call_index = 0
        self._match_cache = {}

    def targets(self, site: GemmSite) -> bool:
        """Whether a GEMM at ``site`` would be corrupted (filter + enabled)."""
        if not self.enabled:
            return False
        hit = self._match_cache.get(site)
        if hit is None:
            hit = self._match_cache[site] = self.site_filter.matches(site)
        return hit

    def register_untargeted(self, site: GemmSite) -> None:
        """Account for an executed GEMM the filter does not target.

        Advances the call counter exactly as :meth:`corrupt` would, so the
        per-(site, call-index) RNG streams of later targeted calls are
        unchanged — this lets the executor skip materializing integer
        accumulators for untargeted sites without perturbing reproducibility.
        """
        self._call_index += 1
        self.stats.record(site, False, 0)

    def _stream(self, site: GemmSite) -> np.random.Generator:
        """The per-(site, call-index) RNG stream at the current counter."""
        return derive_rng(self.seed, f"{_site_keys(site)[1]}{self._call_index}")

    def corrupt(self, acc: np.ndarray, site: GemmSite) -> np.ndarray:
        """Return the (possibly corrupted) accumulator array for ``site``."""
        return self.corrupt_block(acc, site)[0]

    def corrupt_block(
        self, acc: np.ndarray, site: GemmSite
    ) -> tuple[np.ndarray, int]:
        """``(corrupted, n_errors)`` for ``acc`` at ``site``.

        The single corruption path, shared by :meth:`corrupt` and the
        lane-packed :class:`LaneInjector`: advance the call counter, check
        the memoized filter before any RNG stream is derived (untargeted
        sites cost one dict hit and return ``acc`` itself), then apply the
        error model with the per-(site, call-index) stream. A lane's block
        has precisely the shape this injector would have seen running its
        trial alone (lanes stack along the leading batch axis, DESIGN.md
        section 9), so the model draws an identical stream and flips
        identical bits; statistics update as in the solo run.
        """
        self._call_index += 1
        if not self.targets(site):
            self.stats.record(site, False, 0)
            return acc, 0
        corrupted, n_errors = self.model.corrupt(acc, self._stream(site))
        self.stats.record(site, True, n_errors)
        return corrupted, n_errors


class LaneInjector:
    """K per-lane injector streams over one lane-packed accumulator.

    A lane-packed forward (DESIGN.md section 9) stacks K trials' token
    batches along the batch axis and runs them as one dispatch stream. This
    wrapper presents the single-injector surface the dispatch chain expects
    (:meth:`targets`, :meth:`corrupt`, :meth:`register_untargeted`,
    ``site_filter``/``enabled`` for replay reasoning) while keeping one
    fully independent :class:`ErrorInjector` per lane — own error model,
    own filter, own seed-derived RNG streams, own statistics — so every
    lane's draws and counters are bit-identical to running its trial alone.

    ``lanes`` entries may be ``None`` for clean lanes (no error model):
    such lanes are never corrupted and keep no statistics, exactly like a
    solo trial run with no injector attached.
    """

    def __init__(self, lanes: Sequence[Optional[ErrorInjector]]) -> None:
        if not lanes:
            raise ValueError("a lane injector needs at least one lane")
        self.lanes: tuple[Optional[ErrorInjector], ...] = tuple(lanes)
        self._live = tuple(lane for lane in self.lanes if lane is not None)
        self.site_filter = (
            SiteFilterUnion(tuple(lane.site_filter for lane in self._live))
            if self._live
            else SiteFilter.only(layers=[])  # clean pack: targets nothing
        )

    @property
    def enabled(self) -> bool:
        """The pack participates in injection iff any lane does (replay
        reasoning reads this exactly as on a solo injector)."""
        return any(lane.enabled for lane in self._live)

    def reset(self) -> None:
        for lane in self._live:
            lane.reset()

    def targets(self, site: GemmSite) -> bool:
        """Whether *any* lane would corrupt a GEMM at ``site`` (each lane's
        answer is already memoized per site, so this is K dict hits)."""
        return any(lane.targets(site) for lane in self._live)

    def register_untargeted(self, site: GemmSite) -> None:
        """Advance every lane's stream exactly as its solo run would."""
        for lane in self._live:
            lane.register_untargeted(site)

    def corrupt(self, acc: np.ndarray, site: GemmSite) -> np.ndarray:
        """Apply each lane's error model to that lane's block only.

        The packed accumulator's leading axis is ``n_lanes * lane_batch``
        rows (lane j owns the j-th contiguous block); every live lane's
        call counter advances whether or not its own filter targets the
        site, mirroring what each solo run's :meth:`ErrorInjector.corrupt`
        would have done on this dispatch. Returns ``acc`` itself when no
        lane corrupts anything, as an untargeted site does.
        """
        if not self.targets(site):
            self.register_untargeted(site)
            return acc
        n_lanes = len(self.lanes)
        if acc.shape[0] % n_lanes:
            raise ValueError(
                f"packed accumulator batch {acc.shape[0]} does not split "
                f"into {n_lanes} lanes"
            )
        rows = acc.shape[0] // n_lanes
        out = acc
        for j, lane in enumerate(self.lanes):
            if lane is None:
                continue
            block = slice(j * rows, (j + 1) * rows)
            corrupted, n_errors = lane.corrupt_block(acc[block], site)
            # A model reporting no errors left its block unchanged: skip
            # the write-back, and copy the packed array only once a lane
            # actually corrupts something.
            if n_errors:
                if out is acc:
                    out = np.array(acc, dtype=np.int64)
                out[block] = corrupted
        return out
