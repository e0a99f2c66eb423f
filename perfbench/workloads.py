"""The three fixed campaigns of the ledger.

Each workload is a campaign batch job on one execution route. The grids are
fixed; the workload seed only offsets the Monte-Carlo seed range, so the
same seed always gives the same trials. Every timed round reruns the same
trial set into a fresh store, which lets one reference run check them all.

- ``mc-serial`` — overhead-dominated Monte-Carlo on the serial route: lane
  packing, zoo reloads, replay-resumed prefill, injection and store writes
  do the work. No calibration, protection, cost, decode, pool or fabric.
  Sites sit in the last layer, so replay restores layer 0 from the clean
  trace instead of recomputing it (targeting every layer would resume at
  layer 0 and skip no GEMM).
- ``abft-pool`` — the supervised pool with 2 workers on both architectures
  and a generation task: protect inspections, per-slice injection, the cost
  instrument, decode/KV and shared-memory publishing. Every site is
  targeted, so replay never skips a GEMM.
- ``fabric-resume`` — an in-process broker and 2 worker processes over
  localhost HTTP, resuming a store that already holds every other seed, so
  store reads and dedup run beside writes.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Worker processes on the pool and fabric routes (the host has 2 CPUs;
#: load never exceeds this many workers).
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    route: str  # "serial" | "pool" | "fabric"
    seeds_per_round: int

    @property
    def cpus(self) -> int:
        """CPUs the timed campaign keeps busy, and so the host probe uses."""
        return 1 if self.route == "serial" else WORKERS

    def seeds(self, seed: int) -> tuple[int, ...]:
        """Monte-Carlo seeds of one timed round."""
        base = 10_000 + 1_000 * seed
        return tuple(range(base, base + self.seeds_per_round))

    def warmup_seeds(self, seed: int) -> tuple[int, ...]:
        """Seeds of the warm-up campaign, disjoint from :meth:`seeds`."""
        base = 10_000 + 1_000 * seed + 900
        return (base,) if self.route != "fabric" else (base, base + 1)

    def spec(self, seeds, name: str):
        from repro.campaigns import ErrorSpec, SiteSpec
        from repro.campaigns.spec import CampaignSpec
        from repro.dispatch.cost import CostSpec

        bit30 = tuple(ErrorSpec.bitflip(ber, bits=(30,)) for ber in (1e-4, 1e-3, 1e-2))
        if self.name == "mc-serial":
            return CampaignSpec(
                name=name,
                models=("opt-mini",),
                tasks=("perplexity",),
                sites=tuple(
                    SiteSpec.only(components=[c], stages=["prefill"], layers=[1])
                    for c in ("Q", "K", "O", "FC1")
                ),
                errors=bit30,
                seeds=tuple(seeds),
            )
        if self.name == "abft-pool":
            return CampaignSpec(
                name=name,
                models=("opt-mini", "llama-mini"),
                tasks=("xsum",),
                sites=(SiteSpec(),),
                errors=(ErrorSpec.bitflip(None),),
                voltages=(0.72, 0.68, 0.64),
                methods=("classical-abft", "approx-abft", "statistical-abft"),
                cost=CostSpec(),
                seeds=tuple(seeds),
            )
        return CampaignSpec(
            name=name,
            models=("opt-mini",),
            tasks=("perplexity",),
            sites=tuple(
                SiteSpec.only(components=[c], stages=["prefill"]) for c in ("O", "K")
            ),
            errors=bit30,
            methods=("none", "statistical-abft"),
            seeds=tuple(seeds),
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("mc-serial", "serial", seeds_per_round=24),
        Workload("abft-pool", "pool", seeds_per_round=8),
        Workload("fabric-resume", "fabric", seeds_per_round=32),
    )
}

#: Models whose zoo checkpoints the workloads load.
MODELS = ("opt-mini", "llama-mini")
