"""The paper's six research questions as runnable experiments (Sec. IV).

Protocols follow the paper exactly (its "control for irrelevant variables"
list): Q1.1, Q1.3, Q2.1 and Q2.2 flip the 30th accumulator bit; Q1.1 and
Q2.1 inject into every component of a *single* block at a time; all other
questions inject across all layers.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.campaigns.spec import CampaignSpec, ErrorSpec, SiteSpec
from repro.characterization.evaluator import ModelEvaluator
from repro.characterization.sweeps import SweepRecord, ber_sweep, magfreq_grid
from repro.errors.sites import Component, SiteFilter, Stage

#: The paper's targeted bit for the single-bit protocols.
PROTOCOL_BIT = 30

DEFAULT_BERS: tuple[float, ...] = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)

#: The Q1.4 magnitude/frequency protocol grid (shared by the in-process
#: sweep defaults and the campaign fan-out so both measure the same cells).
Q14_MAGS: tuple[int, ...] = tuple(2**p for p in (4, 8, 12, 16, 20, 24))
Q14_FREQS: tuple[int, ...] = (1, 4, 16, 64, 256)


def q11_layerwise(
    evaluator: ModelEvaluator,
    layers: Sequence[int],
    bers: Sequence[float] = DEFAULT_BERS,
    seed: int = 0,
) -> list[SweepRecord]:
    """Q1.1: resilience per layer — 30th bit, all components of one block."""
    records: list[SweepRecord] = []
    for layer in layers:
        records.extend(
            ber_sweep(
                evaluator,
                bers,
                site_filter=SiteFilter.only(layers=[layer]),
                bits=[PROTOCOL_BIT],
                label=f"layer{layer}",
                seed=seed,
            )
        )
    return records


def q12_bitwise(
    evaluator: ModelEvaluator,
    bits: Sequence[int] = (10, 14, 22, 30),
    components: Sequence[Component] = (Component.K, Component.O),
    bers: Sequence[float] = DEFAULT_BERS,
    seed: int = 0,
) -> list[SweepRecord]:
    """Q1.2: bit-wise resilience.

    The paper contrasts K (whose output is re-quantized to INT8 before the
    QK^T matmul, saturating large errors) with O (whose output flows into
    the FP residual stream unbounded) — reproduced here by injecting at
    several bit positions into each component.
    """
    records: list[SweepRecord] = []
    for component in components:
        for bit in bits:
            records.extend(
                ber_sweep(
                    evaluator,
                    bers,
                    site_filter=SiteFilter.only(components=[component]),
                    bits=[bit],
                    label=f"{component.value}/bit{bit}",
                    seed=seed,
                )
            )
    return records


def q13_components(
    evaluator: ModelEvaluator,
    components: Optional[Sequence[Component]] = None,
    bers: Sequence[float] = DEFAULT_BERS,
    seed: int = 0,
) -> list[SweepRecord]:
    """Q1.3: per-component resilience in the prefill stage (30th bit)."""
    if components is None:
        components = evaluator.bundle.config.components
    records: list[SweepRecord] = []
    for component in components:
        records.extend(
            ber_sweep(
                evaluator,
                bers,
                site_filter=SiteFilter.only(
                    components=[component], stages=[Stage.PREFILL]
                ),
                bits=[PROTOCOL_BIT],
                label=component.value,
                seed=seed,
            )
        )
    return records


def q14_magfreq(
    evaluator: ModelEvaluator,
    component: Component,
    mags: Sequence[int] = Q14_MAGS,
    freqs: Sequence[int] = Q14_FREQS,
    seed: int = 0,
) -> list[SweepRecord]:
    """Q1.4: error magnitude vs. frequency trade-off at fixed MSD."""
    return magfreq_grid(
        evaluator,
        mags,
        freqs,
        site_filter=SiteFilter.only(components=[component]),
        label=component.value,
        seed=seed,
    )


def q13_campaign_spec(
    model: str,
    task: str,
    bers: Sequence[float],
    seeds: Sequence[int],
    components: Optional[Sequence[Component]] = None,
) -> CampaignSpec:
    """The Q1.3 protocol as a campaign grid (multi-seed fan-out)."""
    if components is None:
        from repro.training.zoo import model_config

        components = model_config(model).components
    return CampaignSpec(
        name=f"q13-{model}-{task}",
        models=(model,),
        tasks=(task,),
        sites=tuple(
            SiteSpec.only(components=[c], stages=[Stage.PREFILL]) for c in components
        ),
        errors=tuple(ErrorSpec.bitflip(float(b), bits=(PROTOCOL_BIT,)) for b in bers),
        seeds=tuple(seeds),
    )


def q14_campaign_spec(
    model: str,
    task: str,
    component: Component,
    seeds: Sequence[int],
    mags: Sequence[int] = Q14_MAGS,
    freqs: Sequence[int] = Q14_FREQS,
) -> CampaignSpec:
    """The Q1.4 protocol as a campaign grid (multi-seed fan-out)."""
    return CampaignSpec(
        name=f"q14-{model}-{task}-{component.value}",
        models=(model,),
        tasks=(task,),
        sites=(SiteSpec.only(components=[component]),),
        errors=tuple(ErrorSpec.magfreq(int(m), int(f)) for m in mags for f in freqs),
        seeds=tuple(seeds),
    )


def q21_stages(
    evaluator: ModelEvaluator,
    bers: Sequence[float] = DEFAULT_BERS,
    seed: int = 0,
) -> list[SweepRecord]:
    """Q2.1: prefill vs. decode vs. both (generation tasks only).

    Requires a generation-task evaluator (xsum / gsm8k), since perplexity
    scoring never exercises the decode stage.
    """
    if evaluator.task not in ("xsum", "gsm8k"):
        raise ValueError("q21_stages needs a generation task (xsum or gsm8k)")
    records: list[SweepRecord] = []
    for label, stages in (
        ("prefill_stage", [Stage.PREFILL]),
        ("decode_stage", [Stage.DECODE]),
        ("two_stage", [Stage.PREFILL, Stage.DECODE]),
    ):
        records.extend(
            ber_sweep(
                evaluator,
                bers,
                site_filter=SiteFilter.only(stages=stages),
                bits=[PROTOCOL_BIT],
                label=label,
                seed=seed,
            )
        )
    return records


def q22_decode_components(
    evaluator: ModelEvaluator,
    components: Optional[Sequence[Component]] = None,
    bers: Sequence[float] = DEFAULT_BERS,
    seed: int = 0,
) -> list[SweepRecord]:
    """Q2.2: per-component resilience during the decode stage (30th bit)."""
    if evaluator.task not in ("xsum", "gsm8k"):
        raise ValueError("q22 needs a generation task (xsum or gsm8k)")
    if components is None:
        components = evaluator.bundle.config.components
    records: list[SweepRecord] = []
    for component in components:
        records.extend(
            ber_sweep(
                evaluator,
                bers,
                site_filter=SiteFilter.only(
                    components=[component], stages=[Stage.DECODE]
                ),
                bits=[PROTOCOL_BIT],
                label=component.value,
                seed=seed,
            )
        )
    return records
