"""GEMM dispatch pipeline equivalence and cost-accounting tests.

The contract (DESIGN.md section 8), asserted with **exact** equality
(``assert_array_equal`` / ``==``, never ``allclose``):

- the instrument-chain dispatch is bit-identical to the pre-refactor seed
  GEMM route — same outputs, same injector RNG streams and statistics,
  same protector inspection statistics — on every route (bypass,
  materialized, ±injector, ±protector, batched operands, wraparound and
  saturating accumulators, BLAS and integer kernels);
- attaching a :class:`CostInstrument` is observationally inert: logits,
  tokens, RNG streams, and ABFT statistics are unchanged across
  prefill+decode, single+batched inputs, replay on/off, ±ABFT;
- cost accounting itself is route-independent (full vs. replayed forwards
  charge identical cycles, per site) and agrees with the systolic-array
  functional simulator's cycle reports (the ``bench_fig7`` reference
  numbers) and with the brute-force tile walk.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.abft.protectors import ClassicalABFT
from repro.dispatch import CostInstrument, CostSpec
from repro.errors.injector import ErrorInjector
from repro.errors.models import BitFlipModel
from repro.errors.sites import Component, GemmSite, SiteFilter, Stage
from repro.models.quantized import GemmExecutor, QuantizedWeight
from repro.models.replay import ReplaySession, TraceStore
from repro.quant.gemm import INT32_MAX, gemm_int32
from repro.systolic.array import GemmRunReport, SystolicArray
from repro.systolic.dataflow import IS, OS, WS, tile_latency_cycles
from repro.systolic.tiling import iter_tiles, plan_cycles, tiling_plan

SITE = GemmSite(layer=0, component=Component.Q, stage=Stage.PREFILL)
SITE_O = GemmSite(layer=1, component=Component.O, stage=Stage.PREFILL)


# --------------------------------------------------------------------------
# The pre-refactor (seed) GEMM route, reproduced verbatim: quantize, the
# fast-path decision, inject, protect, dequantize — inlined exactly as
# ``GemmExecutor._execute``/``_protect`` implemented it before the
# dispatch-pipeline refactor decomposed them onto instruments.
# --------------------------------------------------------------------------
def _seed_protect(ex, a_q, b_q, clean, acc, site, macs):
    from repro.abft.checksums import checksum_report, slice_inspections

    report = checksum_report(a_q, b_q, acc)
    if report.diffs.ndim <= 1:
        for _, sub, sub_macs in slice_inspections(report.diffs, macs):
            if ex.protector.inspect(sub, site, sub_macs):
                return clean
        return acc
    n_slices = int(np.prod(report.diffs.shape[:-1]))
    acc_slices = acc.reshape(n_slices, *acc.shape[-2:])
    clean_slices = clean.reshape(n_slices, *clean.shape[-2:])
    out = acc_slices
    for s, sub, slice_macs in slice_inspections(report.diffs, macs):
        if ex.protector.inspect(sub, site, slice_macs):
            if out is acc_slices:
                out = acc_slices.copy()
            out[s] = clean_slices[s]
    return out.reshape(acc.shape)


def _seed_execute(ex, a_q, b_q, out_scale, site, b_f64=None):
    rows = int(np.prod(a_q.shape[:-1]))
    macs = rows * a_q.shape[-1] * b_q.shape[-1]
    ex.total_macs += macs
    key = site.component.value
    ex.macs_by_component[key] = ex.macs_by_component.get(key, 0) + macs
    blas = ex.backend.name != "numpy-int"  # the seed's fast_gemm flag
    no_overflow = (
        blas
        and a_q.dtype == np.int8
        and b_q.dtype == np.int8
        and a_q.shape[-1] * 127 * 127 <= INT32_MAX
    )
    targeted = ex.injector is not None and ex.injector.targets(site)
    if no_overflow and not targeted and ex.protector is None:
        if ex.injector is not None:
            ex.injector.register_untargeted(site)
        if b_f64 is None:
            b_f64 = b_q.astype(np.float64)
        return (a_q.astype(np.float64) @ b_f64) * out_scale
    clean = gemm_int32(a_q, b_q, wraparound=ex.wraparound, blas=blas, b_f64=b_f64)
    acc = clean
    if ex.injector is not None:
        acc = ex.injector.corrupt(clean, site)
    if ex.protector is not None:
        acc = _seed_protect(ex, a_q, b_q, clean, acc, site, macs)
    return acc.astype(np.float64) * out_scale


def _seed_linear(ex, x, weight, site):
    a_q, a_params = ex._quantize(x, site, "a")
    out_scale = a_params.scale * weight.params.scale
    return _seed_execute(ex, a_q, weight.q, out_scale, site, b_f64=weight.q_f64)


def _seed_matmul(ex, a, b, site):
    a_q, a_params = ex._quantize(a, site, "a")
    b_q, b_params = ex._quantize(b, site, "b")
    out_scale = np.asarray(a_params.scale * b_params.scale)
    return _seed_execute(ex, a_q, b_q, out_scale, site)


def _operands(rng, batched: bool):
    weight = QuantizedWeight.from_float(rng.normal(size=(12, 10)))
    if batched:
        x = rng.normal(size=(2, 3, 7, 12))
        a = rng.normal(size=(2, 3, 7, 12))
        b = rng.normal(size=(2, 3, 12, 5))
    else:
        x = rng.normal(size=(7, 12))
        a = rng.normal(size=(7, 12))
        b = rng.normal(size=(12, 5))
    return weight, x, a, b


def _run_route(route, ex, weight, x, a, b, injector, protector):
    """One linear + one matmul under a given instrument configuration."""
    ex.attach(injector, protector)
    try:
        if route == "seed":
            return _seed_linear(ex, x, weight, SITE), _seed_matmul(ex, a, b, SITE_O)
        return ex.linear(x, weight, SITE), ex.matmul(a, b, SITE_O)
    finally:
        ex.attach(None, None)


class TestSeedRouteEquivalence:
    """dispatch == the seed inline route, bit for bit, on every branch."""

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("backend", ["numpy-f64", "numpy-int"])
    @pytest.mark.parametrize("wraparound", [True, False])
    @pytest.mark.parametrize(
        "with_injector,with_protector",
        [(False, False), (True, False), (False, True), (True, True)],
    )
    def test_bit_identical_outputs_and_streams(
        self, batched, backend, wraparound, with_injector, with_protector
    ):
        rng = np.random.default_rng(0)
        weight, x, a, b = _operands(rng, batched)
        outputs, injectors, protectors, executors = [], [], [], []
        for route in ("seed", "dispatch"):
            ex = GemmExecutor(wraparound=wraparound, backend=backend)
            injector = (
                ErrorInjector(BitFlipModel(0.02), SiteFilter.only(layers=[1]), seed=9)
                if with_injector
                else None
            )
            protector = ClassicalABFT() if with_protector else None
            outputs.append(_run_route(route, ex, weight, x, a, b, injector, protector))
            injectors.append(injector)
            protectors.append(protector)
            executors.append(ex)
        for seed_out, dispatch_out in zip(*outputs):
            np.testing.assert_array_equal(seed_out, dispatch_out)
        assert executors[0].total_macs == executors[1].total_macs
        assert executors[0].macs_by_component == executors[1].macs_by_component
        if with_injector:
            seed_inj, disp_inj = injectors
            assert seed_inj._call_index == disp_inj._call_index
            assert seed_inj.stats.gemm_calls == disp_inj.stats.gemm_calls
            assert seed_inj.stats.targeted_calls == disp_inj.stats.targeted_calls
            assert seed_inj.stats.injected_errors == disp_inj.stats.injected_errors
            assert seed_inj.stats.per_site_errors == disp_inj.stats.per_site_errors
        if with_protector:
            seed_p, disp_p = protectors
            assert seed_p.stats.inspected == disp_p.stats.inspected
            assert seed_p.stats.detected == disp_p.stats.detected
            assert seed_p.stats.recovered == disp_p.stats.recovered
            assert seed_p.stats.recovered_macs == disp_p.stats.recovered_macs

    def test_fast_gemm_deprecation_shim(self):
        """The old flag still works — reading maps off the backend, writing
        warns and swaps between the two numpy backends."""
        ex = GemmExecutor(backend="numpy-f64")
        assert ex.fast_gemm is True and ex.backend.name == "numpy-f64"
        with pytest.warns(DeprecationWarning):
            ex.fast_gemm = False
        assert ex.backend.name == "numpy-int" and ex.fast_gemm is False
        with pytest.warns(DeprecationWarning):
            ex.fast_gemm = True
        assert ex.backend.name == "numpy-f64" and ex.fast_gemm is True

    def test_untargeted_bypass_advances_rng_identically(self):
        """A later targeted site draws the same stream whichever route the
        earlier untargeted calls took."""
        rng = np.random.default_rng(3)
        weight, x, a, b = _operands(rng, batched=False)
        hits = []
        for route in ("seed", "dispatch"):
            ex = GemmExecutor()
            injector = ErrorInjector(BitFlipModel(0.9), SiteFilter.only(layers=[1]), seed=4)
            _run_route(route, ex, weight, x, a, b, injector, None)  # layer 0 + 1
            hits.append(injector.stats.per_site_errors)
        assert hits[0] == hits[1] and hits[0]  # targeted site did corrupt

    def test_call_log_records_identically(self):
        rng = np.random.default_rng(5)
        weight, x, a, b = _operands(rng, batched=True)
        ex = GemmExecutor()
        ex.call_log = log = []
        ex.linear(x, weight, SITE)
        ex.matmul(a, b, SITE_O)
        ex.call_log = None
        assert [(c.site, c.macs, c.shape) for c in log] == [
            (SITE, 2 * 3 * 7 * 12 * 10, (2, 3, 7, 10)),
            (SITE_O, 2 * 3 * 7 * 12 * 5, (2, 3, 7, 5)),
        ]


class TestTilingPlan:
    """Memoized plans == the brute-force tile walk, shape for shape."""

    SHAPES = [(8, 8, 8, 4), (10, 7, 9, 4), (1, 4096, 1, 32), (96, 96, 96, 32),
              (5, 3, 2, 7), (13, 17, 11, 5)]

    @pytest.mark.parametrize("m,k,n,size", SHAPES)
    @pytest.mark.parametrize("dataflow", [WS, OS, IS])
    @pytest.mark.parametrize("with_checksum", [False, True])
    def test_plan_cycles_equal_tile_walk(self, m, k, n, size, dataflow, with_checksum):
        tiles = list(iter_tiles(m, k, n, size))
        walked = sum(
            tile_latency_cycles(dataflow, t.m, t.k, t.n, with_checksum) for t in tiles
        )
        plan = tiling_plan(m, k, n, size)
        assert plan.tiles == len(tiles)
        assert plan.macs == sum(t.macs for t in tiles) == m * k * n
        assert plan.cycles(dataflow, with_checksum) == walked
        assert plan_cycles(m, k, n, size, dataflow, with_checksum) == walked

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            tiling_plan(0, 4, 4, 2)
        with pytest.raises(ValueError):
            plan_cycles(4, 4, 4, 0, WS)


class TestPerSiteReport:
    """GemmRunReport aggregates per GemmSite (the layerwise-breakdown fix)."""

    def test_charge_and_merge_keep_site_breakdown(self):
        first = GemmRunReport()
        first.charge(SITE, tiles=2, compute_cycles=10, macs=100)
        first.charge(SITE_O, tiles=1, compute_cycles=7, macs=50, recovered_macs=50,
                     recovered_tiles=1, recovery_cycles=7)
        second = GemmRunReport()
        second.charge(SITE, tiles=4, compute_cycles=20, macs=200)
        first.merge(second)
        assert first.tiles == 7 and first.compute_cycles == 37 and first.macs == 350
        assert first.recovered_macs == 50 and first.total_cycles == 44
        assert set(first.by_site) == {SITE, SITE_O}
        assert first.by_site[SITE].tiles == 6
        assert first.by_site[SITE].compute_cycles == 30
        assert first.by_site[SITE_O].recovered_macs == 50
        by_component = first.component_totals()
        assert by_component["Q"].macs == 300 and by_component["O"].macs == 50

    def test_systolic_gemm_charges_its_site(self, rng):
        array = SystolicArray(4, WS)
        a = rng.integers(-50, 50, size=(9, 11)).astype(np.int8)
        b = rng.integers(-50, 50, size=(11, 6)).astype(np.int8)
        out, report = array.gemm(a, b, site=SITE_O)
        np.testing.assert_array_equal(out, gemm_int32(a, b))
        assert set(report.by_site) == {SITE_O}
        assert report.by_site[SITE_O].compute_cycles == report.compute_cycles
        assert report.compute_cycles == plan_cycles(9, 11, 6, 4, WS, False)


class TestCostAgainstSystolicReference:
    """CostInstrument cycles == SystolicArray.gemm report cycles (the
    bench_fig7 reference numbers) on the same executed shapes."""

    @pytest.mark.parametrize("dataflow", [WS, OS])
    @pytest.mark.parametrize("protect", [False, True])
    def test_linear_costs_match_array_report(self, dataflow, protect):
        rng = np.random.default_rng(11)
        weight = QuantizedWeight.from_float(rng.normal(size=(12, 10)))
        x = rng.normal(size=(9, 12))
        ex = GemmExecutor()
        cost = CostInstrument(size=4, dataflow=dataflow)
        ex.cost = cost
        protector = ClassicalABFT() if protect else None
        ex.attach(None, protector)
        try:
            ex.linear(x, weight, SITE)
        finally:
            ex.attach(None, None)
            ex.cost = None
        a_q, _ = ex._quantize(x, SITE, "a")
        array = SystolicArray(4, dataflow)
        _, reference = array.gemm(
            a_q, weight.q, protector=ClassicalABFT() if protect else None, site=SITE
        )
        assert cost.report.compute_cycles == reference.compute_cycles
        assert cost.report.tiles == reference.tiles
        assert cost.report.macs == reference.macs
        assert cost.report.recovery_cycles == reference.recovery_cycles == 0

    def test_batched_call_charges_per_slice(self):
        rng = np.random.default_rng(12)
        ex = GemmExecutor()
        cost = CostInstrument(size=4, dataflow=WS)
        ex.cost = cost
        try:
            ex.matmul(rng.normal(size=(2, 3, 7, 12)), rng.normal(size=(2, 3, 12, 5)), SITE)
        finally:
            ex.cost = None
        plan = tiling_plan(7, 12, 5, 4)
        assert cost.report.tiles == 6 * plan.tiles
        assert cost.report.compute_cycles == 6 * plan.cycles(WS, False)
        assert cost.report.macs == 6 * 7 * 12 * 5


@pytest.fixture()
def session():
    """A private trace store so tests never see each other's traces."""
    return ReplaySession("dispatch-test", store=TraceStore())


def _tokens(model, n=3, length=20, stride=3):
    vocab = model.config.vocab_size
    return np.stack([(np.arange(length) * (1 + i * stride)) % vocab for i in range(n)])


FILTERS = [
    SiteFilter.only(layers=[1]),
    SiteFilter.only(components=[Component.O]),
    SiteFilter.everywhere(),
]


@pytest.mark.parametrize("model_fixture", ["opt_quant", "llama_quant"])
class TestCostInstrumentInertness:
    """Attaching a CostInstrument never perturbs the measurement."""

    @pytest.mark.parametrize("protect", [False, True])
    def test_forward_full_unchanged(self, model_fixture, protect, request, session):
        model = request.getfixturevalue(model_fixture)
        tokens = _tokens(model)
        with model.replay_into(session):
            model.forward_full(tokens)  # record the clean trace once
        for flt in FILTERS:
            for use_replay in (False, True):
                outputs, injectors, protectors = [], [], []
                for with_cost in (False, True):
                    injector = ErrorInjector(BitFlipModel(2e-3), flt, seed=7)
                    protector = ClassicalABFT() if protect else None
                    model.attach(injector, protector)
                    model.executor.cost = (
                        CostInstrument(size=8) if with_cost else None
                    )
                    try:
                        with model.replay_into(session if use_replay else None):
                            outputs.append(model.forward_full(tokens))
                    finally:
                        model.attach(None, None)
                        model.executor.cost = None
                    injectors.append(injector)
                    protectors.append(protector)
                np.testing.assert_array_equal(outputs[0], outputs[1])
                assert injectors[0].stats.gemm_calls == injectors[1].stats.gemm_calls
                assert (
                    injectors[0].stats.per_site_errors
                    == injectors[1].stats.per_site_errors
                )
                if protect:
                    assert (
                        protectors[0].stats.inspected == protectors[1].stats.inspected
                    )
                    assert (
                        protectors[0].stats.recovered_macs
                        == protectors[1].stats.recovered_macs
                    )

    def test_generation_unchanged_and_costs_route_invariant(
        self, model_fixture, request, session
    ):
        """Prefill+decode: tokens are bit-identical with cost attached, and
        the cost report itself is identical between the full route and the
        replay-resumed route (per site, not just in total)."""
        model = request.getfixturevalue(model_fixture)
        prompts = _tokens(model, n=2, length=12)
        with model.replay_into(session):
            clean = model.generate_batch(prompts, 6)
        reports, outs = [], []
        for use_replay in (False, True):
            injector = ErrorInjector(
                BitFlipModel(2e-3), SiteFilter.only(layers=[1]), seed=11
            )
            cost = CostInstrument(size=8)
            model.attach(injector, ClassicalABFT())
            model.executor.cost = cost
            try:
                with model.replay_into(session if use_replay else None):
                    outs.append(model.generate_batch(prompts, 6))
            finally:
                model.attach(None, None)
                model.executor.cost = None
            reports.append(cost.report)
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(clean, model.generate_batch(prompts, 6))
        full, resumed = reports
        assert full.total_cycles == resumed.total_cycles
        assert full.macs == resumed.macs
        assert full.recovered_macs == resumed.recovered_macs
        assert full.by_site == resumed.by_site

    def test_cost_macs_match_executor_counters(self, model_fixture, request):
        model = request.getfixturevalue(model_fixture)
        tokens = _tokens(model, n=1)[0]
        cost = CostInstrument(size=8)
        model.executor.reset_counters()
        model.executor.cost = cost
        try:
            model.forward_full(tokens)
        finally:
            model.executor.cost = None
        assert cost.report.macs == model.executor.total_macs
        assert cost.report.component_totals().keys() == (
            model.executor.macs_by_component.keys()
        )
        for component, site_cost in cost.report.component_totals().items():
            assert site_cost.macs == model.executor.macs_by_component[component]


class TestCostSpec:
    def test_round_trip_and_true_shorthand(self):
        spec = CostSpec(size=32, dataflow=OS.value, e_mac_pj=0.5)
        assert CostSpec.from_dict(spec.to_dict()) == spec
        assert CostSpec.from_dict(True) == CostSpec()
        assert CostSpec.from_dict({}) == CostSpec()
        with pytest.raises(ValueError):
            CostSpec(dataflow="nonsense")
        with pytest.raises(ValueError):
            CostSpec(size=0)
        with pytest.raises(ValueError):  # typo'd field must fail at load time
            CostSpec.from_dict({"datafow": "output-stationary"})
        with pytest.raises(ValueError):  # truthy non-dict is a spec error
            CostSpec.from_dict(1)

    def test_campaign_spec_json_round_trip(self):
        from repro.campaigns.spec import CampaignSpec

        spec = CampaignSpec.from_json(
            '{"name": "c", "models": ["opt-mini"], "bers": [1e-3], '
            '"cost": {"size": 16, "dataflow": "output-stationary"}}'
        )
        assert spec.cost == CostSpec(size=16, dataflow=OS.value)
        again = CampaignSpec.from_json(spec.to_json())
        assert again.cost == spec.cost
        assert CampaignSpec.from_json(
            '{"name": "c", "models": ["opt-mini"], "bers": [1e-3], "cost": true}'
        ).cost == CostSpec()
        # "cost": {} is "enable with all defaults", not "off"; null/false disable.
        assert CampaignSpec.from_json(
            '{"name": "c", "models": ["opt-mini"], "bers": [1e-3], "cost": {}}'
        ).cost == CostSpec()
        assert CampaignSpec.from_json(
            '{"name": "c", "models": ["opt-mini"], "bers": [1e-3], "cost": false}'
        ).cost is None
        assert CampaignSpec.from_json(
            '{"name": "c", "models": ["opt-mini"], "bers": [1e-3], "cost": null}'
        ).cost is None

    def test_cost_not_part_of_trial_identity(self):
        from repro.campaigns.spec import CampaignSpec

        with_cost = CampaignSpec.from_json(
            '{"name": "c", "models": ["opt-mini"], "bers": [1e-3], "cost": true}'
        )
        without = CampaignSpec.from_json(
            '{"name": "c", "models": ["opt-mini"], "bers": [1e-3]}'
        )
        assert [t.key for t in with_cost.expand()] == [t.key for t in without.expand()]


class TestCampaignCostColumns:
    def test_campaign_stores_and_reports_costs(self, tmp_path, opt_bundle):
        from repro.campaigns.executor import run_campaign
        from repro.campaigns.report import CSV_FIELDS, export_csv, report_table
        from repro.campaigns.spec import CampaignSpec, ErrorSpec, SiteSpec
        from repro.campaigns.store import ResultStore

        spec = CampaignSpec(
            name="cost-test",
            models=(opt_bundle.name,),
            tasks=("perplexity",),
            sites=(SiteSpec.only(components=["O"], stages=["prefill"]),),
            errors=(ErrorSpec.bitflip(1e-3, bits=(30,)),),
            methods=("classical-abft",),
            seeds=(0,),
            cost=CostSpec(size=16),
        )
        with ResultStore(str(tmp_path / "store")) as store:
            report = run_campaign(spec, store, workers=0)
            assert report.executed == 1 and report.failed == 0
            (record,) = store.records()
            assert record.result.cycles > 0
            assert record.result.energy_j > 0.0
            assert record.result.recovered_macs >= 0
            table = report_table(store, spec, costs=True)
            assert "cycles" in table and "energy (uJ)" in table
            plain = report_table(store, spec)
            assert "cycles" not in plain
            csv_path = tmp_path / "out.csv"
            assert export_csv(store, csv_path, spec) == 1
            header = csv_path.read_text().splitlines()[0].split(",")
            assert header == CSV_FIELDS
            assert "cycles" in header and "energy_j" in header

    def test_cost_disabled_stores_zeros(self, tmp_path, opt_bundle):
        from repro.campaigns.executor import run_campaign
        from repro.campaigns.spec import CampaignSpec, ErrorSpec, SiteSpec
        from repro.campaigns.store import ResultStore

        spec = CampaignSpec(
            name="no-cost-test",
            models=(opt_bundle.name,),
            sites=(SiteSpec.only(components=["O"], stages=["prefill"]),),
            errors=(ErrorSpec.bitflip(1e-3, bits=(30,)),),
            seeds=(0,),
        )
        with ResultStore(str(tmp_path / "store")) as store:
            run_campaign(spec, store, workers=0)
            (record,) = store.records()
            assert record.result.cycles == 0
            assert record.result.energy_j == 0.0

    def test_energy_is_method_aware(self, opt_bundle):
        """Per-cell energy mirrors realm's per-method accounting: DMR pays
        its 2x compute factor, classical ABFT its detection overhead."""
        from repro.campaigns.executor import evaluate_trial
        from repro.campaigns.spec import ErrorSpec, SiteSpec, Trial
        from repro.characterization.evaluator import ModelEvaluator
        from repro.core.methods import METHODS

        evaluator = ModelEvaluator(opt_bundle, "perplexity")
        cost = CostSpec(size=16)

        def result_for(method):
            trial = Trial(
                model=opt_bundle.name,
                task="perplexity",
                site=SiteSpec.only(components=["O"], stages=["prefill"]),
                error=ErrorSpec.bitflip(None),
                method=method,
                voltage=0.70,
                seed=0,
            )
            return evaluate_trial(trial, evaluator, cost=cost)

        none = result_for("none")
        dmr = result_for("dmr")
        classical = result_for("classical-abft")
        # DMR doubles compute energy outright (plus analytic replay MACs).
        assert dmr.energy_j >= 2.0 * none.energy_j
        # Classical ABFT adds its detection-power fraction on top of
        # compute, plus recovery at nominal voltage.
        overhead = METHODS["classical-abft"].detection_overhead
        assert classical.energy_j > none.energy_j * (1.0 + overhead * 0.99)

    def test_report_excludes_costless_records_from_means(self, tmp_path):
        """A resumed campaign can mix cost-less legacy records into a cell;
        cost means must average the instrumented trials only."""
        from repro.campaigns.report import aggregate
        from repro.campaigns.spec import ErrorSpec, SiteSpec, Trial
        from repro.campaigns.store import ResultStore, TrialResult

        def trial(seed):
            return Trial(
                model="opt-mini",
                task="perplexity",
                site=SiteSpec.only(components=["O"]),
                error=ErrorSpec.bitflip(1e-3),
                seed=seed,
            )

        with ResultStore(tmp_path / "s") as store:
            store.add(trial(0), TrialResult(score=3.0, degradation=0.5, clean_score=2.5))
            store.add(
                trial(1),
                TrialResult(
                    score=3.0, degradation=0.5, clean_score=2.5,
                    cycles=1000, recovered_macs=10, energy_j=2e-6,
                ),
            )
            (summary,) = aggregate(store)
        assert summary.n == 2 and summary.n_costed == 1
        assert summary.has_costs
        assert summary.mean_cycles == 1000.0
        assert summary.mean_recovered_macs == 10.0
        assert summary.mean_energy_j == 2e-6

    def test_cost_scores_identical_to_costless(self, opt_bundle):
        """The cost instrument never changes what a trial measures."""
        from repro.campaigns.executor import evaluate_trial
        from repro.campaigns.spec import ErrorSpec, SiteSpec, Trial
        from repro.characterization.evaluator import ModelEvaluator

        evaluator = ModelEvaluator(opt_bundle, "perplexity")
        trial = Trial(
            model=opt_bundle.name,
            task="perplexity",
            site=SiteSpec.only(layers=[1]),
            error=ErrorSpec.bitflip(1e-3, bits=(30,)),
            seed=5,
        )
        with_cost = evaluate_trial(trial, evaluator, cost=CostSpec(size=16))
        without = evaluate_trial(trial, evaluator)
        assert with_cost.score == without.score
        assert with_cost.degradation == without.degradation
        assert with_cost.injected_errors == without.injected_errors
        assert with_cost.cycles > 0 and without.cycles == 0


class TestMeasuredEnergyPath:
    def test_method_run_costs_are_measured(self, opt_bundle):
        """Fig. 9 cells carry measured cycles, and their energy reproduces
        from the measured MAC counts (not analytic reconstructions)."""
        from repro.core.methods import METHODS
        from repro.core.realm import ReaLMConfig, ReaLMPipeline
        from repro.energy.model import EnergyModel, EnergyParams

        pipe = ReaLMPipeline(
            opt_bundle, ReaLMConfig(voltages=(0.80,), array_size=64)
        )
        run = pipe.evaluate_method_at("classical-abft", None, 0.80)
        assert run.cycles > 0
        assert run.macs == pipe.evaluator.model.executor.total_macs
        method = METHODS["classical-abft"]
        expected = EnergyModel(
            EnergyParams(
                e_mac_pj=pipe.config.e_mac_pj,
                detection_overhead=method.detection_overhead,
                compute_factor=method.compute_factor,
            )
        ).total_j(run.macs, run.recovered_macs, 0.80)
        assert run.energy_j == expected


# --------------------------------------------------------------------------
# The protect instrument counts untripped slices in bulk and inspects only
# the tripped ones (DESIGN.md section 8). Differential oracle: the per-slice
# inspection loop it replaced, kept here verbatim in spirit.
# --------------------------------------------------------------------------
def _protector_factories():
    from repro.abft.region import CriticalRegion
    from repro.abft.protectors import ApproxABFT, NoProtection, StatisticalABFT

    return {
        NoProtection: NoProtection,
        ClassicalABFT: ClassicalABFT,
        ApproxABFT: lambda: ApproxABFT(msd_threshold=5000.0),
        StatisticalABFT: lambda: StatisticalABFT(
            regions={"Q": CriticalRegion(a=1.2, b=18.0, theta_freq=1.0)}
        ),
    }


PROTECTOR_FACTORIES = _protector_factories()


def test_factories_cover_every_protector_policy():
    import repro.abft.protectors as protectors

    policies = {
        cls
        for cls in vars(protectors).values()
        if isinstance(cls, type)
        and issubclass(cls, protectors.Protector)
        and cls not in (protectors.Protector, protectors.LaneProtector)
    }
    assert policies == set(PROTECTOR_FACTORIES)


@pytest.mark.parametrize("cls", list(PROTECTOR_FACTORIES), ids=lambda c: c.name)
@pytest.mark.parametrize("lead", [(), (1,), (6,), (3, 2)])
@pytest.mark.parametrize("site", [SITE, SITE_O], ids=str)
def test_no_policy_recovers_on_an_all_zero_report(cls, lead, site, rng):
    """The premise of the bulk path: an all-zero checksum row never trips."""
    from repro.abft.checksums import ChecksumReport, checksum_report

    protector = PROTECTOR_FACTORIES[cls]()
    zero = ChecksumReport(diffs=np.zeros(lead + (5,), dtype=np.int64), msd=0)
    assert not zero.any_error
    assert protector.should_recover(zero, site) is False
    a = rng.integers(-128, 128, size=lead + (4, 3)).astype(np.int8)
    b = rng.integers(-128, 128, size=(3, 5)).astype(np.int8)
    clean = checksum_report(a, b, a.astype(np.int64) @ b.astype(np.int64))
    assert protector.should_recover(clean, site) is False


def _reference_after(protector, call):
    """The per-slice protect loop: one ``for_slice(...).inspect`` per slice."""
    from repro.abft.checksums import checksum_report, slice_inspections

    report = checksum_report(call.a_q, call.b_q, call.acc)
    lanes = getattr(protector, "lanes", None)
    if lanes is not None:
        call.recovered_slices_by_lane = [0] * len(lanes)
        call.recovered_macs_by_lane = [0] * len(lanes)
    if report.diffs.ndim <= 1:
        for _, sub, sub_macs in slice_inspections(report.diffs, call.macs):
            if protector.for_slice(None, 1).inspect(sub, call.site, sub_macs):
                call.acc = call.clean
                call.recovered_slices += 1
                call.recovered_macs += sub_macs
        return
    n_slices = int(np.prod(report.diffs.shape[:-1]))
    acc_slices = call.acc.reshape(n_slices, *call.acc.shape[-2:])
    clean_slices = call.clean.reshape(acc_slices.shape)
    out = acc_slices.copy()
    for s, sub, slice_macs in slice_inspections(report.diffs, call.macs):
        if protector.for_slice(s, n_slices).inspect(sub, call.site, slice_macs):
            out[s] = clean_slices[s]
            call.recovered_slices += 1
            call.recovered_macs += slice_macs
            if lanes is not None:
                lane = protector.lane_of(s, n_slices)
                call.recovered_slices_by_lane[lane] += 1
                call.recovered_macs_by_lane[lane] += slice_macs
    call.acc = out.reshape(call.acc.shape)


def _reference_replay(protector, call):
    from repro.abft.checksums import slice_inspections

    lead = call.out_shape[:-2]
    zero = np.zeros(lead + (call.out_shape[-1],), dtype=np.int64)
    n_slices = int(np.prod(lead)) if lead else 1
    for s, report, sub_macs in slice_inspections(zero, call.macs):
        protector.for_slice(s, n_slices).inspect(report, call.site, sub_macs)


def _stats_of(protector):
    import dataclasses

    owners = getattr(protector, "lanes", None) or (protector,)
    return [
        (dataclasses.asdict(p.stats), list(p.stats.per_site_recoveries.items()))
        for p in owners
    ]


def _stacked_call(seed, n_lanes, lane_batch, heads, m, k, n, tripped, site):
    """A lane-packed stacked GEMM whose listed slices carry injected errors.

    Errors mix single large flips, many small ones and column-cancelling
    pairs (a corrupted slice whose checksum row still reads zero).
    """
    from repro.dispatch.pipeline import GemmCall
    from repro.quant.gemm import wrap_int32

    rng = np.random.default_rng(seed)
    lead = (n_lanes * lane_batch, heads) if heads else (n_lanes * lane_batch,)
    a = rng.integers(-128, 128, size=lead + (m, k)).astype(np.int8)
    b = rng.integers(-128, 128, size=lead + (k, n)).astype(np.int8)
    clean = a.astype(np.int64) @ b.astype(np.int64)
    errors = np.zeros_like(clean).reshape(-1, m, n)
    magnitudes = np.array([1, 3, 7, 1 << 12, 1 << 20, 1 << 30], dtype=np.int64)
    for s in tripped:
        if s >= len(errors):
            continue
        for _ in range(int(rng.integers(1, 4))):
            i, j = rng.integers(m), rng.integers(n)
            errors[s, i, j] += rng.choice(magnitudes) * rng.choice([-1, 1])
        if rng.random() < 0.3:  # a pair that cancels in its column
            j = rng.integers(n)
            errors[s, 0, j] += 5
            errors[s, m - 1, j] -= 5
    acc = wrap_int32(clean + errors.reshape(clean.shape))
    macs = int(np.prod(lead)) * m * k * n
    return GemmCall(
        site=site, kind="matmul", a_q=a, b_q=b, macs=macs,
        out_shape=lead + (m, n), clean=clean, acc=acc,
    )


def _copy_call(call):
    import dataclasses

    return dataclasses.replace(call, acc=call.acc.copy())


def _check_bulk_matches_reference(cls, call, n_lanes, use_lanes):
    from repro.abft.protectors import LaneProtector
    from repro.dispatch.pipeline import GemmCall, ProtectInstrument

    make = PROTECTOR_FACTORIES[cls]
    if use_lanes:
        bulk = LaneProtector([make() for _ in range(n_lanes)])
        reference = LaneProtector([make() for _ in range(n_lanes)])
    else:
        bulk, reference = make(), make()
    live, expected = _copy_call(call), _copy_call(call)
    ProtectInstrument(bulk).after(live)
    _reference_after(reference, expected)
    assert live.acc.dtype == expected.acc.dtype
    np.testing.assert_array_equal(live.acc, expected.acc)
    for field in ("recovered_slices", "recovered_macs",
                  "recovered_slices_by_lane", "recovered_macs_by_lane"):
        assert getattr(live, field) == getattr(expected, field), field
    assert _stats_of(bulk) == _stats_of(reference)
    replayed = GemmCall(
        site=call.site, macs=call.macs, out_shape=call.out_shape, replayed=True
    )
    ProtectInstrument(bulk).replay(replayed)
    _reference_replay(reference, replayed)
    assert replayed.protected
    assert _stats_of(bulk) == _stats_of(reference)


@pytest.mark.parametrize("cls", list(PROTECTOR_FACTORIES), ids=lambda c: c.name)
def test_bulk_protect_matches_per_slice_reference(cls):
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_lanes=st.integers(1, 8),
        lane_batch=st.integers(1, 2),
        heads=st.integers(0, 3),
        m=st.integers(1, 4),
        k=st.integers(1, 4),
        n=st.integers(1, 5),
        tripped=st.sets(st.integers(0, 47), max_size=12),
        use_lanes=st.booleans(),
        site=st.sampled_from([SITE, SITE_O]),
    )
    def check(seed, n_lanes, lane_batch, heads, m, k, n, tripped, use_lanes, site):
        call = _stacked_call(
            seed, n_lanes, lane_batch, heads, m, k, n, sorted(tripped), site
        )
        _check_bulk_matches_reference(cls, call, n_lanes, use_lanes)

    check()


@pytest.mark.parametrize("cls", list(PROTECTOR_FACTORIES), ids=lambda c: c.name)
@pytest.mark.parametrize("corrupt", [False, True])
def test_bulk_protect_plain_gemm_matches_reference(cls, corrupt, rng):
    from repro.dispatch.pipeline import GemmCall

    a = rng.integers(-128, 128, size=(5, 4)).astype(np.int8)
    b = rng.integers(-128, 128, size=(4, 3)).astype(np.int8)
    clean = a.astype(np.int64) @ b.astype(np.int64)
    acc = clean.copy()
    if corrupt:
        acc[2, 1] += 1 << 30
    call = GemmCall(
        site=SITE, kind="linear", a_q=a, b_q=b, macs=60,
        out_shape=(5, 3), clean=clean, acc=acc,
    )
    _check_bulk_matches_reference(cls, call, 1, use_lanes=False)


def test_lane_protector_refuses_a_plain_gemm(rng):
    """A plain 2-D GEMM has no lane structure, tripped or not."""
    from repro.abft.protectors import LaneProtector
    from repro.dispatch.pipeline import GemmCall, ProtectInstrument

    protect = ProtectInstrument(LaneProtector([ClassicalABFT(), ClassicalABFT()]))
    with pytest.raises(ValueError, match="lane"):
        protect.replay(GemmCall(site=SITE, macs=12, out_shape=(3, 4)))
