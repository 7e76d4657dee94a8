"""Tests for the deadline-aware resilience layer (:mod:`repro.resilience`).

Covers the PR's acceptance criteria end to end:

* budgets and cooperative cancellation produce anytime partial renders
  whose per-pixel envelopes still satisfy ``LB <= F <= UB`` against the
  brute-force exact density;
* fault plans fire on the same tiles across versions, and a
  ``REPRO_FAULTS`` plan that kills pool workers still yields an image
  bit-identical to the fault-free run;
* checkpoint/resume reproduces the uninterrupted image bit-for-bit and
  rejects mismatched signatures;
* the CLI writes the partial image plus a ``.degraded.json`` sidecar.
"""

import json
import os

import numpy as np
import pytest

from repro.core.exact import exact_density
from repro.errors import (
    CheckpointError,
    DeadlineExceededError,
    InvalidParameterError,
    TransientTileError,
)
from repro.resilience import (
    STOP_CANCELLED,
    STOP_DEADLINE,
    STOP_INTERRUPT,
    STOP_KERNEL_BUDGET,
    STOP_TILE_FAILURES,
    Budget,
    CancellationToken,
    DegradedResult,
    FaultPlan,
    RenderOutcome,
    TileLedger,
    run_tiles,
)
from repro.resilience.faults import FAULT_WORKER_KILL, fault_fires
from repro.visual.executors import close_render_pools
from repro.visual.kdv import KDVRenderer
from repro.visual.request import RenderOptions, RenderRequest
from tests.test_backends_executors import _break_tile_one


def small_points(n=400, seed=11):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 2)) * [1.0, 0.6]


def tiled(renderer, request, **options):
    """``request`` rendered through the tile driver with ``options``."""
    return renderer.render(request.replace(options=RenderOptions(**options)))


@pytest.fixture
def renderer():
    return KDVRenderer(small_points(), resolution=(40, 30))


class TestBudgetToken:
    def test_deadline_validation(self):
        with pytest.raises(Exception):
            Budget(deadline_s=-1.0)
        with pytest.raises(Exception):
            Budget(max_kernel_evals=0)

    def test_unlimited(self):
        assert Budget().unlimited
        assert not Budget(deadline_s=1.0).unlimited

    def test_from_deadline_ms(self):
        budget = Budget.from_deadline_ms(250.0)
        assert budget.deadline_s == pytest.approx(0.25)

    def test_kernel_budget_trips_and_latches(self):
        token = Budget(max_kernel_evals=100).token()
        token.start()
        token.charge(50)
        assert token.stop_reason() is None
        token.charge(51)
        assert token.stop_reason() == STOP_KERNEL_BUDGET
        # Latched: the first reason survives later checks.
        assert token.triggered
        assert token.reason == STOP_KERNEL_BUDGET

    def test_explicit_cancel_wins_first(self):
        token = CancellationToken()
        token.cancel()
        assert token.stop_reason() == STOP_CANCELLED
        token.cancel("other")
        assert token.reason == STOP_CANCELLED

    def test_deadline_trips(self):
        token = Budget(deadline_s=1e-9).token()
        token.start()
        assert token.stop_reason() == STOP_DEADLINE

    def test_memory_cap(self):
        token = Budget(max_memory_bytes=1000).token()
        token.start()
        assert token.stop_reason(memory_bytes=999) is None
        assert token.stop_reason(memory_bytes=1001) == "memory"


class TestFaultPlan:
    def test_parse_roundtrip(self):
        plan = FaultPlan.parse("worker_kill:0.05,slow_response:0.1,seed:7,slow_ms:2")
        assert plan.rates == {"worker_kill": 0.05, "slow_response": 0.1}
        assert plan.seed == 7
        assert plan.slow_ms == pytest.approx(2.0)

    def test_parse_rejects_unknown_kind(self):
        # The in-process kinds 3.x accepted are unknown kinds now.
        for kind in ("explode", "worker_crash", "slow_tile", "nan_bounds", "oom"):
            with pytest.raises(InvalidParameterError, match="unknown fault kind"):
                FaultPlan.parse(f"{kind}:0.05")

    def test_parse_rejects_bad_rate(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan.parse("worker_kill:1.5")

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "pool_break:0.25")
        plan = FaultPlan.from_env()
        assert plan is not None and plan.rates == {"pool_break": 0.25}
        monkeypatch.delenv("REPRO_FAULTS")
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "worker_crash:0.05")
        with pytest.raises(InvalidParameterError, match="unknown fault kind"):
            FaultPlan.from_env()

    def test_injection_is_deterministic(self):
        # Each kind keeps its roll integer, so a plan fires on the same
        # tiles in every version: at seed 0 and rate 0.05, on these of
        # the chaos smoke's 80 tiles.
        fired = {
            kind: [tile for tile in range(80) if fault_fires(0, kind, tile, 1, 0.05)]
            for kind in ("worker_kill", "pool_break", "slow_response")
        }
        assert fired == {
            "worker_kill": [45, 60, 72, 76],
            "pool_break": [24, 35, 38, 53, 61, 77],
            "slow_response": [2, 54, 62, 69],
        }


class TestDeadlinePartialRender:
    def test_envelope_contains_exact_density(self, renderer):
        outcome = tiled(
            renderer, RenderRequest.for_eps(0.05),
            tile_size=8, budget=Budget(max_kernel_evals=2500), anytime=True,
        )
        assert not outcome.complete
        degraded = outcome.degraded
        assert degraded.reason == STOP_KERNEL_BUDGET
        assert 0 <= degraded.pixels_resolved < degraded.pixels_total
        assert degraded.worst_gap > 0
        centers = renderer.grid.centers()
        exact = renderer.grid.to_image(
            exact_density(
                renderer.points, centers, renderer.kernel, renderer.gamma,
                renderer.weight,
            )
        )
        assert (outcome.lower <= exact + 1e-12).all()
        assert (exact <= outcome.upper + 1e-12).all()

    def test_degraded_sidecar_schema(self, renderer):
        outcome = tiled(
            renderer, RenderRequest.for_eps(0.05),
            tile_size=8, budget=Budget(max_kernel_evals=2500), anytime=True,
        )
        payload = outcome.degraded.as_dict()
        encoded = json.loads(json.dumps(payload))
        assert encoded["reason"] == STOP_KERNEL_BUDGET
        assert 0.0 <= encoded["resolved_fraction"] <= 1.0
        assert encoded["budget"]["max_kernel_evals"] == 2500

    def test_tau_partial_is_conservatively_cold(self, renderer):
        mu, sigma = renderer.density_stats()
        tau = mu + 0.1 * sigma
        outcome = tiled(
            renderer, RenderRequest.for_tau(tau),
            tile_size=8, budget=Budget(max_kernel_evals=2000), anytime=True,
        )
        reference = tiled(renderer, RenderRequest.for_tau(tau), tile_size=8)
        partial = outcome.image.astype(bool)
        # Undecided pixels render cold: no false positives vs the
        # complete reference mask.
        assert not (partial & ~reference).any()

    @pytest.mark.parametrize("workers", [None, 2], ids=["in-process", "pool"])
    @pytest.mark.parametrize("op", ["eps", "tau"])
    def test_strict_render_raises_when_its_budget_trips(self, renderer, op, workers):
        # A strict render whose budget trips raises instead of returning
        # its partial image; the error carries that image, which equals
        # the same render's anytime image.
        if op == "eps":
            request = RenderRequest.for_eps(0.01)
        else:
            mu, sigma = renderer.density_stats()
            request = RenderRequest.for_tau(mu + 0.1 * sigma)

        def spent_token():
            token = Budget(max_kernel_evals=1).token()
            token.charge(1)
            return token

        try:
            anytime = tiled(
                renderer, request, tile_size=8, workers=workers,
                cancel=spent_token(), anytime=True,
            )
            with pytest.raises(DeadlineExceededError, match="kernel-budget") as caught:
                tiled(renderer, request, tile_size=8, workers=workers, cancel=spent_token())
        finally:
            close_render_pools()
        assert anytime.degraded.reason == STOP_KERNEL_BUDGET
        error = caught.value
        np.testing.assert_array_equal(error.partial_values, anytime.image)
        assert error.pixels_resolved == anytime.degraded.pixels_resolved
        assert error.pixels_total == renderer.grid.num_pixels

    @pytest.mark.parametrize(
        "reason,raised",
        [
            (STOP_TILE_FAILURES, TransientTileError),
            (STOP_INTERRUPT, KeyboardInterrupt),
            (STOP_DEADLINE, DeadlineExceededError),
            (STOP_CANCELLED, DeadlineExceededError),
        ],
    )
    def test_each_stop_reason_raises_its_strict_error(self, reason, raised):
        image = np.zeros((2, 3))
        degraded = DegradedResult(
            reason=reason, pixels_total=6, pixels_resolved=2, worst_gap=1.0,
            tiles_total=2, tiles_completed=1,
        )
        RenderOutcome(image, image, image, image > 0).raise_if_stopped("eps render")
        outcome = RenderOutcome(image, image, image, image > 0, degraded=degraded)
        with pytest.raises(raised):
            outcome.raise_if_stopped("eps render")

    def test_anytime_complete_matches_strict_path(self, renderer):
        strict = tiled(renderer, RenderRequest.for_eps(0.05), tile_size=8)
        outcome = tiled(
            renderer, RenderRequest.for_eps(0.05),
            tile_size=8, anytime=True,
        )
        assert outcome.complete
        assert np.array_equal(outcome.image, strict)
        assert bool(np.asarray(outcome.resolved).all())


class TestFaultRecovery:
    def test_fault_env_engages_tiled_render(self, renderer, monkeypatch):
        # A REPRO_FAULTS plan reaches the pool's workers: the worker
        # refining tile 11 is killed, the pool rebuilds and replays, and
        # the strict image equals the fault-free one.
        from repro.visual.executors import pool_supervision_totals

        reference = tiled(renderer, RenderRequest.for_eps(0.05), tile_size=8)
        assert fault_fires(1, FAULT_WORKER_KILL, 11, 1, 0.1)
        monkeypatch.setenv("REPRO_FAULTS", "worker_kill:0.1,seed:1")
        rebuilds = pool_supervision_totals()["rebuilds"]
        try:
            faulted = tiled(
                renderer, RenderRequest.for_eps(0.05), tile_size=8, workers=2
            )
        finally:
            close_render_pools()
        assert pool_supervision_totals()["rebuilds"] > rebuilds
        assert np.array_equal(faulted, reference)

    def test_fatal_error_propagates(self):
        tiles = [np.array([0], dtype=np.intp)]

        def evaluate(engine, pixels):
            raise CheckpointError("tile failed")

        with pytest.raises(CheckpointError):
            run_tiles(
                tiles, evaluate, lambda *a: True,
                lambda worker_id: None, token=CancellationToken(),
            )


class TestCheckpointResume:
    def test_resume_bit_identical(self, renderer, tmp_path):
        reference = tiled(renderer, RenderRequest.for_eps(0.05), tile_size=8)
        ckpt = tmp_path / "render.npz"
        partial = tiled(
            renderer, RenderRequest.for_eps(0.05),
            tile_size=8, anytime=True,
            budget=Budget(max_kernel_evals=4000), checkpoint=str(ckpt),
        )
        assert not partial.complete
        ledger = TileLedger.load(ckpt)
        resumed = tiled(
            renderer, RenderRequest.for_eps(0.05),
            tile_size=8, resume_from=str(ckpt), anytime=True,
        )
        assert resumed.complete
        assert np.array_equal(resumed.image, reference)
        # Completed tiles were not recomputed: the resumed envelope for
        # those pixels equals the checkpointed one bit-for-bit.
        for tile in ledger.completed_tiles():
            pixels = list(renderer.grid.tiles(8))[tile]
            flat_lower = np.asarray(resumed.lower).ravel()
            assert np.array_equal(flat_lower[pixels], ledger.lower[pixels])

    def test_signature_mismatch_rejected(self, renderer, tmp_path):
        ckpt = tmp_path / "render.npz"
        tiled(
            renderer, RenderRequest.for_eps(0.05),
            tile_size=8, checkpoint=str(ckpt), anytime=True,
        )
        with pytest.raises(CheckpointError):
            tiled(
                renderer, RenderRequest.for_eps(0.04),
                tile_size=8, resume_from=str(ckpt), anytime=True,
            )
        with pytest.raises(CheckpointError):
            tiled(
                renderer, RenderRequest.for_tau(0.01),
                tile_size=8, resume_from=str(ckpt), anytime=True,
            )

    def test_checkpoint_resumes_across_options_no_constructor_takes(
        self, renderer, tmp_path
    ):
        # ``index=`` reaches no constructor (the options are filtered as
        # in the request fingerprint), so the two renderers render the
        # same values and share a checkpoint signature.
        reference = tiled(renderer, RenderRequest.for_eps(0.05), tile_size=8)
        leftover = KDVRenderer(small_points(), resolution=(40, 30), index="ball")
        ckpt = tmp_path / "render.npz"
        partial = tiled(
            leftover, RenderRequest.for_eps(0.05),
            tile_size=8, anytime=True,
            budget=Budget(max_kernel_evals=4000), checkpoint=str(ckpt),
        )
        assert not partial.complete
        resumed = tiled(
            renderer, RenderRequest.for_eps(0.05),
            tile_size=8, resume_from=str(ckpt), anytime=True,
        )
        assert resumed.complete
        assert np.array_equal(resumed.image, reference)

    def test_signature_built_only_for_checkpoints(
        self, renderer, tmp_path, monkeypatch
    ):
        # The signature hashes every point; renders that neither write
        # nor resume a checkpoint must not pay for it.
        calls = []
        original = KDVRenderer._render_signature

        def spy(self, *args, **kwargs):
            calls.append(args[1])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(KDVRenderer, "_render_signature", spy)
        tiled(renderer, RenderRequest.for_eps(0.05), tile_size=8)
        tiled(renderer, RenderRequest.for_tau(0.01), tile_size=8, anytime=True)
        assert calls == []
        ckpt = str(tmp_path / "render.npz")
        tiled(
            renderer, RenderRequest.for_eps(0.05),
            tile_size=8, anytime=True, checkpoint=ckpt,
        )
        tiled(
            renderer, RenderRequest.for_eps(0.05),
            tile_size=8, anytime=True, resume_from=ckpt,
        )
        assert calls == ["eps", "eps"]

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"not an npz file")
        with pytest.raises(CheckpointError):
            TileLedger.load(path)

    def test_checkpoint_written_on_fault_giveup(self, renderer, tmp_path, monkeypatch):
        reference = tiled(renderer, RenderRequest.for_eps(0.05), tile_size=8)
        ckpt = tmp_path / "render.npz"
        _break_tile_one(monkeypatch, renderer, 8)
        outcome = tiled(
            renderer, RenderRequest.for_eps(0.05),
            tile_size=8, anytime=True, checkpoint=str(ckpt),
        )
        monkeypatch.undo()
        assert outcome.degraded.reason == STOP_TILE_FAILURES
        assert [entry["tile"] for entry in outcome.degraded.tiles_failed] == [1]
        assert ckpt.exists()
        ledger = TileLedger.load(ckpt)
        completed = ledger.completed_tiles()
        assert 1 not in completed
        assert len(completed) == outcome.degraded.tiles_completed
        # Resume finishes the failed tile and converges to the
        # fault-free image.
        resumed = tiled(
            renderer, RenderRequest.for_eps(0.05),
            tile_size=8, resume_from=str(ckpt), anytime=True,
        )
        assert resumed.complete
        assert np.array_equal(resumed.image, reference)


class TestProgressiveResilience:
    def test_budget_stops_with_reason(self):
        from repro.visual.progressive import ProgressiveRenderer

        progressive = ProgressiveRenderer(
            small_points(), resolution=(24, 18), eps=0.05
        )
        result = progressive.run(budget=Budget(max_kernel_evals=3000))
        assert not result.complete
        assert result.stop_reason == STOP_KERNEL_BUDGET

    def test_complete_run_has_no_reason(self):
        from repro.visual.progressive import ProgressiveRenderer

        progressive = ProgressiveRenderer(
            small_points(), resolution=(12, 10), eps=0.05
        )
        result = progressive.run()
        assert result.complete
        assert result.stop_reason is None

    def test_max_pixels_reason(self):
        from repro.visual.progressive import ProgressiveRenderer

        progressive = ProgressiveRenderer(
            small_points(), resolution=(24, 18), eps=0.05
        )
        result = progressive.run(max_pixels=40)
        assert result.stop_reason == "max-pixels"


class TestCliSidecar:
    def test_deadline_writes_sidecar(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        out = tmp_path / "render.png"
        code = main(
            [
                "render", "--dataset", "crime", "--n", "800",
                "--width", "32", "--height", "24", "--eps", "0.05",
                "--tile-size", "8", "--deadline-ms", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        sidecar = tmp_path / "render.png.degraded.json"
        assert sidecar.exists()
        payload = json.loads(sidecar.read_text())
        assert payload["reason"] == STOP_DEADLINE
        assert payload["pixels_total"] == 32 * 24

    def test_complete_render_writes_no_sidecar(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "render.png"
        code = main(
            [
                "render", "--dataset", "crime", "--n", "500",
                "--width", "24", "--height", "16", "--eps", "0.05",
                "--tile-size", "8", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert not (tmp_path / "render.png.degraded.json").exists()


class TestExperimentBatchResilience:
    def test_keep_going_yields_error_and_continues(self):
        from repro.errors import ReproError
        from repro.experiments.runner import run_experiments

        outcomes = list(
            run_experiments(["no-such-experiment", "fig18"], keep_going=True)
        )
        assert [name for name, _ in outcomes] == ["no-such-experiment", "fig18"]
        assert isinstance(outcomes[0][1], ReproError)
        assert not isinstance(outcomes[1][1], ReproError)

    def test_default_aborts_on_first_failure(self):
        from repro.errors import ReproError
        from repro.experiments.runner import run_experiments

        with pytest.raises(ReproError):
            list(run_experiments(["no-such-experiment", "fig18"]))
