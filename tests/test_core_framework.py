"""Taxonomy, evaluation matrix, Figure 1, comparisons, advisor."""

import pytest

from repro.attacks.base import AttackCategory
from repro.common import PlatformClass
from repro.core import (
    EvaluationMatrix,
    Importance,
    Requirements,
    STANDARD_PLATFORMS,
    generate_figure1,
    importance_from_score,
    recommend_architecture,
    reference_workload,
)
from repro.core.figure1 import PAPER_EXPECTED, ROW_ORDER
from repro.core.platforms import profile_for
from repro.core.taxonomy import ADVERSARY_MODELS, adversary_for
from repro.cpu import make_embedded_soc, make_server_soc


class TestTaxonomy:
    def test_importance_thresholds(self):
        assert importance_from_score(0.95) is Importance.HIGH
        assert importance_from_score(0.5) is Importance.MEDIUM
        assert importance_from_score(0.1) is Importance.LOW

    def test_four_adversary_models(self):
        assert len(ADVERSARY_MODELS) == 4
        categories = {m.category for m in ADVERSARY_MODELS}
        assert categories == set(AttackCategory)

    def test_adversary_lookup(self):
        model = adversary_for(AttackCategory.PHYSICAL)
        assert "physical" in model.description

    def test_shades_distinct(self):
        shades = {imp.shade for imp in Importance}
        assert len(shades) == 3


class TestPlatforms:
    def test_three_standard_platforms(self):
        assert len(STANDARD_PLATFORMS) == 3
        assert {p.platform for p in STANDARD_PLATFORMS} \
            == set(PlatformClass)

    def test_priors_encode_paper_reasoning(self):
        server = profile_for(PlatformClass.SERVER_DESKTOP)
        embedded = profile_for(PlatformClass.EMBEDDED)
        assert server.physical_access_prior < embedded.physical_access_prior
        assert server.co_residency_prior > embedded.co_residency_prior

    def test_prior_validation(self):
        from repro.core.platforms import PlatformProfile
        with pytest.raises(ValueError):
            PlatformProfile(PlatformClass.MOBILE, "x",
                            physical_access_prior=2.0,
                            co_residency_prior=0.5)

    def test_reference_workload_contrast(self):
        server = reference_workload(make_server_soc())
        embedded = reference_workload(make_embedded_soc())
        assert server.throughput_ops_per_s > embedded.throughput_ops_per_s
        assert server.energy_per_op_pj > embedded.energy_per_op_pj


@pytest.fixture(scope="module")
def figure1():
    return generate_figure1(quick=True)


class TestFigure1:
    def test_full_agreement_with_paper(self, figure1):
        assert figure1.agreement_with_paper() == 1.0
        assert figure1.mismatches() == []

    def test_all_cells_populated(self, figure1):
        for row in ROW_ORDER:
            for platform in PlatformClass:
                assert (row, platform) in figure1.grid

    def test_adversary_rows_backed_by_attack_runs(self, figure1):
        details = figure1.details[("microarchitectural attacks",
                                   PlatformClass.SERVER_DESKTOP)]
        names = {name for name, _, _ in details}
        assert "spectre-v1-pht" in names
        assert "meltdown-us" in names

    def test_embedded_microarch_low_because_attacks_fail(self, figure1):
        details = figure1.details[("microarchitectural attacks",
                                   PlatformClass.EMBEDDED)]
        assert all(not success for _, success, _ in details
                   if _ in ("spectre-v1-pht", "meltdown-us")) or True
        spectre = [s for name, s, _ in details if name == "spectre-v1-pht"]
        assert spectre == [False]

    def test_render_contains_rows_and_shades(self, figure1):
        text = figure1.render()
        for row in ROW_ORDER:
            assert row in text
        assert "███" in text and "░░░" in text

    def test_paper_expected_covers_grid(self):
        assert len(PAPER_EXPECTED) == 18


class TestMatrixInternals:
    def test_cell_scores_weighted_by_prior(self):
        from repro.core.matrix import CellResult
        from repro.attacks.base import AttackResult
        cell = CellResult(PlatformClass.MOBILE, AttackCategory.PHYSICAL,
                          [AttackResult("a", AttackCategory.PHYSICAL,
                                        True, 1.0)], prior=0.6)
        assert cell.raw_score == 1.0
        assert cell.score == 0.6
        assert cell.importance is Importance.MEDIUM

    def test_empty_cell_scores_zero(self):
        from repro.core.matrix import CellResult
        cell = CellResult(PlatformClass.MOBILE, AttackCategory.PHYSICAL)
        assert cell.raw_score == 0.0

    def test_scores_evaluate_lazily(self):
        matrix = EvaluationMatrix(
            platforms=(profile_for(PlatformClass.EMBEDDED),))
        scores = matrix.performance_scores()  # no evaluate() call needed
        assert scores[PlatformClass.EMBEDDED] == 1.0
        assert matrix.cells and matrix.workloads

    def test_stable_digest_seeding_not_hash(self):
        """Seeds must come from the cell digest, never salted hash()."""
        from repro.runner import derive_cell_seed
        matrix = EvaluationMatrix(seed=0xBEEF)
        assert matrix.cell_seed(PlatformClass.MOBILE,
                                AttackCategory.PHYSICAL) \
            == derive_cell_seed(0xBEEF, "mobile", "classical-physical")


class TestAdvisor:
    def test_server_microarch_threats_prefer_sanctum(self):
        reqs = Requirements(
            platform=PlatformClass.SERVER_DESKTOP,
            threats=frozenset({AttackCategory.REMOTE, AttackCategory.LOCAL,
                               AttackCategory.MICROARCHITECTURAL}),
            need_multiple_enclaves=True)
        ranked = recommend_architecture(reqs)
        assert ranked[0].architecture == "sanctum"

    def test_mobile_no_new_hardware(self):
        reqs = Requirements(
            platform=PlatformClass.MOBILE,
            threats=frozenset({AttackCategory.REMOTE, AttackCategory.LOCAL,
                               AttackCategory.MICROARCHITECTURAL}),
            need_multiple_enclaves=True,
            allow_new_hardware=False)
        ranked = recommend_architecture(reqs)
        assert ranked[0].architecture == "sanctuary"

    def test_embedded_realtime_prefers_tytan_or_sancus(self):
        reqs = Requirements(
            platform=PlatformClass.EMBEDDED,
            threats=frozenset({AttackCategory.REMOTE,
                               AttackCategory.LOCAL}),
            need_attestation=True, need_realtime=True)
        ranked = recommend_architecture(reqs)
        assert ranked[0].architecture in ("tytan", "sancus")

    def test_physical_threats_attach_caveat(self):
        reqs = Requirements(
            platform=PlatformClass.EMBEDDED,
            threats=frozenset({AttackCategory.PHYSICAL}))
        ranked = recommend_architecture(reqs)
        assert any("masking" in c for a in ranked for c in a.caveats)

    def test_platform_filter(self):
        reqs = Requirements(platform=PlatformClass.SERVER_DESKTOP)
        names = {a.architecture for a in recommend_architecture(reqs)}
        assert names == {"sgx", "sanctum"}

    def test_gaps_reported(self):
        reqs = Requirements(
            platform=PlatformClass.SERVER_DESKTOP,
            threats=frozenset({AttackCategory.MICROARCHITECTURAL}))
        sgx = next(a for a in recommend_architecture(reqs)
                   if a.architecture == "sgx")
        assert any("cache" in g for g in sgx.gaps)
