"""Figure 1, regenerated from measurement.

The paper's only figure: a grid of adversary models and non-functional
requirements against the three platform classes, "the darker the color,
the higher the importance".  :func:`generate_figure1` derives every cell
from the evaluation matrix — attack outcomes weighted by exposure priors
for the adversary rows, measured throughput/energy for the requirement
rows — and :meth:`Figure1.render` prints the shaded grid.

:data:`PAPER_EXPECTED` records the shading as published, so the bench can
report cell-level agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.result import AttackCategory
from repro.common import PlatformClass
from repro.core.matrix import EvaluationMatrix
from repro.core.taxonomy import Importance, importance_from_score
from repro.runner import ExperimentRunner

ROW_ORDER = (
    "remote attacks",
    "local attacks",
    "classical physical attacks",
    "microarchitectural attacks",
    "performance",
    "energy budget",
)

COLUMN_ORDER = (
    PlatformClass.SERVER_DESKTOP,
    PlatformClass.MOBILE,
    PlatformClass.EMBEDDED,
)

_CATEGORY_ROWS = {
    "remote attacks": AttackCategory.REMOTE,
    "local attacks": AttackCategory.LOCAL,
    "classical physical attacks": AttackCategory.PHYSICAL,
    "microarchitectural attacks": AttackCategory.MICROARCHITECTURAL,
}

#: The shading as printed in the paper (our reading of Figure 1).
PAPER_EXPECTED: dict[tuple[str, PlatformClass], Importance] = {
    ("remote attacks", PlatformClass.SERVER_DESKTOP): Importance.HIGH,
    ("remote attacks", PlatformClass.MOBILE): Importance.HIGH,
    ("remote attacks", PlatformClass.EMBEDDED): Importance.HIGH,
    ("local attacks", PlatformClass.SERVER_DESKTOP): Importance.HIGH,
    ("local attacks", PlatformClass.MOBILE): Importance.HIGH,
    ("local attacks", PlatformClass.EMBEDDED): Importance.HIGH,
    ("classical physical attacks",
     PlatformClass.SERVER_DESKTOP): Importance.LOW,
    ("classical physical attacks", PlatformClass.MOBILE): Importance.MEDIUM,
    ("classical physical attacks", PlatformClass.EMBEDDED): Importance.HIGH,
    ("microarchitectural attacks",
     PlatformClass.SERVER_DESKTOP): Importance.HIGH,
    ("microarchitectural attacks", PlatformClass.MOBILE): Importance.MEDIUM,
    ("microarchitectural attacks", PlatformClass.EMBEDDED): Importance.LOW,
    ("performance", PlatformClass.SERVER_DESKTOP): Importance.HIGH,
    ("performance", PlatformClass.MOBILE): Importance.MEDIUM,
    ("performance", PlatformClass.EMBEDDED): Importance.LOW,
    ("energy budget", PlatformClass.SERVER_DESKTOP): Importance.LOW,
    ("energy budget", PlatformClass.MOBILE): Importance.MEDIUM,
    ("energy budget", PlatformClass.EMBEDDED): Importance.HIGH,
}


@dataclass
class Figure1:
    """The regenerated figure.

    A grid value of ``None`` marks a cell that was explicitly *not
    evaluated* — its every execution attempt failed under the tolerant
    runner policy — as opposed to a measured low-importance cell.
    """

    grid: dict[tuple[str, PlatformClass], Importance | None]
    scores: dict[tuple[str, PlatformClass], float | None]
    details: dict = field(default_factory=dict)

    def cell(self, row: str, platform: PlatformClass) -> Importance | None:
        return self.grid[(row, platform)]

    def not_evaluated(self) -> list[tuple[str, PlatformClass]]:
        """The cells rendered as ``n/e`` (no trustworthy measurement)."""
        return [key for key in self.grid if self.grid[key] is None]

    def agreement_with_paper(self) -> float:
        """Fraction of cells matching the published shading."""
        matches = sum(1 for key, expected in PAPER_EXPECTED.items()
                      if self.grid.get(key) == expected)
        return matches / len(PAPER_EXPECTED)

    def mismatches(self) -> list[tuple[str, PlatformClass,
                                       Importance, Importance]]:
        """Cells where measurement disagrees with the published figure."""
        return [(row, platform, self.grid[(row, platform)], expected)
                for (row, platform), expected in PAPER_EXPECTED.items()
                if self.grid.get((row, platform)) != expected]

    def render(self) -> str:
        """ASCII rendering in the figure's layout."""
        col_width = 18
        header = " " * 30 + "".join(
            platform.value.center(col_width) for platform in COLUMN_ORDER)
        lines = [header, "-" * len(header)]
        for row in ROW_ORDER:
            cells = []
            for platform in COLUMN_ORDER:
                level = self.grid[(row, platform)]
                score = self.scores[(row, platform)]
                if level is None or score is None:
                    cells.append("···  n/e".center(col_width))
                else:
                    cells.append(
                        f"{level.shade} {score:4.2f}".center(col_width))
            lines.append(f"{row:<30}" + "".join(cells))
        lines.append("-" * len(header))
        lines.append("shading: ███ high   ▒▒▒ medium   ░░░ low "
                     "(score in cell)   ··· not evaluated")
        return "\n".join(lines)


def generate_figure1(matrix: EvaluationMatrix | None = None,
                     quick: bool = True,
                     runner: "ExperimentRunner | None" = None) -> Figure1:
    """Run (or reuse) the evaluation matrix and shade the figure.

    ``runner`` (forwarded to :class:`EvaluationMatrix` when ``matrix`` is
    not supplied) selects parallel and/or cached execution; its ``stats``
    afterwards describe the run.
    """
    if matrix is None:
        matrix = EvaluationMatrix(quick=quick, runner=runner)
    matrix.evaluate()

    grid: dict[tuple[str, PlatformClass], Importance] = {}
    scores: dict[tuple[str, PlatformClass], float] = {}
    details: dict = {}

    for row, category in _CATEGORY_ROWS.items():
        for platform in COLUMN_ORDER:
            cell = matrix.cells.get((platform, category))
            if cell is None or not cell.evaluated:
                grid[(row, platform)] = None
                scores[(row, platform)] = None
                details[(row, platform)] = []
                continue
            grid[(row, platform)] = cell.importance
            scores[(row, platform)] = cell.score
            details[(row, platform)] = [
                (a.name, a.success, round(a.score, 3))
                for a in cell.attacks]

    for platform, score in matrix.performance_scores().items():
        grid[("performance", platform)] = importance_from_score(score)
        scores[("performance", platform)] = score
    for platform, score in matrix.energy_constraint_scores().items():
        grid[("energy budget", platform)] = importance_from_score(score)
        scores[("energy budget", platform)] = score

    # A platform whose reference workload failed has no requirement-row
    # measurements: mark those cells not-evaluated rather than KeyError.
    for row in ROW_ORDER:
        for platform in COLUMN_ORDER:
            grid.setdefault((row, platform), None)
            scores.setdefault((row, platform), None)

    return Figure1(grid=grid, scores=scores, details=details)
