"""Job specifications: what a client submits to the evaluation service.

A :class:`JobSpec` is the declarative form of one evaluation campaign —
a (platform × category) sub-grid of the Figure-1 matrix at a chosen
seed and knob sizing — that expands deterministically into the same
:class:`~repro.runner.engine.CellSpec` objects the
:class:`~repro.runner.engine.ExperimentRunner` executes directly.  The
job's identity is the SHA-256 of its canonical JSON, so submission is
naturally idempotent (re-submitting the same campaign re-points at the
same job) and two clients asking for overlapping grids share cells
through the content-addressed result cache rather than recomputing.

A job carries no execution-lane choice: workers run every cell on the
fast lanes (batched attacks, sweep lane replay, memoized scanner), whose
payloads are bit-identical to the reference oracles'.  Job files
written when jobs still carried ``ensemble``/``batch`` flags load with
those keys ignored and keep their job id.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from repro.attacks.knobs import MatrixKnobs
from repro.attacks.result import AttackCategory
from repro.common import PlatformClass
from repro.runner.engine import SCAN_CATEGORY, WORKLOAD_CATEGORY, CellSpec

#: Current job-file schema; readers reject anything else.
JOB_SCHEMA = "repro-service-job/1"


def _default_platforms() -> tuple[str, ...]:
    return tuple(p.value for p in PlatformClass)


def _default_categories() -> tuple[str, ...]:
    return tuple(c.value for c in AttackCategory) + (WORKLOAD_CATEGORY,)


@dataclass(frozen=True)
class JobSpec:
    """One evaluation campaign, declaratively.

    ``knobs`` is the canonical tuple form from
    ``MatrixKnobs.as_key()``; ``platforms``/``categories`` name the
    sub-grid (category ``"workload"`` selects the reference-workload
    cell).
    """

    seed: int = 0x2019
    knobs: tuple[tuple[str, int], ...] = ()
    platforms: tuple[str, ...] = field(default_factory=_default_platforms)
    categories: tuple[str, ...] = field(default_factory=_default_categories)

    @property
    def job_id(self) -> str:
        """Content address of the campaign."""
        material = json.dumps({
            "schema": JOB_SCHEMA,
            "seed": self.seed,
            "knobs": [list(pair) for pair in self.knobs],
            "platforms": list(self.platforms),
            "categories": list(self.categories),
        }, sort_keys=True)
        return "job-" + hashlib.sha256(
            material.encode("utf-8")).hexdigest()[:16]

    def cells(self) -> list[CellSpec]:
        """The job's grid, in deterministic platform-major order."""
        return [CellSpec(seed=self.seed, platform=platform,
                         category=category, knobs=self.knobs)
                for platform in self.platforms
                for category in self.categories]

    # -- (de)serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": JOB_SCHEMA,
            "job_id": self.job_id,
            "seed": self.seed,
            "knobs": [list(pair) for pair in self.knobs],
            "platforms": list(self.platforms),
            "categories": list(self.categories),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        if data.get("schema") != JOB_SCHEMA:
            raise ValueError(
                f"not a {JOB_SCHEMA} document: {data.get('schema')!r}")
        return cls(
            seed=int(data["seed"]),
            knobs=tuple((str(k), int(v)) for k, v in data.get("knobs", [])),
            platforms=tuple(data["platforms"]),
            categories=tuple(data["categories"]))

    # -- construction helpers ----------------------------------------------

    @classmethod
    def matrix(cls, quick: bool = True, seed: int = 0x2019) -> "JobSpec":
        """The full Figure-1 evaluation grid as one job."""
        knobs = MatrixKnobs.quick() if quick else MatrixKnobs.full()
        return cls(seed=seed, knobs=knobs.as_key())

    @classmethod
    def from_manifest(cls, manifest) -> "JobSpec":
        """Reconstruct the campaign a RunManifest describes.

        This is the cold-resume path: a manifest plus the shared result
        cache is enough to re-submit the job — cells whose payloads
        already sit in the cache are skipped by every worker, so only
        genuinely missing cells recompute.

        A scan manifest is refused with :class:`ValueError`: each scan
        cell's seed is derived from its config name, so one job seed
        would rebuild different cells.
        """
        coords = sorted(manifest.outcomes)
        platforms: list[str] = []
        categories: list[str] = []
        for cell in coords:
            platform, _, category = cell.partition("/")
            if category == SCAN_CATEGORY:
                raise ValueError(
                    f"cannot resubmit scan cell {cell!r} from a manifest: "
                    "scan cells carry per-config derived seeds")
            if platform not in platforms:
                platforms.append(platform)
            if category not in categories:
                categories.append(category)
        knobs = tuple(sorted((str(k), int(v))
                             for k, v in manifest.knobs.items()))
        return cls(seed=int(manifest.seed or 0), knobs=knobs,
                   platforms=tuple(platforms),
                   categories=tuple(categories))

    def scoped(self, platforms=None, categories=None) -> "JobSpec":
        """A copy restricted to a sub-grid (test-sized jobs)."""
        return replace(
            self,
            platforms=tuple(platforms) if platforms else self.platforms,
            categories=tuple(categories) if categories else self.categories)
