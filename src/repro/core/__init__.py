"""The paper's contribution: the cross-platform comparison framework.

The survey's intellectual content is a taxonomy (adversaries × platforms
× architectures) and a set of qualitative judgements (Figure 1, the
Section 3-5 comparisons).  This package *derives* those judgements from
experiment outcomes on the simulated stack instead of asserting them:

* :mod:`repro.core.taxonomy` — adversary models and importance levels;
* :mod:`repro.core.platforms` — the three platform profiles with their
  exposure priors and measured performance/energy characteristics;
* :mod:`repro.core.matrix` — runs the attack suite per platform and
  aggregates per-category scores;
* :mod:`repro.core.figure1` — regenerates Figure 1 from those scores;
* :mod:`repro.core.comparison` — regenerates the Section 3/4 architecture
  comparison tables from features + live attack outcomes;
* :mod:`repro.core.advisor` — Section 6's closing advice ("select the
  optimal security architecture given the energy and performance budget")
  as a scoring engine.

The package namespace is lazy (PEP 562): each name imports its
submodule on first access, so rendering Figure 1 from cached cells
never loads the comparison tables' architectures and attacks.
"""

from repro.common import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "taxonomy": ("AdversaryModel", "Importance", "importance_from_score"),
    "platforms": ("PlatformProfile", "STANDARD_PLATFORMS",
                  "reference_workload"),
    "matrix": ("CellResult", "EvaluationMatrix"),
    "figure1": ("Figure1", "generate_figure1"),
    "comparison": ("architecture_feature_table", "cache_defence_table",
                   "render_table", "transient_applicability_table"),
    "advisor": ("Advice", "Requirements", "recommend_architecture"),
})
