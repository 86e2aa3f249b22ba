"""Shared experiment context: dataset, split, ground truth, trained models.

Every table/figure runner works from an :class:`ExperimentContext`, which
lazily builds (and caches) the dataset, the chronological split, the
training graph bundles for both evaluation scenarios and the fitted
models, so a full experiment session trains each configuration exactly
once.

The default knobs are sized for the ``beijing-small`` preset — large
enough that the paper's orderings emerge from the noise, small enough
that the whole suite runs in minutes on a laptop.  Everything is
overridable for full-scale runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines import CBPF, CFAPRE, PCMF, PER
from repro.core import GEM
from repro.core.interfaces import Recommender
from repro.data import chronological_split, make_dataset
from repro.data.splits import DatasetSplit, PartnerTriple
from repro.ebsn.graphs import GraphBundle
from repro.ebsn.network import EBSN
from repro.serving import MetricsRegistry

#: Model names in the paper's Fig 3 legend order.
EVENT_MODELS = ("GEM-A", "GEM-P", "PTE", "CBPF", "PER", "PCMF")
#: Fig 4/5 additionally compare CFAPR-E.
PARTNER_MODELS = EVENT_MODELS + ("CFAPR-E",)


def complete_summary(metrics: MetricsRegistry, **criteria: object) -> dict:
    """``metrics.summary(**criteria)``, never over a partly evicted sample.

    The registry aggregates its newest window only; past the wrap a
    table would silently report the mean of whatever was left.
    """
    n_evicted = len(metrics) - len(metrics.records)
    if n_evicted:
        raise RuntimeError(
            f"{n_evicted} of {len(metrics)} query records left the metrics "
            "window unsummarised; use one MetricsRegistry per measured point"
        )
    return metrics.summary(**criteria)


@dataclass
class ExperimentContext:
    """Lazily constructed shared state for the experiment runners."""

    preset: str = "beijing-small"
    seed: int = 7
    dim: int = 64
    n_samples: int = 3_000_000
    eval_seed: int = 3
    max_event_cases: int | None = 1500
    max_partner_cases: int | None = 1000

    _ebsn: EBSN | None = field(default=None, repr=False)
    _split: DatasetSplit | None = field(default=None, repr=False)
    _bundles: dict[str, GraphBundle] = field(default_factory=dict, repr=False)
    _triples: list[PartnerTriple] | None = field(default=None, repr=False)
    _models: dict[tuple, Recommender] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    @property
    def ebsn(self) -> EBSN:
        if self._ebsn is None:
            self._ebsn, _truth = make_dataset(self.preset, seed=self.seed)
        return self._ebsn

    @property
    def split(self) -> DatasetSplit:
        if self._split is None:
            self._split = chronological_split(self.ebsn)
        return self._split

    @property
    def triples(self) -> list[PartnerTriple]:
        """Event-partner ground truth over the test events (both scenarios
        share it; scenario 2 differs only in the training graph)."""
        if self._triples is None:
            self._triples = self.split.partner_triples()
        return self._triples

    def bundle(self, scenario: int = 1) -> GraphBundle:
        """Training graphs: scenario 1 keeps all friendships; scenario 2
        removes the test triples' social links (potential friends)."""
        key = f"scenario{scenario}"
        if key not in self._bundles:
            if scenario == 1:
                self._bundles[key] = self.split.training_bundle()
            elif scenario == 2:
                excluded = self.split.scenario2_excluded_pairs(self.triples)
                self._bundles[key] = self.split.training_bundle(
                    excluded_friend_pairs=excluded
                )
            else:
                raise ValueError(f"scenario must be 1 or 2, got {scenario}")
        return self._bundles[key]

    # ------------------------------------------------------------------
    def make_model(
        self,
        name: str,
        *,
        dim: int | None = None,
        n_samples: int | None = None,
        **overrides,
    ) -> Recommender:
        """Construct (without fitting) a fresh model by paper name."""
        dim = dim or self.dim
        n_samples = n_samples or self.n_samples
        if name == "GEM-A":
            return GEM.gem_a(dim=dim, n_samples=n_samples, seed=self.seed, **overrides)
        if name == "GEM-P":
            return GEM.gem_p(dim=dim, n_samples=n_samples, seed=self.seed, **overrides)
        if name == "PTE":
            return GEM.pte(dim=dim, n_samples=n_samples, seed=self.seed, **overrides)
        if name == "PCMF":
            from repro.baselines.pcmf import PCMFConfig

            return PCMF(PCMFConfig(dim=dim, seed=self.seed, **overrides))
        if name == "CBPF":
            from repro.baselines.cbpf import CBPFConfig

            return CBPF(CBPFConfig(dim=dim, seed=self.seed, **overrides))
        if name == "PER":
            from repro.baselines.per import PERConfig

            return PER(PERConfig(seed=self.seed, **overrides))
        raise KeyError(f"unknown model name: {name!r}")

    def model(self, name: str, *, scenario: int = 1, **overrides) -> Recommender:
        """A fitted model, cached per (name, scenario, overrides)."""
        key = (name, scenario, tuple(sorted(overrides.items())))
        if key in self._models:
            return self._models[key]
        bundle = self.bundle(scenario)
        if name == "CFAPR-E":
            base = self.model("GEM-A", scenario=scenario, **overrides)
            fitted: Recommender = CFAPRE(base).fit(bundle)
        else:
            fitted = self.make_model(name, **overrides).fit(bundle)
        self._models[key] = fitted
        return fitted


def format_accuracy_table(
    title: str,
    n_values: tuple[int, ...],
    rows: dict[str, dict[int, float]],
) -> str:
    """Render ``{model: {n: accuracy}}`` as an aligned text table."""
    header = f"{'model':<10}" + "".join(f"Ac@{n:<7}" for n in n_values)
    lines = [title, header, "-" * len(header)]
    for model, accs in rows.items():
        lines.append(
            f"{model:<10}" + "".join(f"{accs[n]:<10.3f}" for n in n_values)
        )
    return "\n".join(lines)
