"""Named dataset presets.

``beijing-full`` / ``shanghai-full`` mirror the paper's Table I counts
(Douban Event crawl): Beijing is ~1.8x Shanghai in users and ~1.9x in
events, with ~17 attendances per user and ~13 friendship links per user.
The ``*-small`` presets keep those *ratios* at a scale where the full
pipeline (train + evaluate every model) runs in seconds, and ``tiny`` is
for unit tests.

All presets derive deterministic datasets from (preset, seed).
"""

from __future__ import annotations

from dataclasses import replace

from repro.data.synthetic import SyntheticConfig, SyntheticGroundTruth, generate_ebsn
from repro.ebsn.network import EBSN

#: Shanghai city centre, used by the shanghai presets.
_SHANGHAI_LAT, _SHANGHAI_LON = 31.2304, 121.4737

PRESETS: dict[str, SyntheticConfig] = {
    "tiny": SyntheticConfig(
        name="tiny",
        n_users=60,
        n_events=40,
        n_venues=15,
        n_topics=4,
        n_geo_centers=3,
        target_attendances=420,
        target_friendships=160,
        words_per_event=14,
        words_per_topic=30,
        n_common_words=40,
        horizon_days=180,
    ),
    "beijing-small": SyntheticConfig(
        name="beijing-small",
        n_users=700,
        n_events=950,
        n_venues=90,
        n_topics=16,
        n_geo_centers=6,
        target_attendances=12000,
        target_friendships=4500,
        horizon_days=540,
        topic_word_ratio=0.45,
        offtopic_word_ratio=0.2,
        words_per_topic=120,
        words_per_event=16,
        n_common_words=400,
        interest_sharpness=1.2,
        hidden_trait_dim=6,
        hidden_trait_strength=1.0,
        with_ratings=True,
    ),
    "shanghai-small": SyntheticConfig(
        name="shanghai-small",
        n_users=400,
        n_events=500,
        n_venues=56,
        n_topics=12,
        n_geo_centers=5,
        city_lat=_SHANGHAI_LAT,
        city_lon=_SHANGHAI_LON,
        target_attendances=5200,
        target_friendships=1550,
        horizon_days=540,
        topic_word_ratio=0.45,
        offtopic_word_ratio=0.2,
        words_per_topic=120,
        words_per_event=16,
        n_common_words=400,
        interest_sharpness=1.2,
        hidden_trait_dim=6,
        hidden_trait_strength=1.0,
        with_ratings=True,
    ),
    # Table I scale. Generating these takes minutes and is intended for
    # offline full-scale runs, not CI.
    "beijing-full": SyntheticConfig(
        name="beijing-full",
        n_users=64113,
        n_events=12955,
        n_venues=3212,
        n_topics=24,
        n_geo_centers=12,
        target_attendances=1114097,
        target_friendships=865298,
        horizon_days=2600,
        topic_word_ratio=0.45,
        offtopic_word_ratio=0.2,
        words_per_topic=300,
        words_per_event=40,
        n_common_words=1500,
        interest_sharpness=1.2,
        hidden_trait_dim=8,
        hidden_trait_strength=1.0,
        with_ratings=True,
    ),
    # Million-user scale-out target (ROADMAP item 1): beijing-full
    # ratios scaled ~16x so the user base crosses 1M.  At this size the
    # embedding matrices only fit the serving path through the
    # memory-mapped store (repro.core.store); a capacity run consumes
    # the *counts* of this preset and fills the store with synthetic
    # non-negative embeddings chunk-by-chunk — generating the full EBSN
    # interaction graph at this scale is an offline-only job.
    "beijing-xl": SyntheticConfig(
        name="beijing-xl",
        n_users=1_050_000,
        n_events=212_000,
        n_venues=52_000,
        n_topics=32,
        n_geo_centers=16,
        target_attendances=18_000_000,
        target_friendships=14_000_000,
        horizon_days=2600,
        topic_word_ratio=0.45,
        offtopic_word_ratio=0.2,
        words_per_topic=300,
        words_per_event=40,
        n_common_words=1500,
        interest_sharpness=1.2,
        hidden_trait_dim=8,
        hidden_trait_strength=1.0,
        with_ratings=True,
    ),
    "shanghai-full": SyntheticConfig(
        name="shanghai-full",
        n_users=36440,
        n_events=6753,
        n_venues=1990,
        n_topics=24,
        n_geo_centers=10,
        city_lat=_SHANGHAI_LAT,
        city_lon=_SHANGHAI_LON,
        target_attendances=482138,
        target_friendships=298105,
        horizon_days=2600,
        topic_word_ratio=0.45,
        offtopic_word_ratio=0.2,
        words_per_topic=300,
        words_per_event=40,
        n_common_words=1500,
        interest_sharpness=1.2,
        hidden_trait_dim=8,
        hidden_trait_strength=1.0,
        with_ratings=True,
    ),
}


def preset_names() -> list[str]:
    """All available preset names."""
    return sorted(PRESETS)


def get_preset(name: str) -> SyntheticConfig:
    """Return a *copy* of the named preset config (safe to mutate)."""
    try:
        base = PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    return replace(base)


def make_dataset(
    name: str, *, seed: int | None = None
) -> tuple[EBSN, SyntheticGroundTruth]:
    """Generate the dataset for a preset, optionally overriding the seed."""
    config = get_preset(name)
    if seed is not None:
        config = replace(config, seed=seed)
    return generate_ebsn(config)
