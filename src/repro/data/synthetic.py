"""Synthetic Douban-Event-like EBSN generator.

The paper evaluates on crawled Douban Event data (Beijing/Shanghai,
Table I), which is not publicly distributable.  This module substitutes a
*generative simulator* that produces the same observables the algorithms
consume — users, venues with coordinates, events with text/venue/start
time, attendance records and a friendship graph — with the statistical
regularities the paper's model exploits baked in:

* **interest regularity** (Section I: "personal interests exhibit strong
  regularity"): users carry a sparse Dirichlet mixture over latent topics
  and events carry a single topic; attendance probability rises with the
  user's weight on the event topic;
* **geographic locality** ("users tend to attend events that are
  geographically close to the ones they attended before"): users have a
  home location and attendance decays exponentially with distance to the
  event venue; venues themselves cluster around a handful of geographic
  centres so DBSCAN recovers meaningful regions;
* **multi-scale temporal periodicity** (Section II's 33 time slots): users
  have hour-of-day profiles and weekend affinities; events inherit topical
  hour/weekend habits, so the event-time graph carries signal;
* **social homophily + co-attendance**: friendships form preferentially
  inside latent communities (shared dominant topic and home centre), and a
  social-amplification pass makes friends co-attend events — which is what
  creates the event-partner ground truth of Section V-A;
* **content signal**: event descriptions mix topic-specific vocabulary
  with common background words, so TF-IDF event-word edges identify the
  topic of a cold-start event.

Because cold-start learnability, the ordering of methods and the shape of
every efficiency experiment depend only on these regularities (not on
Douban's absolute counts), the simulator preserves the behaviours the
evaluation measures.  See DESIGN.md §2 for the substitution rationale.

**Bit-identity contract.**  A dataset is a function of its config alone:
the same config gives the same users, venues, events, attendances,
ratings, friendships and ground truth, to the last bit, across releases
of this module.  Speed-ups may change how a draw is made, never what is
drawn: a categorical draw whose weights never change is taken from a CDF
built once (:func:`_categorical`, the arithmetic of
``Generator.choice(k, p=p)``, consuming the same doubles), a block of
uniforms drawn ahead is rewound to the count actually used, and every
floating-point expression keeps its operand order.  Draws whose sequence
comes from numpy internals (``choice`` without replacement) are called
as they are.  ``tests/test_synthetic.py`` pins the contract with golden
digests and checks ``_categorical`` against ``Generator.choice``; a
change that moves a dataset on purpose re-pins the digests and says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.ebsn.dbscan import EARTH_RADIUS_KM
from repro.ebsn.entities import Attendance, Event, Friendship, User, Venue
from repro.ebsn.network import EBSN
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:  # runtime import deferred: repro.core imports repro.data
    from repro.core.fold_in import NewEventDescription

#: POSIX seconds for 2012-01-01T00:00:00Z — generator epoch, matching the
#: tail of the paper's Sep 2005 - Dec 2012 crawl window.
DEFAULT_EPOCH = 1325376000.0

SECONDS_PER_DAY = 86400.0
SECONDS_PER_HOUR = 3600.0


@dataclass(slots=True)
class SyntheticConfig:
    """All knobs of the synthetic EBSN generator.

    The defaults are scaled for fast experimentation; the presets module
    provides Table-I-shaped and CI-sized configurations.
    """

    name: str = "synthetic"
    n_users: int = 500
    n_events: int = 250
    n_venues: int = 60
    n_topics: int = 8
    n_geo_centers: int = 6

    # Geography (degrees / km)
    city_lat: float = 39.9042  # Beijing
    city_lon: float = 116.4074
    city_radius_km: float = 15.0
    venue_scatter_km: float = 1.2
    home_scatter_km: float = 2.0
    geo_decay_km: float = 6.0

    # Text
    words_per_topic: int = 60
    n_common_words: int = 120
    words_per_event: int = 24
    topic_word_ratio: float = 0.7
    #: Fraction of words drawn from a *different* random topic's vocabulary
    #: — cross-topic lexical noise, making content a useful but imperfect
    #: signal (as in real event descriptions).
    offtopic_word_ratio: float = 0.0

    # Time
    epoch: float = DEFAULT_EPOCH
    horizon_days: int = 360
    hour_profile_bumps: int = 2

    # Interests / attendance
    interest_concentration: float = 0.3
    interest_sharpness: float = 1.5
    target_attendances: int = 8000
    min_attendees_per_event: int = 2
    event_popularity_sigma: float = 0.8
    #: Dimension of hidden user/event trait vectors: the "many unknown
    #: factors" the paper says influence event choice beyond the observed
    #: auxiliary information (Section V-D's CBPF discussion).  These shape
    #: attendance but leave no trace in text/location/time, so models that
    #: derive event representations purely from attributes (CBPF) cannot
    #: absorb them, while free event embeddings (GEM) can.  0 disables.
    hidden_trait_dim: int = 0
    hidden_trait_strength: float = 1.0
    #: Attach 1-5 ratings to attendance records, derived from the user's
    #: true affinity percentile among the event's attendees.  Definition 3
    #: uses ratings as user-event edge weights when available; weighted
    #: edge sampling lets GEM exploit preference strength that binary
    #: models (PCMF, PER's path counts) discard.
    with_ratings: bool = False
    #: Log-normal σ of per-user activity levels.  Real EBSN attendance is
    #: heavy-tailed — most users attend few events (the paper filters out
    #: those under 5) — which leaves sparse users with noisy path/count
    #: features while shared-embedding models can still pool evidence
    #: through the social and content graphs.  0 disables.
    user_activity_sigma: float = 0.0

    # Social
    target_friendships: int = 3500
    intra_community_ratio: float = 0.85
    social_boost: float = 0.35

    seed: int = 7

    def validate(self) -> None:
        """Fail fast on inconsistent settings."""
        positives = {
            "n_users": self.n_users,
            "n_events": self.n_events,
            "n_venues": self.n_venues,
            "n_topics": self.n_topics,
            "n_geo_centers": self.n_geo_centers,
            "horizon_days": self.horizon_days,
            "target_attendances": self.target_attendances,
            "words_per_event": self.words_per_event,
        }
        for key, value in positives.items():
            if value <= 0:
                raise ValueError(f"{key} must be > 0, got {value}")
        if not 0.0 <= self.topic_word_ratio <= 1.0:
            raise ValueError("topic_word_ratio must be in [0, 1]")
        if not 0.0 <= self.offtopic_word_ratio <= 1.0:
            raise ValueError("offtopic_word_ratio must be in [0, 1]")
        if self.topic_word_ratio + self.offtopic_word_ratio > 1.0:
            raise ValueError(
                "topic_word_ratio + offtopic_word_ratio must not exceed 1"
            )
        if not 0.0 <= self.intra_community_ratio <= 1.0:
            raise ValueError("intra_community_ratio must be in [0, 1]")
        if self.target_attendances < self.n_events * self.min_attendees_per_event:
            raise ValueError(
                "target_attendances too small for min_attendees_per_event"
            )
        if self.hidden_trait_dim < 0:
            raise ValueError("hidden_trait_dim must be >= 0")
        if self.hidden_trait_strength < 0:
            raise ValueError("hidden_trait_strength must be >= 0")
        if self.user_activity_sigma < 0:
            raise ValueError("user_activity_sigma must be >= 0")


@dataclass(slots=True)
class ArrivalTraceConfig:
    """Knobs for the post-training event-arrival stream.

    The trace models a live EBSN where new events keep appearing after
    the model has been trained (ROADMAP item 2): each arrival carries a
    wall-clock offset from stream start plus the content/venue/time
    attributes fold-in needs (:class:`repro.core.fold_in.
    NewEventDescription`).  Arrivals are Poisson-ish uniform by default;
    ``flash_crowds`` concentrates a fraction of them into narrow bursts,
    the arrival pattern real EBSNs exhibit around announcements.
    """

    #: Number of events arriving over the trace.
    n_arrivals: int = 64
    #: Wall-clock length of the trace in seconds.
    duration_s: float = 2.0
    #: Number of flash-crowd bursts (0 = smooth arrivals).
    flash_crowds: int = 0
    #: Burst width as a fraction of ``duration_s`` (Gaussian sigma).
    flash_crowd_width: float = 0.02
    #: Fraction of arrivals concentrated inside bursts.
    flash_crowd_mass: float = 0.6
    #: New events start up to this many days after the training horizon
    #: (arrivals are announcements of *future* events).
    start_lead_days: float = 7.0
    seed: int = 11

    def validate(self) -> None:
        """Fail fast on inconsistent trace settings."""
        if self.n_arrivals <= 0:
            raise ValueError(f"n_arrivals must be > 0, got {self.n_arrivals}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if self.flash_crowds < 0:
            raise ValueError("flash_crowds must be >= 0")
        if self.flash_crowd_width <= 0:
            raise ValueError("flash_crowd_width must be > 0")
        if not 0.0 <= self.flash_crowd_mass <= 1.0:
            raise ValueError("flash_crowd_mass must be in [0, 1]")
        if self.start_lead_days < 0:
            raise ValueError("start_lead_days must be >= 0")


@dataclass(slots=True)
class EventArrival:
    """One post-training event arrival: stream offset plus attributes.

    ``offset_s`` is seconds from stream start (sorted ascending across a
    trace); ``event`` is the fold-in description a deployed system would
    receive from the event's announcement.
    """

    offset_s: float
    event: "NewEventDescription"


@dataclass(slots=True)
class SyntheticGroundTruth:
    """Hidden generator state, exposed for tests and diagnostics only.

    Recommender models never see this; tests use it to check that e.g.
    learned embeddings separate topics better than chance.
    """

    user_interests: np.ndarray  # (n_users, n_topics)
    event_topics: np.ndarray  # (n_events,)
    user_home: np.ndarray  # (n_users, 2) lat/lon
    user_hour_profile: np.ndarray  # (n_users, 24)
    user_weekend_pref: np.ndarray  # (n_users,)
    venue_center: np.ndarray  # (n_venues,)
    communities: np.ndarray  # (n_users,)
    user_traits: np.ndarray | None = None  # (n_users, d) hidden factors
    event_traits: np.ndarray | None = None  # (n_events, d)


def _cdf(p: np.ndarray) -> np.ndarray:
    """The cumulative table ``Generator.choice(k, p=p)`` builds from ``p``."""
    cdf = np.cumsum(p, dtype=np.float64)
    cdf /= cdf[-1]
    return cdf


def _categorical(
    rng: np.random.Generator, cdf: np.ndarray, size: int | None = None
) -> int | np.ndarray:
    """``rng.choice(len(cdf), size, p=p)`` for ``cdf = _cdf(p)``, minus the
    per-call validation: the same doubles drawn, the same indices returned.
    """
    if size is None:
        return int(cdf.searchsorted(rng.random(), side="right"))
    return cdf.searchsorted(rng.random(size), side="right")


def _zipf_cdfs(cfg: SyntheticConfig) -> tuple[np.ndarray, np.ndarray]:
    """CDFs of the Zipf-weighted common and per-topic word draws."""
    common_rank = np.arange(1, cfg.n_common_words + 1, dtype=np.float64)
    common_p = (1.0 / common_rank) / np.sum(1.0 / common_rank)
    word_rank = np.arange(1, cfg.words_per_topic + 1, dtype=np.float64)
    topic_word_p = (1.0 / word_rank) / np.sum(1.0 / word_rank)
    return _cdf(common_p), _cdf(topic_word_p)


def _km_offsets_to_latlon(
    lat0: float, lon0: float, dx_km: np.ndarray, dy_km: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Convert local east/north km offsets around (lat0, lon0) to lat/lon."""
    lat = lat0 + np.degrees(dy_km / EARTH_RADIUS_KM)
    lon = lon0 + np.degrees(dx_km / (EARTH_RADIUS_KM * math.cos(math.radians(lat0))))
    return lat, lon


def _planar_km(lat: np.ndarray, lon: np.ndarray, lat0: float, lon0: float) -> np.ndarray:
    """Project lat/lon to km offsets around the city centre (n, 2)."""
    dy = np.radians(np.asarray(lat) - lat0) * EARTH_RADIUS_KM
    dx = (
        np.radians(np.asarray(lon) - lon0)
        * EARTH_RADIUS_KM
        * math.cos(math.radians(lat0))
    )
    return np.column_stack([dx, dy])


class SyntheticEBSNGenerator:
    """Deterministic (seeded) generator producing an :class:`EBSN` plus its
    hidden ground truth.  See the module docstring for the generative story.
    """

    def __init__(self, config: SyntheticConfig):
        config.validate()
        self.config = config

    # ------------------------------------------------------------------
    def generate(self) -> tuple[EBSN, SyntheticGroundTruth]:
        """Run the full generative pipeline."""
        cfg = self.config
        rng = ensure_rng(cfg.seed)

        centers_km = self._sample_geo_centers(rng)
        venue_center, venues = self._sample_venues(rng, centers_km)
        topic_center, topic_hour, topic_weekend = self._sample_topic_profiles(rng)
        (
            user_interests,
            user_home_km,
            user_home_center,
            user_hour_profile,
            user_weekend_pref,
        ) = self._sample_users(rng, centers_km, topic_hour, topic_weekend)
        users = [User(user_id=f"u{i:06d}") for i in range(cfg.n_users)]

        event_topics, events = self._sample_events(
            rng, venues, venue_center, topic_center, topic_hour, topic_weekend
        )

        communities = self._communities(user_interests, user_home_center)
        friendships, friend_sets = self._sample_friendships(rng, communities)

        user_traits = event_traits = None
        if cfg.hidden_trait_dim > 0:
            user_traits = rng.normal(0.0, 1.0, size=(cfg.n_users, cfg.hidden_trait_dim))
            event_traits = rng.normal(
                0.0, 1.0, size=(cfg.n_events, cfg.hidden_trait_dim)
            )

        attendances = self._sample_attendance(
            rng,
            events,
            event_topics,
            venues,
            user_interests,
            user_home_km,
            user_hour_profile,
            user_weekend_pref,
            friend_sets,
            user_traits,
            event_traits,
        )

        ebsn = EBSN(
            users=users,
            events=events,
            venues=venues,
            attendances=attendances,
            friendships=friendships,
            name=cfg.name,
        )
        user_home_lat, user_home_lon = _km_offsets_to_latlon(
            cfg.city_lat, cfg.city_lon, user_home_km[:, 0], user_home_km[:, 1]
        )
        truth = SyntheticGroundTruth(
            user_interests=user_interests,
            event_topics=event_topics,
            user_home=np.column_stack([user_home_lat, user_home_lon]),
            user_hour_profile=user_hour_profile,
            user_weekend_pref=user_weekend_pref,
            venue_center=venue_center,
            communities=communities,
            user_traits=user_traits,
            event_traits=event_traits,
        )
        return ebsn, truth

    # ------------------------------------------------------------------
    # Geography
    # ------------------------------------------------------------------
    def _sample_geo_centers(self, rng: np.random.Generator) -> np.ndarray:
        """Geographic activity centres, spread inside the city disk."""
        cfg = self.config
        angles = rng.uniform(0.0, 2.0 * math.pi, size=cfg.n_geo_centers)
        radii = cfg.city_radius_km * np.sqrt(
            rng.uniform(0.05, 1.0, size=cfg.n_geo_centers)
        )
        return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])

    def _sample_venues(
        self, rng: np.random.Generator, centers_km: np.ndarray
    ) -> tuple[np.ndarray, list[Venue]]:
        """Venues scattered around centres (so DBSCAN can find regions)."""
        cfg = self.config
        center_popularity = rng.dirichlet(np.full(cfg.n_geo_centers, 2.0))
        venue_center = rng.choice(
            cfg.n_geo_centers, size=cfg.n_venues, p=center_popularity
        )
        offsets = rng.normal(0.0, cfg.venue_scatter_km, size=(cfg.n_venues, 2))
        pos_km = centers_km[venue_center] + offsets
        lat, lon = _km_offsets_to_latlon(
            cfg.city_lat, cfg.city_lon, pos_km[:, 0], pos_km[:, 1]
        )
        venues = [
            Venue(venue_id=f"v{i:05d}", lat=float(lat[i]), lon=float(lon[i]))
            for i in range(cfg.n_venues)
        ]
        return venue_center, venues

    # ------------------------------------------------------------------
    # Topics
    # ------------------------------------------------------------------
    def _sample_topic_profiles(
        self, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-topic centre affinity, hour-of-day profile, weekend affinity."""
        cfg = self.config
        topic_center = rng.dirichlet(
            np.full(cfg.n_geo_centers, 0.8), size=cfg.n_topics
        )
        hours = np.arange(24, dtype=np.float64)
        topic_hour = np.zeros((cfg.n_topics, 24), dtype=np.float64)
        for t in range(cfg.n_topics):
            profile = np.full(24, 0.02)
            for _ in range(cfg.hour_profile_bumps):
                mu = rng.uniform(8.0, 23.0)
                sigma = rng.uniform(1.5, 3.5)
                delta = np.minimum(np.abs(hours - mu), 24.0 - np.abs(hours - mu))
                profile += np.exp(-0.5 * (delta / sigma) ** 2)
            topic_hour[t] = profile / profile.sum()
        topic_weekend = rng.beta(2.0, 2.0, size=cfg.n_topics)
        return topic_center, topic_hour, topic_weekend

    def _topic_vocabularies(self) -> list[list[str]]:
        """Deterministic topic-specific vocabularies, one per topic."""
        return [
            [f"t{topic}w{i}" for i in range(self.config.words_per_topic)]
            for topic in range(self.config.n_topics)
        ]

    # ------------------------------------------------------------------
    # Users
    # ------------------------------------------------------------------
    def _sample_users(
        self,
        rng: np.random.Generator,
        centers_km: np.ndarray,
        topic_hour: np.ndarray,
        topic_weekend: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        cfg = self.config
        interests = rng.dirichlet(
            np.full(cfg.n_topics, cfg.interest_concentration), size=cfg.n_users
        )
        # Sharpen to make dominant topics more dominant (interest regularity).
        interests = interests**cfg.interest_sharpness
        interests /= interests.sum(axis=1, keepdims=True)

        home_center = rng.integers(0, cfg.n_geo_centers, size=cfg.n_users)
        home_km = centers_km[home_center] + rng.normal(
            0.0, cfg.home_scatter_km, size=(cfg.n_users, 2)
        )

        # A user's temporal profile mixes her topics' profiles plus noise.
        hour_profile = interests @ topic_hour
        hour_profile += rng.uniform(0.0, 0.01, size=hour_profile.shape)
        hour_profile /= hour_profile.sum(axis=1, keepdims=True)
        weekend_pref = np.clip(
            interests @ topic_weekend + rng.normal(0.0, 0.1, size=cfg.n_users),
            0.05,
            0.95,
        )
        return interests, home_km, home_center, hour_profile, weekend_pref

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _sample_events(
        self,
        rng: np.random.Generator,
        venues: list[Venue],
        venue_center: np.ndarray,
        topic_center: np.ndarray,
        topic_hour: np.ndarray,
        topic_weekend: np.ndarray,
    ) -> tuple[np.ndarray, list[Event]]:
        cfg = self.config
        topic_popularity = rng.dirichlet(np.full(cfg.n_topics, 3.0))
        event_topics = rng.choice(cfg.n_topics, size=cfg.n_events, p=topic_popularity)

        common_words = [f"common{i}" for i in range(cfg.n_common_words)]
        common_cdf, topic_word_cdf = _zipf_cdfs(cfg)
        vocabularies = self._topic_vocabularies()

        events: list[Event] = []
        venues_by_center: list[np.ndarray] = [
            np.flatnonzero(venue_center == c) for c in range(topic_center.shape[1])
        ]
        # Venue: prefer the topic's favoured centres that hold a venue.
        nonempty = np.array([len(v) > 0 for v in venues_by_center])
        center_cdf = []
        for center_p in topic_center:
            center_p = np.where(nonempty, center_p, 0.0)
            if center_p.sum() == 0:
                center_p = nonempty.astype(np.float64)
            center_p /= center_p.sum()
            center_cdf.append(_cdf(center_p))
        hour_cdf = [_cdf(profile) for profile in topic_hour]

        for xi in range(cfg.n_events):
            topic = int(event_topics[xi])
            center = _categorical(rng, center_cdf[topic])
            venue_idx = int(rng.choice(venues_by_center[center]))

            # Start time: uniform day in horizon, topic-habit hour/weekend.
            day = int(rng.integers(0, cfg.horizon_days))
            base = cfg.epoch + day * SECONDS_PER_DAY
            # Nudge the day to match the topic's weekend preference.
            weekday = int((base // SECONDS_PER_DAY + 4) % 7)  # epoch-relative dow
            is_weekend = weekday >= 5
            wants_weekend = rng.random() < topic_weekend[topic]
            if wants_weekend != is_weekend:
                shift = rng.integers(1, 3)
                base += float(shift) * SECONDS_PER_DAY * (1 if wants_weekend else -1)
                base = min(
                    max(base, cfg.epoch),
                    cfg.epoch + (cfg.horizon_days - 1) * SECONDS_PER_DAY,
                )
            hour = _categorical(rng, hour_cdf[topic])
            start_time = base + hour * SECONDS_PER_HOUR + float(rng.integers(0, 60)) * 60.0

            # Description: topic words + cross-topic noise + common words.
            n_topic_words = int(round(cfg.words_per_event * cfg.topic_word_ratio))
            n_offtopic = int(round(cfg.words_per_event * cfg.offtopic_word_ratio))
            n_common = cfg.words_per_event - n_topic_words - n_offtopic
            topic_vocab = vocabularies[topic]
            words = [
                topic_vocab[w]
                for w in _categorical(rng, topic_word_cdf, n_topic_words).tolist()
            ]
            if n_offtopic and cfg.n_topics > 1:
                other = int(rng.integers(0, cfg.n_topics - 1))
                if other >= topic:
                    other += 1
                other_vocab = vocabularies[other]
                words += [
                    other_vocab[w]
                    for w in _categorical(rng, topic_word_cdf, n_offtopic).tolist()
                ]
            words += [
                common_words[w]
                for w in _categorical(rng, common_cdf, n_common).tolist()
            ]
            rng.shuffle(words)

            events.append(
                Event(
                    event_id=f"x{xi:06d}",
                    venue_id=venues[venue_idx].venue_id,
                    start_time=float(start_time),
                    description=" ".join(words),
                    title=f"topic-{topic} gathering {xi}",
                )
            )
        return event_topics, events

    # ------------------------------------------------------------------
    # Social graph
    # ------------------------------------------------------------------
    @staticmethod
    def _communities(interests: np.ndarray, home_center: np.ndarray) -> np.ndarray:
        """Latent community id = (dominant topic, home centre)."""
        dominant = interests.argmax(axis=1)
        n_centers = int(home_center.max()) + 1 if home_center.size else 1
        return dominant * n_centers + home_center

    def _sample_friendships(
        self, rng: np.random.Generator, communities: np.ndarray
    ) -> tuple[list[Friendship], list[set[int]]]:
        """Homophilous friendship graph hitting ``target_friendships``."""
        cfg = self.config
        n_intra = int(round(cfg.target_friendships * cfg.intra_community_ratio))
        n_inter = cfg.target_friendships - n_intra

        members: dict[int, np.ndarray] = {}
        for cid in np.unique(communities):
            members[int(cid)] = np.flatnonzero(communities == cid)
        community_ids = sorted(members)
        sizes = np.array(
            [len(members[c]) * (len(members[c]) - 1) / 2 for c in community_ids],
            dtype=np.float64,
        )
        edges: set[tuple[int, int]] = set()

        if sizes.sum() > 0:
            community_cdf = _cdf(sizes / sizes.sum())
            attempts = 0
            while len(edges) < n_intra and attempts < 30 * max(n_intra, 1):
                attempts += 1
                cid = community_ids[_categorical(rng, community_cdf)]
                group = members[cid]
                if len(group) < 2:
                    continue
                a, b = rng.choice(group, size=2, replace=False).tolist()
                edges.add((a, b) if a < b else (b, a))

        attempts = 0
        target_total = min(
            cfg.target_friendships, cfg.n_users * (cfg.n_users - 1) // 2
        )
        while len(edges) < target_total and attempts < 30 * max(n_inter + n_intra, 1):
            attempts += 1
            a, b = rng.integers(0, cfg.n_users, size=2)
            if a == b:
                continue
            edges.add((min(int(a), int(b)), max(int(a), int(b))))

        friend_sets: list[set[int]] = [set() for _ in range(cfg.n_users)]
        friendships: list[Friendship] = []
        for a, b in sorted(edges):
            friend_sets[a].add(b)
            friend_sets[b].add(a)
            friendships.append(Friendship(f"u{a:06d}", f"u{b:06d}"))
        return friendships, friend_sets

    # ------------------------------------------------------------------
    # Attendance
    # ------------------------------------------------------------------
    def _sample_attendance(
        self,
        rng: np.random.Generator,
        events: list[Event],
        event_topics: np.ndarray,
        venues: list[Venue],
        interests: np.ndarray,
        home_km: np.ndarray,
        hour_profile: np.ndarray,
        weekend_pref: np.ndarray,
        friend_sets: list[set[int]],
        user_traits: np.ndarray | None = None,
        event_traits: np.ndarray | None = None,
    ) -> list[Attendance]:
        cfg = self.config
        venue_km = _planar_km(
            np.array([v.lat for v in venues]),
            np.array([v.lon for v in venues]),
            cfg.city_lat,
            cfg.city_lon,
        )
        venue_index = {v.venue_id: i for i, v in enumerate(venues)}

        if cfg.user_activity_sigma > 0:
            activity = rng.lognormal(0.0, cfg.user_activity_sigma, size=cfg.n_users)
        else:
            activity = np.ones(cfg.n_users, dtype=np.float64)

        # Event sizes: lognormal popularity scaled to hit the target total.
        raw_pop = rng.lognormal(0.0, cfg.event_popularity_sigma, size=cfg.n_events)
        sizes = raw_pop / raw_pop.sum() * cfg.target_attendances
        sizes = np.maximum(
            cfg.min_attendees_per_event, np.round(sizes).astype(np.int64)
        )
        sizes = np.minimum(sizes, cfg.n_users)

        # Per-user factors laid out contiguously per topic / hour; every
        # product below keeps the operand order of the per-event formula.
        interest_by_topic = np.ascontiguousarray(interests.T)
        profile_by_hour = np.ascontiguousarray(hour_profile.T)
        weekday_pref = 1.0 - weekend_pref
        home_x = np.ascontiguousarray(home_km[:, 0])
        home_y = np.ascontiguousarray(home_km[:, 1])
        user_ids = [f"u{u:06d}" for u in range(cfg.n_users)]
        bit_generator = rng.bit_generator

        attendances: list[Attendance] = []
        for xi, event in enumerate(events):
            topic = int(event_topics[xi])
            vi = venue_index[event.venue_id]

            # ||home - venue|| as np.linalg.norm(axis=1) computes it:
            # sqrt(dx*dx + dy*dy), without its two-wide reduction.
            dx = home_x - venue_km[vi, 0]
            dy = home_y - venue_km[vi, 1]
            dist = np.sqrt(dx * dx + dy * dy)
            geo = np.exp(-dist / cfg.geo_decay_km)
            hour = int((event.start_time % SECONDS_PER_DAY) // SECONDS_PER_HOUR)
            temporal = profile_by_hour[hour]
            dow = int((event.start_time // SECONDS_PER_DAY + 4) % 7)
            wk = weekend_pref if dow >= 5 else weekday_pref
            affinity = interest_by_topic[topic] * geo * temporal * wk * activity
            if user_traits is not None and event_traits is not None:
                # Hidden-factor boost: log-normal multiplicative noise with
                # low-rank user-event structure (invisible in attributes).
                latent = (user_traits @ event_traits[xi]) / np.sqrt(
                    user_traits.shape[1]
                )
                affinity = affinity * np.exp(
                    cfg.hidden_trait_strength * latent
                )
            affinity = np.maximum(affinity, 1e-12)
            p = affinity / affinity.sum()

            n_core = int(min(sizes[xi], cfg.n_users))
            core = rng.choice(cfg.n_users, size=n_core, replace=False, p=p)
            attendees = set(core.tolist())

            # Social amplification: friends of attendees join with a
            # probability scaled by their own affinity — this is what makes
            # friends co-attend and gives the partner task its ground truth.
            # Each friend not yet attending costs one uniform draw; the
            # draws are taken as one block, then the stream is rewound and
            # advanced by exactly the number used.
            visits = [friend for u in attendees for friend in friend_sets[u]]
            if visits:
                max_aff = float(affinity.max())
                p_join = (cfg.social_boost * affinity[visits] / max_aff).tolist()
                state = bit_generator.state
                uniform = rng.random(len(visits)).tolist()
                used = 0
                for friend, p_friend in zip(visits, p_join):
                    if friend in attendees:
                        continue
                    if uniform[used] < p_friend:
                        attendees.add(friend)
                    used += 1
                bit_generator.state = state
                rng.random(used)

            members = sorted(attendees)
            if cfg.with_ratings and len(members) > 1:
                member_aff = affinity[members]
                # Rating = affinity quintile among this event's attendees.
                order = member_aff.argsort().argsort()
                ratings = 1.0 + np.floor(5.0 * order / len(members))
                ratings = np.clip(ratings, 1.0, 5.0)
            else:
                ratings = None
            for pos, u in enumerate(members):
                attendances.append(
                    Attendance(
                        user_id=user_ids[u],
                        event_id=event.event_id,
                        rating=float(ratings[pos]) if ratings is not None else None,
                    )
                )
        return attendances

    # ------------------------------------------------------------------
    # Post-training arrivals (the streaming-ingestion workload)
    # ------------------------------------------------------------------
    def generate_arrival_trace(
        self, trace: ArrivalTraceConfig
    ) -> list[EventArrival]:
        """A timestamped, seeded stream of post-training event arrivals.

        Emits ``trace.n_arrivals`` events over ``trace.duration_s``
        seconds of stream time.  Content reuses the generator's
        deterministic vocabulary (``t{topic}w{i}`` topic words and
        ``common{i}`` background words, Zipf-weighted like
        :meth:`_sample_events`) so a vocabulary built from the training
        EBSN recognises the arrivals' tokens; venues scatter around the
        same geographic centres, and start times fall shortly *after*
        the training horizon — arrivals are announcements of future
        events, the cold-start case Section IV's fold-in answers.

        With ``trace.flash_crowds > 0``, ``flash_crowd_mass`` of the
        arrivals concentrate into Gaussian bursts at random instants —
        the bursty arrival pattern the fold-in pump must absorb without
        blocking queries (see :mod:`repro.serving.streaming`).

        Fully determined by ``trace.seed`` (independent of the seed used
        for :meth:`generate`).  Returns arrivals sorted by offset.
        """
        from repro.core.fold_in import NewEventDescription

        trace.validate()
        cfg = self.config
        cfg.validate()
        rng = ensure_rng(trace.seed)
        n = trace.n_arrivals

        # Arrival instants: uniform background, optionally re-routed
        # into narrow bursts.
        base = rng.uniform(0.0, trace.duration_s, size=n)
        if trace.flash_crowds > 0:
            burst_at = rng.uniform(0.1, 0.9, size=trace.flash_crowds)
            burst_at *= trace.duration_s
            in_burst = rng.random(n) < trace.flash_crowd_mass
            which = rng.integers(0, trace.flash_crowds, size=n)
            sigma = trace.flash_crowd_width * trace.duration_s
            bursty = burst_at[which] + rng.normal(0.0, sigma, size=n)
            offsets = np.where(in_burst, bursty, base)
        else:
            offsets = base
        offsets = np.sort(np.clip(offsets, 0.0, trace.duration_s))

        centers_km = self._sample_geo_centers(rng)
        topic_popularity = rng.dirichlet(np.full(cfg.n_topics, 3.0))
        topics = rng.choice(cfg.n_topics, size=n, p=topic_popularity)
        common_words = [f"common{i}" for i in range(cfg.n_common_words)]
        common_cdf, topic_word_cdf = _zipf_cdfs(cfg)
        vocabularies = self._topic_vocabularies()
        horizon_end = cfg.epoch + cfg.horizon_days * SECONDS_PER_DAY

        arrivals: list[EventArrival] = []
        for i in range(n):
            topic = int(topics[i])
            n_topic_words = int(round(cfg.words_per_event * cfg.topic_word_ratio))
            n_common = cfg.words_per_event - n_topic_words
            topic_vocab = vocabularies[topic]
            words = [
                topic_vocab[w]
                for w in _categorical(rng, topic_word_cdf, n_topic_words).tolist()
            ]
            words += [
                common_words[w]
                for w in _categorical(rng, common_cdf, n_common).tolist()
            ]
            rng.shuffle(words)

            center = int(rng.integers(0, cfg.n_geo_centers))
            dx, dy = centers_km[center] + rng.normal(
                0.0, cfg.venue_scatter_km, size=2
            )
            lat, lon = _km_offsets_to_latlon(
                cfg.city_lat, cfg.city_lon, np.float64(dx), np.float64(dy)
            )

            start = (
                horizon_end
                + rng.uniform(0.0, trace.start_lead_days) * SECONDS_PER_DAY
                + float(rng.integers(0, 24)) * SECONDS_PER_HOUR
            )
            arrivals.append(
                EventArrival(
                    offset_s=float(offsets[i]),
                    event=NewEventDescription(
                        description=" ".join(words),
                        venue_lat=float(lat),
                        venue_lon=float(lon),
                        start_time=float(start),
                    ),
                )
            )
        return arrivals


def generate_ebsn(config: SyntheticConfig) -> tuple[EBSN, SyntheticGroundTruth]:
    """Convenience wrapper: generate an EBSN (and its hidden truth) from a
    config."""
    return SyntheticEBSNGenerator(config).generate()


def generate_arrival_trace(
    config: SyntheticConfig, trace: ArrivalTraceConfig
) -> list[EventArrival]:
    """Convenience wrapper: the arrival stream for a synthetic world."""
    return SyntheticEBSNGenerator(config).generate_arrival_trace(trace)
