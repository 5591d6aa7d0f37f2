"""Synthetic review tables with planted collusive groups.

Background reviewers rate random products near each product's latent mean
at dates spread over a long horizon. Each planted group is a fresh set of
reviewers that all give the group's target products one extreme rating
inside a short burst window; those reviews (and hence those members) are
labeled fake, everything else genuine. Ground truth is returned alongside
the table so end-to-end detection can be checked exactly.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field

from ._lazy import lazy_import
from .reviews import LABEL_FAKE, LABEL_GENUINE, Review, ReviewTable

np = lazy_import("numpy")

BASE_DATE = datetime.date(2014, 1, 1)


@dataclass(frozen=True)
class PlantedGroupConfig:
    # rating defaults to a 1-star demotion campaign: background means sit
    # in [2.5, 4.5], so the planted rating stays extreme relative to them
    size: int
    n_targets: int = 5
    rating: int = 1
    burst_window_days: int = 7

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("synth.planted.size must be >= 2")
        if self.n_targets < 1:
            raise ValueError("synth.planted.n_targets must be >= 1")
        if not 1 <= self.rating <= 5:
            raise ValueError("synth.planted.rating must be in 1..5")
        if self.burst_window_days < 0:
            raise ValueError("synth.planted.burst_window_days must be >= 0")


def _default_planted() -> list[PlantedGroupConfig]:
    return [PlantedGroupConfig(size=s) for s in (25, 40, 60)]


@dataclass
class SynthConfig:
    n_reviewers: int = 2000
    n_products: int = 300
    reviews_per_reviewer: int = 5
    horizon_days: int = 720
    product_mean_range: tuple[float, float] = (2.5, 4.5)
    rating_noise_sd: float = 0.8
    planted: list[PlantedGroupConfig] = field(default_factory=_default_planted)
    seed: int = 0

    def __post_init__(self):
        if self.n_reviewers < 0:
            raise ValueError("synth.n_reviewers must be >= 0")
        if self.n_products < 1:
            raise ValueError("synth.n_products must be >= 1")
        if self.reviews_per_reviewer < 1 or self.reviews_per_reviewer > self.n_products:
            raise ValueError("synth.reviews_per_reviewer must be in 1..n_products")
        if self.horizon_days < 1:
            raise ValueError("synth.horizon_days must be >= 1")
        if self.seed < 0:
            raise ValueError("synth.seed must be >= 0")
        bounds = self.product_mean_range
        if not (
            isinstance(bounds, (list, tuple))
            and len(bounds) == 2
            and all(type(x) in (int, float) and math.isfinite(x) for x in bounds)
            and bounds[0] <= bounds[1]
        ):
            raise ValueError(
                "synth.product_mean_range must be a [low, high] pair of finite numbers with "
                f"low <= high, not {bounds!r}"
            )
        self.product_mean_range = tuple(bounds)
        if self.rating_noise_sd < 0:
            raise ValueError("synth.rating_noise_sd must be >= 0")
        wanted = sum(g.n_targets for g in self.planted)
        if wanted > self.n_products:
            raise ValueError(
                f"planted groups want {wanted} target products but only "
                f"{self.n_products} exist"
            )


def generate(config: SynthConfig) -> tuple[ReviewTable, list[frozenset[str]]]:
    """Build the labeled table and the list of planted member sets.

    Deterministic for a fixed config: one generator drives every draw in
    a fixed order. Target product sets are sampled disjointly across the
    planted groups.
    """
    rng = np.random.default_rng(config.seed)
    width = len(str(max(config.n_products - 1, 1)))
    products = [f"p{i:0{width}d}" for i in range(config.n_products)]
    means = rng.uniform(*config.product_mean_range, size=config.n_products)

    reviews: list[Review] = []
    rwidth = len(str(max(config.n_reviewers - 1, 1)))
    for i in range(config.n_reviewers):
        reviewer = f"u{i:0{rwidth}d}"
        chosen = rng.choice(config.n_products, size=config.reviews_per_reviewer, replace=False)
        days = rng.integers(0, config.horizon_days, size=config.reviews_per_reviewer)
        noise = rng.normal(0.0, config.rating_noise_sd, size=config.reviews_per_reviewer)
        for j, p in enumerate(chosen):
            rating = int(np.clip(np.rint(means[p] + noise[j]), 1, 5))
            reviews.append(
                Review(
                    reviewer,
                    products[p],
                    rating,
                    BASE_DATE + datetime.timedelta(days=int(days[j])),
                    LABEL_GENUINE,
                )
            )

    free = rng.permutation(config.n_products)
    next_free = 0
    ground_truth: list[frozenset[str]] = []
    for gi, plant in enumerate(config.planted):
        targets = [products[p] for p in free[next_free : next_free + plant.n_targets]]
        next_free += plant.n_targets
        start = int(rng.integers(0, max(config.horizon_days - plant.burst_window_days, 0) + 1))
        members = []
        for mi in range(plant.size):
            member = f"f{gi}_{mi:03d}"
            members.append(member)
            offsets = rng.integers(0, plant.burst_window_days + 1, size=plant.n_targets)
            for t, product in enumerate(targets):
                reviews.append(
                    Review(
                        member,
                        product,
                        plant.rating,
                        BASE_DATE + datetime.timedelta(days=start + int(offsets[t])),
                        LABEL_FAKE,
                    )
                )
        ground_truth.append(frozenset(members))

    return ReviewTable(reviews), ground_truth


def write_ground_truth(path, groups: list[frozenset[str]]) -> None:
    """One 'group_index \\t member' row per planted membership."""
    with open(path, "w", encoding="utf-8") as fh:
        for gi, members in enumerate(groups):
            for member in sorted(members):
                fh.write(f"{gi}\t{member}\n")
