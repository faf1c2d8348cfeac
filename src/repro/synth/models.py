"""Per-question response models.

Each model maps a :class:`RespondentContext` (field, stage, latent traits)
plus the answers given so far to a concrete answer value. Models are small
declarative objects so a cohort profile reads like a codebook with numbers.

The trait link is logistic: a model's ``base`` probability is shifted on the
log-odds scale by ``sum(loading[t] * (trait[t] - 0.5))``, so a loading of 4
moves a respondent at trait 1.0 two logits above the cohort base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.synth.traits import TRAIT_NAMES

__all__ = [
    "RespondentContext",
    "ResponseModel",
    "CategoricalModel",
    "BernoulliYesNoModel",
    "MultiChoiceModel",
    "DerivedMultiChoiceModel",
    "LikertModel",
    "NumericModel",
    "FreeTextModel",
]


@dataclass(frozen=True, slots=True)
class RespondentContext:
    """Latent description of one synthetic respondent.

    ``centers`` holds the cohort-level trait means; loadings act on
    ``trait - center`` so a model's ``base`` probability *is* the cohort
    marginal (up to averaging convexity), which makes profiles directly
    calibratable against reference marginals. When ``centers`` is absent,
    shifts fall back to centering at 0.5.
    """

    field_name: str
    career_stage: str
    traits: Mapping[str, float]
    cohort: str
    centers: Mapping[str, float] | None = None

    def trait(self, name: str) -> float:
        try:
            return float(self.traits[name])
        except KeyError:
            raise KeyError(f"unknown trait {name!r}") from None

    def centered_trait(self, name: str) -> float:
        """Trait value minus its cohort center (default center 0.5)."""
        center = 0.5 if self.centers is None else self.centers.get(name, 0.5)
        return self.trait(name) - center


def _validate_loadings(loadings: Mapping[str, float]) -> None:
    unknown = set(loadings) - set(TRAIT_NAMES)
    if unknown:
        raise ValueError(f"unknown trait names in loadings: {sorted(unknown)}")


def _logit(p: float) -> float:
    p = min(max(p, 1e-9), 1.0 - 1e-9)
    return math.log(p / (1.0 - p))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


class ResponseModel:
    """Interface: sample an answer value for one respondent."""

    def sample(
        self,
        ctx: RespondentContext,
        answers: Mapping[str, object],
        rng: np.random.Generator,
    ):  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class CategoricalModel(ResponseModel):
    """Single-choice answer from trait-modulated softmax weights.

    Parameters
    ----------
    base_probs:
        Mapping option -> base probability (normalized internally).
    loadings:
        Optional mapping option -> {trait: weight} shifting that option's
        log-weight.
    """

    base_probs: Mapping[str, float]
    loadings: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.base_probs:
            raise ValueError("base_probs is empty")
        if any(p < 0 for p in self.base_probs.values()):
            raise ValueError("base probabilities must be non-negative")
        if sum(self.base_probs.values()) <= 0:
            raise ValueError("base probabilities sum to zero")
        unknown = set(self.loadings) - set(self.base_probs)
        if unknown:
            raise ValueError(f"loadings for unknown options: {sorted(unknown)}")
        for option_loadings in self.loadings.values():
            _validate_loadings(option_loadings)

    # Per-option log base weights and loading items, resolved once per model
    # (frozen dataclasses without slots cache via the instance __dict__).
    @cached_property
    def _plan(self) -> tuple[tuple[str, float, tuple], ...]:
        return tuple(
            (
                option,
                math.log(p) if p > 0 else -30.0,
                tuple(self.loadings.get(option, {}).items()),
            )
            for option, p in self.base_probs.items()
        )

    # Loading-free models have one fixed distribution: cache the option list
    # and cumulative probabilities so sampling skips the softmax entirely.
    @cached_property
    def _static(self) -> tuple[list[str], np.ndarray] | None:
        if self.loadings:
            return None
        probs = self._softmax(self._plan, None)
        cdf = np.array(list(probs.values()), dtype=float).cumsum()
        cdf /= cdf[-1]
        return list(probs), cdf

    @staticmethod
    def _softmax(plan, ctx) -> dict[str, float]:
        logw = {}
        for option, base, items in plan:
            # Accumulate the shift separately, then add to the base: the
            # float op order must match ``base + sum(...)`` exactly.
            s = 0
            for trait, weight in items:
                s += weight * ctx.centered_trait(trait)
            logw[option] = base + s
        peak = max(logw.values())
        weights = {o: math.exp(w - peak) for o, w in logw.items()}
        total = sum(weights.values())
        return {o: w / total for o, w in weights.items()}

    def probabilities(self, ctx: RespondentContext) -> dict[str, float]:
        """Trait-conditioned option probabilities for one respondent."""
        return self._softmax(self._plan, ctx)

    def sample(self, ctx, answers, rng):
        # ``Generator.choice(n, p=p)`` consumes exactly one uniform double
        # and resolves it as ``cdf.searchsorted(u, side="right")`` with
        # ``cdf = p.cumsum(); cdf /= cdf[-1]`` — replicating that directly
        # keeps the bit stream and the drawn index identical while skipping
        # choice's per-call probability validation.
        static = self._static
        if static is not None:
            options, cdf = static
            return options[cdf.searchsorted(rng.random(), side="right")]
        probs = self.probabilities(ctx)
        options = list(probs)
        cdf = np.array(list(probs.values()), dtype=float).cumsum()
        cdf /= cdf[-1]
        return options[cdf.searchsorted(rng.random(), side="right")]


@dataclass(frozen=True)
class BernoulliYesNoModel(ResponseModel):
    """Yes/no answer with a logistic trait link.

    ``base`` is the cohort-level "yes" probability at trait midpoints.
    """

    base: float
    loadings: Mapping[str, float] = field(default_factory=dict)
    yes: str = "yes"
    no: str = "no"

    def __post_init__(self) -> None:
        if not 0.0 <= self.base <= 1.0:
            raise ValueError(f"base probability out of [0,1]: {self.base}")
        _validate_loadings(self.loadings)

    @cached_property
    def _base_logit(self) -> float:
        return _logit(self.base)

    @cached_property
    def _loading_items(self) -> tuple:
        return tuple(self.loadings.items())

    def probability(self, ctx: RespondentContext) -> float:
        items = self._loading_items
        if not items:
            return _sigmoid(self._base_logit)
        s = 0
        for trait, weight in items:
            s += weight * ctx.centered_trait(trait)
        return _sigmoid(self._base_logit + s)

    def sample(self, ctx, answers, rng):
        return self.yes if rng.random() < self.probability(ctx) else self.no


@dataclass(frozen=True)
class MultiChoiceModel(ResponseModel):
    """Multi-select: each option is an independent trait-linked Bernoulli."""

    option_probs: Mapping[str, float]
    loadings: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.option_probs:
            raise ValueError("option_probs is empty")
        for option, p in self.option_probs.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability for {option!r} out of [0,1]: {p}")
        unknown = set(self.loadings) - set(self.option_probs)
        if unknown:
            raise ValueError(f"loadings for unknown options: {sorted(unknown)}")
        for option_loadings in self.loadings.values():
            _validate_loadings(option_loadings)

    @cached_property
    def _plan(self) -> tuple[tuple[str, float, tuple], ...]:
        return tuple(
            (option, _logit(p), tuple(self.loadings.get(option, {}).items()))
            for option, p in self.option_probs.items()
        )

    # With no loadings the per-option probabilities never vary: cache the
    # (option, probability) pairs so sampling is draw-and-compare only.
    @cached_property
    def _static(self) -> tuple[tuple[str, float], ...] | None:
        if self.loadings:
            return None
        return tuple((option, _sigmoid(base)) for option, base, _ in self._plan)

    def probabilities(self, ctx: RespondentContext) -> dict[str, float]:
        static = self._static
        if static is not None:
            return dict(static)
        out = {}
        for option, base, items in self._plan:
            s = 0
            for trait, weight in items:
                s += weight * ctx.centered_trait(trait)
            out[option] = _sigmoid(base + s)
        return out

    def sample(self, ctx, answers, rng):
        static = self._static
        if static is not None:
            draws = rng.random(len(static))
            return [o for (o, p), u in zip(static, draws) if u < p]
        probs = self.probabilities(ctx)
        draws = rng.random(len(probs))
        return [o for (o, p), u in zip(probs.items(), draws) if u < p]


@dataclass(frozen=True)
class DerivedMultiChoiceModel(ResponseModel):
    """Multi-select whose probabilities also depend on earlier answers.

    ``adjust`` receives the per-option probabilities and the answers-so-far
    and returns (possibly modified) probabilities — used e.g. to force the
    "gpu" parallel mode toward respondents who answered ``uses_gpu=yes``.
    """

    inner: MultiChoiceModel
    adjust: Callable[[dict[str, float], Mapping[str, object]], dict[str, float]] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.adjust is None:
            raise ValueError("adjust callable is required")

    def sample(self, ctx, answers, rng):
        probs = self.inner.probabilities(ctx)
        probs = self.adjust(dict(probs), answers)
        for option, p in probs.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"adjusted probability for {option!r} out of [0,1]")
        draws = rng.random(len(probs))
        return [o for (o, p), u in zip(probs.items(), draws) if u < p]


@dataclass(frozen=True)
class LikertModel(ResponseModel):
    """Likert answer: discretized, clipped normal around a trait-linked mean."""

    points: int
    base_mean: float
    loadings: Mapping[str, float] = field(default_factory=dict)
    sd: float = 1.0

    def __post_init__(self) -> None:
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if not 1.0 <= self.base_mean <= self.points:
            raise ValueError(f"base_mean {self.base_mean} outside [1, {self.points}]")
        if self.sd <= 0:
            raise ValueError("sd must be positive")
        _validate_loadings(self.loadings)

    @cached_property
    def _loading_items(self) -> tuple:
        return tuple(self.loadings.items())

    def mean(self, ctx: RespondentContext) -> float:
        items = self._loading_items
        if not items:
            raw = self.base_mean
        else:
            s = 0
            for trait, weight in items:
                s += weight * ctx.centered_trait(trait)
            raw = self.base_mean + s
        # Scalar clip: bitwise-identical to np.clip for finite floats,
        # without the array round trip.
        if raw < 1.0:
            return 1.0
        points = self.points
        return float(points) if raw > points else raw

    def sample(self, ctx, answers, rng):
        value = round(rng.normal(self.mean(ctx), self.sd))
        points = self.points
        return 1 if value < 1 else (points if value > points else value)


@dataclass(frozen=True)
class NumericModel(ResponseModel):
    """Numeric answer from a trait-scaled lognormal, clipped to a range."""

    log_mean: float
    log_sd: float
    minimum: float
    maximum: float
    loadings: Mapping[str, float] = field(default_factory=dict)
    integer: bool = True

    def __post_init__(self) -> None:
        if self.log_sd <= 0:
            raise ValueError("log_sd must be positive")
        if self.minimum > self.maximum:
            raise ValueError("minimum > maximum")
        _validate_loadings(self.loadings)

    @cached_property
    def _loading_items(self) -> tuple:
        return tuple(self.loadings.items())

    def sample(self, ctx, answers, rng):
        items = self._loading_items
        if not items:
            mu = self.log_mean
        else:
            s = 0
            for trait, weight in items:
                s += weight * ctx.centered_trait(trait)
            mu = self.log_mean + s
        value = rng.lognormal(mu, self.log_sd)
        # Scalar clip (bitwise-identical to np.clip for finite floats).
        if value < self.minimum:
            value = self.minimum
        elif value > self.maximum:
            value = self.maximum
        value = float(value)
        return int(round(value)) if self.integer else value


@dataclass(frozen=True)
class FreeTextModel(ResponseModel):
    """Free-text answer delegated to a template generator.

    ``generate`` receives the context, answers so far, and the rng.
    """

    generate: Callable[[RespondentContext, Mapping[str, object], np.random.Generator], str]

    def sample(self, ctx, answers, rng):
        text = self.generate(ctx, answers, rng)
        if not isinstance(text, str):
            raise TypeError("free-text generator must return str")
        return text
