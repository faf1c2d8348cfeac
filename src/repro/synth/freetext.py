"""Template-based free-text answer generation.

Real respondents answer "describe your software stack" with short, messy
prose naming tools. The generator composes such sentences from templates and
a trait-weighted tool vocabulary so the text-mining pipeline (tokenizer,
lexicon matcher, co-occurrence graph) has realistic input: varying case,
punctuation, version suffixes, and correlated tool mentions.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from repro.synth.models import RespondentContext

__all__ = ["FreeTextTemplates"]

_STACK_TEMPLATES = (
    "I mostly use {tools} for my analysis.",
    "Our group's pipeline is built on {tools}.",
    "Day to day: {tools}. Occasionally some shell scripting.",
    "{tools} -- plus a pile of custom scripts nobody dares touch.",
    "We standardized on {tools} last year.",
    "Mainly {tools}; running on the department cluster.",
)

_CHALLENGE_TEMPLATES = (
    "Queue wait times on the cluster are the biggest bottleneck.",
    "Installing dependencies reproducibly is painful.",
    "My code is too slow and I don't know how to parallelize it.",
    "Getting GPU allocations is hard; demand keeps growing.",
    "Debugging MPI jobs takes forever.",
    "Storage quotas; our datasets no longer fit.",
    "Keeping track of which script produced which result.",
    "Learning curve: I was never taught software engineering.",
    "Porting legacy Fortran code to modern toolchains.",
    "Moving data between the cluster and cloud storage.",
)


@dataclass(frozen=True)
class FreeTextTemplates:
    """Configurable free-text generator for one cohort.

    Attributes
    ----------
    tool_probs:
        Mapping tool name -> base mention probability.
    tool_loadings:
        Optional mapping tool -> {trait: weight}; positive weights make high
        scorers on that trait mention the tool more.
    mention_decorations:
        Probability of decorating a mention (capitalization change or a
        version suffix), exercising normalizer robustness.
    """

    tool_probs: Mapping[str, float]
    tool_loadings: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    mention_decorations: float = 0.25

    def __post_init__(self) -> None:
        if not self.tool_probs:
            raise ValueError("tool_probs is empty")
        for tool, p in self.tool_probs.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability for {tool!r} out of [0,1]")
        unknown = set(self.tool_loadings) - set(self.tool_probs)
        if unknown:
            raise ValueError(f"loadings for unknown tools: {sorted(unknown)}")

    # Per-tool base log-odds and loading items, resolved once per template
    # set: the mention loop runs per respondent and the log/clamp of the
    # base probability never changes.
    @cached_property
    def _mention_plan(self) -> tuple[tuple[str, float, tuple], ...]:
        rows = []
        for tool, p0 in self.tool_probs.items():
            p = min(max(p0, 1e-9), 1 - 1e-9)
            rows.append(
                (tool, math.log(p / (1 - p)), tuple(self.tool_loadings.get(tool, {}).items()))
            )
        return tuple(rows)

    @cached_property
    def _fallback_tool(self) -> str:
        return max(self.tool_probs, key=self.tool_probs.get)

    def _decorate(self, tool: str, rng: np.random.Generator) -> str:
        if rng.random() >= self.mention_decorations:
            return tool
        style = rng.integers(0, 3)
        if style == 0:
            return tool.capitalize()
        if style == 1:
            return tool.upper() if len(tool) <= 4 else tool.title()
        return f"{tool} {rng.integers(1, 4)}.{rng.integers(0, 12)}"

    def stack_description(
        self,
        ctx: RespondentContext,
        answers: Mapping[str, object],
        rng: np.random.Generator,
    ) -> str:
        """A 'describe your stack' answer mentioning 1..6 tools."""
        rng_random = rng.random
        exp = math.exp
        mentioned = []
        for tool, base, items in self._mention_plan:
            logit = base
            for trait, w in items:
                logit += w * ctx.centered_trait(trait)
            if rng_random() < 1.0 / (1.0 + exp(-logit)):
                mentioned.append(tool)
        if not mentioned:
            # Everyone uses *something*; fall back to the most likely tool.
            mentioned = [self._fallback_tool]
        rng.shuffle(mentioned)
        mentioned = mentioned[:6]
        decorated = [self._decorate(t, rng) for t in mentioned]
        if len(decorated) == 1:
            tools = decorated[0]
        else:
            tools = ", ".join(decorated[:-1]) + " and " + decorated[-1]
        template = _STACK_TEMPLATES[rng.integers(0, len(_STACK_TEMPLATES))]
        return template.format(tools=tools)

    def challenge(
        self,
        ctx: RespondentContext,
        answers: Mapping[str, object],
        rng: np.random.Generator,
    ) -> str:
        """A 'biggest challenge' answer, weighted toward HPC pain for HPC users."""
        idx = int(rng.integers(0, len(_CHALLENGE_TEMPLATES)))
        # Heavy cluster users complain about the cluster more often.
        if ctx.trait("hpc") > 0.6 and rng.random() < 0.5:
            idx = int(rng.integers(0, 4))
        return _CHALLENGE_TEMPLATES[idx]
