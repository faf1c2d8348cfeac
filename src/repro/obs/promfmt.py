"""Shared Prometheus text-exposition writer and format validator.

Every Prometheus text this repo writes — a traced run's ``repro trace
--metrics-out`` file, the serve tier's ``metrics/`` ring, the fleet
registry — is a :class:`repro.obs.registry.MetricsRegistry` rendered
through this module, so there is exactly one place that knows the
exposition format — ``# HELP``/``# TYPE`` comment lines, label-value
escaping, sample-line layout — and one validator
(:func:`validate_prometheus`) that its output must pass in the test
suite.

Escaping follows the exposition-format spec: inside a label value a
backslash becomes ``\\``, a double quote ``\"``, and a newline the two
characters ``\n`` (label values may not contain raw newlines — a raw
newline would split the sample line and corrupt the scrape).
"""

from __future__ import annotations

import re

__all__ = [
    "escape_label",
    "escape_help",
    "sample_line",
    "PromWriter",
    "validate_prometheus",
]

#: Metric types the writer emits and the validator accepts.
PROM_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
#: One sample line: name, optional {labels}, value (int/float/nan/inf).
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[+-]?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|NaN|Inf|nan|inf))$"
)
#: One label pair inside the braces, with spec escaping in the value.
_PAIR_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\\n]|\\["\\n])*)"'
)


def escape_label(value: str) -> str:
    """Escape a label value per the exposition format (``\\``, ``"``, newline)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def escape_help(text: str) -> str:
    """Escape a ``# HELP`` text (backslash and newline only, per spec)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def sample_line(name: str, labels: dict[str, str] | None, value: str) -> str:
    """One sample line; ``value`` arrives pre-formatted by the caller so
    existing byte-for-byte renderings (``%.6f`` gauges, integer counters)
    survive the shared-writer refactor unchanged."""
    if not labels:
        return f"{name} {value}"
    body = ",".join(f'{k}="{escape_label(v)}"' for k, v in labels.items())
    return f"{name}{{{body}}} {value}"


class PromWriter:
    """Accumulates metric families and renders exposition text.

    Families render in insertion order (callers sort their own samples),
    every family gets its ``# HELP``/``# TYPE`` preamble even when it has
    no samples — an empty family documents that the metric *exists* and
    is zero, which is what scrapers and diff-based tests want.
    """

    def __init__(self) -> None:
        self._lines: list[str] = []

    def family(self, name: str, type_: str, help_text: str) -> None:
        if type_ not in PROM_TYPES:
            raise ValueError(f"unknown metric type {type_!r}; expected {PROM_TYPES}")
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self._lines.append(f"# HELP {name} {escape_help(help_text)}")
        self._lines.append(f"# TYPE {name} {type_}")

    def sample(
        self,
        name: str,
        labels: dict[str, str] | None,
        value: str,
    ) -> None:
        self._lines.append(sample_line(name, labels, value))

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def _family_of(sample_name: str) -> str:
    """The family a sample belongs to (histogram/summary series share the
    base name with ``_bucket``/``_sum``/``_count`` suffixes)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            return sample_name[: -len(suffix)]
    return sample_name


def validate_prometheus(text: str) -> list[str]:
    """Check exposition text for format problems; empty list = valid.

    Enforces what both of our writers promise: text ends with a newline;
    every ``# TYPE`` names a known type and is preceded by that family's
    ``# HELP``; every sample line parses (name, braced label pairs with
    spec escaping, numeric value); every sample belongs to a family that
    declared a ``# TYPE``; counter samples are non-negative.
    """
    problems: list[str] = []
    if not text:
        return ["empty exposition"]
    if not text.endswith("\n"):
        problems.append("exposition must end with a newline")
    helped: set[str] = set()
    typed: dict[str, str] = {}
    for n, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                problems.append(f"line {n}: malformed HELP comment")
            else:
                helped.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not _NAME_RE.match(parts[2]):
                problems.append(f"line {n}: malformed TYPE comment")
                continue
            name, type_ = parts[2], parts[3]
            if type_ not in PROM_TYPES:
                problems.append(f"line {n}: unknown metric type {type_!r}")
            if name not in helped:
                problems.append(f"line {n}: TYPE for {name!r} without a HELP line")
            typed[name] = type_
            continue
        if line.startswith("#"):
            continue  # other comments are legal
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {n}: unparseable sample: {line!r}")
            continue
        family = _family_of(match.group("name"))
        if family not in typed and match.group("name") not in typed:
            problems.append(
                f"line {n}: sample for {match.group('name')!r} has no TYPE"
            )
        labels = match.group("labels")
        if labels:
            stripped = _PAIR_RE.sub("", labels).replace(",", "")
            if stripped:
                problems.append(f"line {n}: malformed labels {labels!r}")
        family_type = typed.get(family, typed.get(match.group("name")))
        if family_type == "counter":
            try:
                if float(match.group("value")) < 0:
                    problems.append(f"line {n}: negative counter value")
            except ValueError:  # pragma: no cover - regex already vetted it
                problems.append(f"line {n}: non-numeric value")
        if len(problems) >= 20:
            problems.append("... (further problems suppressed)")
            break
    return problems
