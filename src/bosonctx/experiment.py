"""Three fibers, one beamsplitter: contexts, outcome tables, and the two
structural consistency checks (marginal no-disturbance and partner
indistinguishability).

Fibers are named A, B, C and each holds one photon.  A context connects one
or two fibers to the beamsplitter; the six contexts are A, B, C, AB, AC, BC,
with the alphabetically first fiber of a pair entering input port 1.

Outcome tokens (in tables and table files) are the closed set
:data:`OUTCOMES`; any other spelling, such as ``At`` or ``bt,ar``, is refused.

* a single-fiber outcome is the lowercase fiber letter followed by ``t``
  (transmitted) or ``r`` (reflected), e.g. ``at``;
* a pair outcome joins the two tokens in port order with a comma,
  e.g. ``ar,bt`` means A reflected and B transmitted;
* ``coinc``, in pair contexts only, is the unresolved one-photon-per-output-port
  coincidence of the interfering bosonic fraction, which labels no fiber.

A requirement set (fiber letters mapped to ``t`` or ``r``) picks the tokens
of one context whose labels include it (:func:`check_requirements`, the one
matcher); an event mass (:func:`matching_mass`) is then one membership test
per table entry.

JSON and CSV share one header rule (schema 1 if given; theta and eta given).
Table numbers and the tolerance are read by :func:`~bosonctx.fock.real_number`.
:meth:`OutcomeTable.validate_structure` (a finite positive tolerance,
contexts, tokens, each probability's range, then the header) gates both checkers;
:meth:`OutcomeTable.validate` adds normalization.  An outcome a table leaves out counts as probability 0.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .fock import real_number
from .optics import (
    BeamsplitterSpec,
    DistinguishabilityParam,
    pair_outcome_distribution,
    single_outcome_distribution,
)

FIBERS = ("A", "B", "C")
SINGLE_CONTEXTS = ("A", "B", "C")
PAIR_CONTEXTS = ("AB", "AC", "BC")
ALL_CONTEXTS = SINGLE_CONTEXTS + PAIR_CONTEXTS

TRANSMITTED = "t"
REFLECTED = "r"
COINCIDENCE = "coinc"

SCHEMA_VERSION = 1
DEFAULT_TOLERANCE = 1e-12


def validate_context(ctx: str) -> str:
    """Check a context token against the six canonical contexts."""
    if ctx not in ALL_CONTEXTS:
        raise ValueError(
            f"unknown context {ctx!r}; expected one of {', '.join(ALL_CONTEXTS)}")
    return ctx


def make_outcome(assignments: Mapping[str, str]) -> str:
    """Render per-fiber transmit/reflect labels as a canonical outcome token."""
    if not assignments:
        raise ValueError("outcome needs at least one fiber label")
    parts = []
    for fiber in sorted(assignments):
        value = assignments[fiber]
        if fiber not in FIBERS:
            raise ValueError(f"unknown fiber {fiber!r}")
        if value not in (TRANSMITTED, REFLECTED):
            raise ValueError(f"label must be {TRANSMITTED!r} or {REFLECTED!r}, got {value!r}")
        parts.append(fiber.lower() + value)
    return ",".join(parts)


def _context_outcomes(ctx: str) -> Mapping[str, Mapping[str, str]]:
    # Table order: t, r for one fiber; for a pair, bunching at port 1 (first
    # fiber t, second r), at port 2, both t, both r, then the label-free coinc.
    t, r = TRANSMITTED, REFLECTED
    rows = [(t,), (r,)] if len(ctx) == 1 else [(t, r), (r, t), (t, t), (r, r), ()]
    labels = (MappingProxyType(dict(zip(ctx, row))) for row in rows)
    return MappingProxyType({make_outcome(a) if a else COINCIDENCE: a for a in labels})


# Every context's outcome tokens, each with its read-only per-fiber labels.
OUTCOMES = MappingProxyType({ctx: _context_outcomes(ctx) for ctx in ALL_CONTEXTS})


def matching_mass(distribution: Mapping[str, float], tokens: frozenset[str]) -> float:
    """Probability mass of the entries whose token is in ``tokens``, summed in
    the distribution's own order."""
    return sum(p for token, p in distribution.items() if token in tokens)


def check_requirements(ctx: str, requirements: Mapping[str, str]) -> frozenset[str]:
    """The tokens of ``OUTCOMES[ctx]`` whose labels include every requirement,
    or ``ValueError`` unless ``ctx`` is a context, ``requirements`` is non-empty
    and some outcome of ``ctx`` meets it.  ``coinc`` labels no fiber, so it
    meets no requirement."""
    items = requirements.items()
    tokens = frozenset(token for token, labels in OUTCOMES[validate_context(ctx)].items()
                       if items <= labels.items())
    if not requirements or not tokens:
        raise ValueError(f"context {ctx!r} has no outcome meeting {dict(requirements)!r}")
    return tokens


def _validate_outcome_for_context(token: str, ctx: str) -> None:
    if token not in OUTCOMES[ctx]:
        raise ValueError(f"context {ctx!r} has no outcome {token!r}; "
                         f"expected one of {', '.join(OUTCOMES[ctx])}")


def run_context(ctx: str, bs: BeamsplitterSpec,
                d: DistinguishabilityParam) -> dict[str, float]:
    """Outcome distribution for one context, keyed by the tokens of
    ``OUTCOMES[ctx]`` in their order.  A pair context's resolved both-t and
    both-r entries appear only for eta < 1; ``coinc`` is always present.
    """
    ctx = validate_context(ctx)
    if len(ctx) == 1:
        single = single_outcome_distribution(bs)
        return dict(zip(OUTCOMES[ctx], (single.p_transmitted, single.p_reflected)))
    pair = pair_outcome_distribution(bs, d)
    if pair.resolved_coincidence is None:
        port1, port2, _, _, coinc = OUTCOMES[ctx]
        return {port1: pair.p_bunch_port1, port2: pair.p_bunch_port2, coinc: pair.p_unresolved}
    return dict(zip(OUTCOMES[ctx], (pair.p_bunch_port1, pair.p_bunch_port2,
                                    *pair.resolved_coincidence, pair.p_unresolved)))


@dataclass(frozen=True)
class OutcomeTable:
    """Conditional outcome probabilities for all six contexts.

    ``contexts`` maps a context token to an outcome-token distribution.
    Construction does not validate; call :meth:`validate` (loaders do), so
    that deliberately perturbed tables can be built for fault injection.
    """

    theta: float
    eta: float
    contexts: dict[str, dict[str, float]]

    def context_distribution(self, ctx: str) -> dict[str, float]:
        if ctx not in self.contexts:
            raise ValueError(f"table has no context {ctx!r}")
        return self.contexts[ctx]

    def validate_structure(self, tol: float = DEFAULT_TOLERANCE) -> float:
        """Every check but normalization: ``tol`` a table number that is finite
        and positive, the six contexts, their outcome tokens, each probability
        within [0, 1] up to ``tol`` (not NaN), then theta and eta through their
        parameter types.  Returns ``tol`` as a float."""
        tol = real_number(tol, "tolerance")
        if not 0 < tol < float("inf"):
            raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
        if self.contexts.keys() != set(ALL_CONTEXTS):
            raise ValueError(f"table needs the contexts {', '.join(ALL_CONTEXTS)}, "
                             f"got {list(self.contexts)}")
        for ctx, dist in self.contexts.items():
            for token, p in dist.items():
                _validate_outcome_for_context(token, ctx)
                if not (-tol <= p <= 1.0 + tol):
                    raise ValueError(
                        f"probability {p!r} of {token!r} in {ctx!r} is outside [0, 1]")
        BeamsplitterSpec(self.theta)
        DistinguishabilityParam(self.eta)
        return tol

    def normalization_deviation(self) -> tuple[float, str]:
        """The largest ``abs(sum - 1)`` over the contexts, and its context."""
        return max((abs(sum(dist.values()) - 1.0), ctx) for ctx, dist in self.contexts.items())

    def validate(self, tol: float = DEFAULT_TOLERANCE) -> None:
        """:meth:`validate_structure` plus per-context normalization."""
        tol = self.validate_structure(tol)
        deviation, ctx = self.normalization_deviation()
        if deviation > tol:
            raise ValueError(f"context {ctx!r} probabilities miss a sum of 1 by {deviation!r}")

    # -- serialization ----------------------------------------------------

    def to_records(self) -> list[dict]:
        return [{"context": ctx, "outcome": token, "probability": p}
                for ctx in ALL_CONTEXTS for token, p in self.contexts.get(ctx, {}).items()]

    def to_json(self) -> str:
        return dump_json({
            "schema": SCHEMA_VERSION,
            "theta": self.theta,
            "eta": self.eta,
            "records": self.to_records(),
        })

    def to_csv(self) -> str:
        return write_csv({"theta": self.theta, "eta": self.eta},
                         ("context", "outcome", "probability"),
                         ((r["context"], r["outcome"], r["probability"])
                          for r in self.to_records()))

    @classmethod
    def from_records(cls, theta, eta, records: list[Mapping]) -> "OutcomeTable":
        """Build a table from parsed values, each number read by ``real_number``."""
        contexts: dict[str, dict[str, float]] = {}
        for rec in records:
            try:
                ctx = validate_context(str(rec["context"]))
                token = str(rec["outcome"])
                p = real_number(rec["probability"], "probability")
            except (KeyError, TypeError) as exc:
                raise ValueError(f"bad table record {rec!r}") from exc
            _validate_outcome_for_context(token, ctx)
            dist = contexts.setdefault(ctx, {})
            if token in dist:
                raise ValueError(f"duplicate record for {ctx!r}/{token!r}")
            dist[token] = p
        return cls(real_number(theta, "theta"), real_number(eta, "eta"), contexts)

    @classmethod
    def _from_header(cls, header: Mapping, records: list[Mapping]) -> "OutcomeTable":
        """Both formats' header rule: ``schema`` is 1 if given, theta and eta are given."""
        if real_number(header.get("schema", SCHEMA_VERSION), "schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema {header['schema']!r}")
        if "theta" not in header or "eta" not in header:
            raise ValueError("table header needs theta and eta")
        return cls.from_records(header["theta"], header["eta"], records)

    @classmethod
    def from_json(cls, text: str) -> "OutcomeTable":
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"not valid JSON: {exc}") from exc
        records = payload.get("records") if isinstance(payload, dict) else None
        if not isinstance(records, list):
            raise ValueError("table JSON must be an object with a records list")
        return cls._from_header(payload, records)

    @classmethod
    def from_csv(cls, text: str) -> "OutcomeTable":
        meta: dict[str, str] = {}
        rows = []
        for line in text.splitlines():
            if line.startswith("#"):
                key, equals, value = line.lstrip("#").partition("=")
                if equals:
                    meta[key.strip()] = value
            elif line.strip():
                rows.append(line)
        reader = csv.DictReader(io.StringIO("\n".join(rows)))
        if reader.fieldnames != ["context", "outcome", "probability"]:
            raise ValueError(
                f"CSV header must be context,outcome,probability, got {reader.fieldnames}")
        return cls._from_header(meta, list(reader))


def dump_json(payload: Mapping) -> str:
    """Strict RFC 8259 JSON (no NaN or Infinity), two-space indent, final newline."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def write_csv(meta: Mapping[str, object], header: Sequence[str],
              rows: Iterable[Sequence]) -> str:
    """CSV text: ``# schema=``, one ``# key=value`` line per metadata entry,
    then the header and the rows.  Floats are written as ``str``, which is the
    shortest text that reads back to the same float."""
    buf = io.StringIO()
    buf.write(f"# schema={SCHEMA_VERSION}\n")
    for key, value in meta.items():
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def parse_table(text: str) -> OutcomeTable:
    """Parse a serialized table, sniffing JSON vs CSV; ``text`` must be a ``str``."""
    if not isinstance(text, str):
        raise ValueError(f"table text must be a str, got {type(text).__name__}")
    stripped = text.lstrip()
    if not stripped:
        raise ValueError("empty table file")
    if stripped[0] in "{[":
        return OutcomeTable.from_json(text)
    return OutcomeTable.from_csv(text)


def load_table(path) -> OutcomeTable:
    return parse_table(Path(path).read_text())


def full_table(bs: BeamsplitterSpec, d: DistinguishabilityParam) -> OutcomeTable:
    """Simulate all six contexts at the given splitter angle and overlap."""
    contexts = {ctx: run_context(ctx, bs, d) for ctx in ALL_CONTEXTS}
    return OutcomeTable(bs.theta, d.eta, contexts)


# -- consistency checks ---------------------------------------------------


def marginal_probability(table: OutcomeTable, ctx: str, fiber: str, value: str) -> float:
    """Marginal probability that ``fiber`` got ``value`` within one context.

    Unresolved coincidence mass is apportioned by the squared classical path
    weights (evenly at a balanced splitter); resolved outcomes contribute
    their full probability.  A fiber outside ``ctx`` or a value other than
    ``t`` or ``r`` raises ``ValueError`` (:func:`check_requirements`).
    """
    tokens = check_requirements(ctx, {fiber: value})
    dist = table.context_distribution(ctx)
    total = matching_mass(dist, tokens)
    if COINCIDENCE in dist:
        bs = BeamsplitterSpec(table.theta)
        T, R = bs.transmittance, bs.reflectance
        squared = {TRANSMITTED: T * T, REFLECTED: R * R}[value]
        total += dist[COINCIDENCE] * (squared / (T * T + R * R))
    return total


@dataclass(frozen=True)
class IdentityResult:
    """One checked identity: a name and the two compared values."""

    name: str
    lhs: float
    rhs: float
    checked: bool = True

    @property
    def deviation(self) -> float:
        return abs(self.lhs - self.rhs)


@dataclass(frozen=True)
class CheckReport:
    check: str
    tolerance: float
    identities: tuple[IdentityResult, ...]

    @property
    def passed(self) -> bool:
        return all(i.deviation <= self.tolerance for i in self.identities if i.checked)

    @property
    def max_deviation(self) -> float:
        return max((i.deviation for i in self.identities if i.checked), default=0.0)

    def failures(self) -> list[IdentityResult]:
        return [i for i in self.identities if i.checked and i.deviation > self.tolerance]

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "max_deviation": self.max_deviation,
            "identities": len(self.identities),
            "skipped": sum(1 for i in self.identities if not i.checked),
            "failures": [
                {"name": i.name, "lhs": i.lhs, "rhs": i.rhs, "deviation": i.deviation}
                for i in self.failures()
            ],
        }


# each fiber and its two pair contexts
_FIBER_PAIRS = tuple((fiber, *(c for c in PAIR_CONTEXTS if fiber in c)) for fiber in FIBERS)


def check_no_disturbance(table: OutcomeTable,
                         tol: float = DEFAULT_TOLERANCE) -> CheckReport:
    """Verify that each fiber's transmit/reflect marginal is context-independent.

    For every fiber and value the marginal is computed in both pair contexts
    containing the fiber and compared across them; that identity is always
    checked.  Each pair-context marginal is also compared against the
    single-fiber context, but only where the pair context's unresolved
    coincidence mass is within tolerance: when unresolved mass is present the
    marginal depends on the apportionment convention rather than on data, so
    the single-context comparison is reported but marked as skipped.  A table
    that fails :meth:`OutcomeTable.validate_structure` raises ``ValueError``.
    An outcome missing from the table counts as probability 0.
    """
    tol = table.validate_structure(tol)
    identities: list[IdentityResult] = []
    for fiber, c1, c2 in _FIBER_PAIRS:
        for value in (TRANSMITTED, REFLECTED):
            marginals = {c: marginal_probability(table, c, fiber, value) for c in (c1, c2)}
            identities.append(IdentityResult(f"marginal {fiber}={value}: {c1} vs {c2}",
                                             marginals[c1], marginals[c2]))
            p_single = marginal_probability(table, fiber, fiber, value)
            for c in (c1, c2):
                unresolved = table.context_distribution(c).get(COINCIDENCE, 0.0)
                identities.append(IdentityResult(
                    f"marginal {fiber}={value}: {c} vs single-{fiber}",
                    marginals[c], p_single, checked=unresolved <= tol))
    return CheckReport("no_disturbance", tol, tuple(identities))


def check_indistinguishability(table: OutcomeTable,
                               tol: float = DEFAULT_TOLERANCE) -> CheckReport:
    """Verify that pair-outcome probabilities do not depend on the partner fiber.

    For each fiber the four labeled patterns (own value, partner value) and
    the unresolved coincidence rate must agree between the two pair contexts
    the fiber takes part in.  A table that fails
    :meth:`OutcomeTable.validate_structure` raises ``ValueError``.
    """
    tol = table.validate_structure(tol)
    identities: list[IdentityResult] = []
    for fiber, c1, c2 in _FIBER_PAIRS:
        partner1 = c1.replace(fiber, "")
        partner2 = c2.replace(fiber, "")
        for own in (TRANSMITTED, REFLECTED):
            for other in (TRANSMITTED, REFLECTED):
                p1, p2 = (matching_mass(table.contexts[c],
                                        check_requirements(c, {fiber: own, p: other}))
                          for c, p in ((c1, partner1), (c2, partner2)))
                identities.append(IdentityResult(
                    f"pattern {fiber}={own}, partner={other}: {c1} vs {c2}", p1, p2))
        q1 = table.context_distribution(c1).get(COINCIDENCE, 0.0)
        q2 = table.context_distribution(c2).get(COINCIDENCE, 0.0)
        identities.append(IdentityResult(f"unresolved coincidence: {c1} vs {c2}", q1, q2))
    return CheckReport("indistinguishability", tol, tuple(identities))
