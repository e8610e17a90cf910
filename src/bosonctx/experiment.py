"""Three fibers, one beamsplitter: contexts, outcome tables, and the two
structural consistency checks (marginal no-disturbance and partner
indistinguishability).

Fibers are named A, B, C and each holds one photon.  A context connects one
or two fibers to the beamsplitter; the six contexts are A, B, C, AB, AC, BC,
with the alphabetically first fiber of a pair entering input port 1.

Outcome tokens (in tables and table files) are the closed set
:data:`OUTCOMES`; any other spelling, such as ``At`` or ``bt,ar``, is refused.
A token joins, in port order with a comma, each fiber's lowercase letter
followed by ``t`` (transmitted) or ``r`` (reflected): ``at``, or ``ar,bt`` for
A reflected and B transmitted.  ``coinc``, in pair contexts only, is the
unresolved one-photon-per-output-port coincidence of the interfering bosonic
fraction, which labels no fiber.

A requirement set (fiber letters mapped to ``t`` or ``r``) picks the tokens
of one context whose labels include it (:func:`check_requirements`, the one
matcher); an event mass (:func:`matching_mass`) is then one membership test
per table entry.

Only :func:`parse_table` reads table text: JSON or CSV, one header rule
(schema 1 if given; theta and eta given), then :meth:`OutcomeTable.from_records`,
whose records are mappings with exactly the keys context, outcome and probability.
Table numbers and the tolerance are read by :func:`~bosonctx.fock.real_number`.
:meth:`OutcomeTable.validate_structure` (a finite positive tolerance, mappings
of the contexts and their tokens, each probability a real number in range, then
the header) gates both checkers; :meth:`OutcomeTable.validate` adds
normalization.  An outcome a table leaves out counts as probability 0.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from numbers import Real
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .fock import _echo, real_number
from .optics import BeamsplitterSpec, DistinguishabilityParam, pair_outcome_distribution

FIBERS = ("A", "B", "C")
PAIR_CONTEXTS = ("AB", "AC", "BC")
ALL_CONTEXTS = FIBERS + PAIR_CONTEXTS  # a single-fiber context is named by its fiber

TRANSMITTED = "t"
REFLECTED = "r"
COINCIDENCE = "coinc"

SCHEMA_VERSION = 1
DEFAULT_TOLERANCE = 1e-12
_RECORD_FIELDS = ("context", "outcome", "probability")  # a table record's keys, in CSV order


def validate_context(ctx: str) -> str:
    """Check a context token against the six canonical contexts."""
    if ctx not in ALL_CONTEXTS:
        raise ValueError(
            f"unknown context {ctx!r:.40}; expected one of {', '.join(ALL_CONTEXTS)}")
    return ctx


def _context_outcomes(ctx: str) -> Mapping[str, Mapping[str, str]]:
    # Table order: t, r for one fiber; for a pair, bunching at port 1 (first
    # fiber t, second r), at port 2, both t, both r, then the label-free coinc.
    rows = ("t", "r") if len(ctx) == 1 else ("tr", "rt", "tt", "rr", "")
    return MappingProxyType({",".join(f.lower() + v for f, v in zip(ctx, row)) or COINCIDENCE:
                             MappingProxyType(dict(zip(ctx, row))) for row in rows})


# Every context's outcome tokens, each with its read-only per-fiber labels.
OUTCOMES = MappingProxyType({ctx: _context_outcomes(ctx) for ctx in ALL_CONTEXTS})
_TOKENS = {ctx: tuple(outcomes) for ctx, outcomes in OUTCOMES.items()}  # to unpack


def matching_mass(distribution: Mapping[str, float], tokens: frozenset[str]) -> float:
    """Probability mass of the entries whose token is in ``tokens``, summed left
    to right from the int 0 in the distribution's own order, so no match is 0."""
    return sum([p for token, p in distribution.items() if token in tokens])


def check_requirements(ctx: str, requirements: Mapping[str, str]) -> frozenset[str]:
    """The tokens of ``OUTCOMES[ctx]`` whose labels include every requirement,
    or ``ValueError`` unless ``ctx`` is a context, ``requirements`` is non-empty
    and some outcome of ``ctx`` meets it.  ``coinc`` labels no fiber, so it
    meets no requirement."""
    items = requirements.items()
    tokens = frozenset(token for token, labels in OUTCOMES[validate_context(ctx)].items()
                       if items <= labels.items())
    if not requirements or not tokens:
        raise ValueError(f"context {ctx!r:.40} has no outcome meeting {dict(requirements)!r:.40}")
    return tokens


def _validate_outcome_for_context(token: str, ctx: str) -> None:
    if token not in OUTCOMES[ctx]:
        raise ValueError(f"context {ctx!r:.40} has no outcome {token!r:.40}; "
                         f"expected one of {', '.join(OUTCOMES[ctx])}")


def run_context(ctx: str, bs: BeamsplitterSpec,
                d: DistinguishabilityParam) -> dict[str, float]:
    """Outcome distribution for one context, keyed by the tokens of
    ``OUTCOMES[ctx]`` in their order.  A pair context's resolved both-t and
    both-r entries appear only for eta < 1; ``coinc`` is always present.  The
    values are the splitter's T and R, or the results of the one pair rule
    :func:`~bosonctx.optics.pair_outcome_distribution`, in a dict literal.
    """
    try:
        tokens = _TOKENS[ctx]
    except (KeyError, TypeError):
        tokens = _TOKENS[validate_context(ctx)]
    if len(tokens) == 2:
        return {tokens[0]: bs.transmittance, tokens[1]: bs.reflectance}
    p_bunch, p_unresolved, resolved = pair_outcome_distribution(bs, d)
    port1, port2, both_t, both_r, coinc = tokens
    if resolved is None:
        return {port1: p_bunch, port2: p_bunch, coinc: p_unresolved}
    return {port1: p_bunch, port2: p_bunch,
            both_t: resolved[0], both_r: resolved[1], coinc: p_unresolved}


@dataclass(frozen=True, init=False)
class OutcomeTable:
    """Conditional outcome probabilities for all six contexts, as ``contexts[ctx][token]``.

    Construction checks nothing.  :func:`parse_table` refuses unknown contexts, tokens outside a
    context's closed set, duplicate or malformed records, unreadable numbers and a bad schema or
    header, but leaves probability ranges, completeness, header ranges and normalization to the
    gate, so perturbed tables parse for fault injection: ``analyze`` runs :meth:`validate` on a
    table it reads, and each checker runs :meth:`validate_structure`."""

    theta: float
    eta: float
    contexts: dict[str, dict[str, float]]
    __hash__ = None  # it holds dicts

    def __init__(self, theta: float, eta: float, contexts: dict[str, dict[str, float]]) -> None:
        self.__dict__.update(theta=theta, eta=eta, contexts=contexts)  # past frozen; unchecked

    def context_distribution(self, ctx: str) -> dict[str, float]:
        try:
            return self.contexts[ctx]
        except KeyError:
            raise ValueError(f"table has no context {ctx!r:.40}") from None

    def validate_structure(self, tol: float = DEFAULT_TOLERANCE) -> float:
        """Every check but normalization: ``tol`` a finite positive table number,
        mappings of the six contexts and of their outcome tokens, each probability
        a real number (not a boolean) within [0, 1] up to ``tol`` (not NaN), then
        theta and eta through their parameter types.  Returns ``tol`` as a float."""
        tol = real_number(tol, "tolerance")
        if not 0 < tol < float("inf"):
            raise ValueError(f"tolerance must be finite and positive, got {tol!r:.40}")
        if not isinstance(self.contexts, Mapping):
            raise ValueError(f"table contexts must be a mapping, got {self.contexts!r:.40}")
        if self.contexts.keys() != set(ALL_CONTEXTS):
            raise ValueError(f"table needs the contexts {', '.join(ALL_CONTEXTS)}, "
                             f"got {[*self.contexts]!r:.40}")
        for ctx, dist in self.contexts.items():
            if not isinstance(dist, Mapping):
                raise ValueError(f"context {ctx!r:.40} must be a mapping, got {dist!r:.40}")
            for token, p in dist.items():
                _validate_outcome_for_context(token, ctx)
                if isinstance(p, bool) or not isinstance(p, Real):
                    raise ValueError(f"probability {_echo(p):.40} of {token!r:.40} in {ctx!r:.40} "
                                     "is not a real number")
                if not (-tol <= p <= 1.0 + tol):
                    raise ValueError(f"probability {_echo(p):.40} of {token!r:.40} in {ctx!r:.40} "
                                     "is outside [0, 1]")
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
            raise ValueError(f"context {ctx!r:.40} probabilities miss a sum of 1 "
                             f"by {deviation!r:.40}")

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
        return write_csv({"theta": self.theta, "eta": self.eta}, _RECORD_FIELDS,
                         (r.values() for r in self.to_records()))

    @classmethod
    def from_records(cls, theta, eta, records: list[Mapping]) -> "OutcomeTable":
        """Build a table from parsed values, each number read by ``real_number``.
        A record is a mapping with exactly the keys context, outcome and probability."""
        contexts: dict[str, dict[str, float]] = {}
        for rec in records:
            if not isinstance(rec, Mapping) or rec.keys() != set(_RECORD_FIELDS):
                raise ValueError(f"bad table record {rec!r:.40}")
            ctx = validate_context(str(rec["context"]))
            token = str(rec["outcome"])
            p = real_number(rec["probability"], "probability")
            _validate_outcome_for_context(token, ctx)
            dist = contexts.setdefault(ctx, {})
            if token in dist:
                raise ValueError(f"duplicate record for {ctx!r:.40}/{token!r:.40}")
            dist[token] = p
        return cls(real_number(theta, "theta"), real_number(eta, "eta"), contexts)


def dump_json(payload: Mapping) -> str:
    """Strict RFC 8259 JSON (no NaN or Infinity), two-space indent, final newline."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def write_csv(meta: Mapping[str, object], header: Sequence[str],
              rows: Iterable[Iterable]) -> str:
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
        raise ValueError(f"table text must be a str, got {type(text).__name__!s:.40}")
    stripped = text.lstrip()
    if not stripped:
        raise ValueError("empty table file")
    if stripped[0] in "{[":
        try:
            header = json.loads(text)
        except (ValueError, RecursionError) as exc:  # such as an int past 4300 digits
            raise ValueError(f"not valid JSON: {exc}") from exc
        records = header.get("records") if isinstance(header, dict) else None
        if not isinstance(records, list):
            raise ValueError("table JSON must be an object with a records list")
    else:
        header, rows = {}, []
        for line in text.splitlines():
            if line.startswith("#"):
                key, equals, value = line.lstrip("#").partition("=")
                if equals:
                    header[key.strip()] = value
            elif line.strip():
                rows.append(line)
        reader = csv.DictReader(io.StringIO("\n".join(rows)))
        try:
            if reader.fieldnames != list(_RECORD_FIELDS):
                raise ValueError("CSV header must be context,outcome,probability, "
                                 f"got {reader.fieldnames!r:.40}")
            records = list(reader)
        except csv.Error as exc:  # such as a field past csv's size limit
            raise ValueError(f"not valid CSV: {exc}") from exc
    if real_number(header.get("schema", SCHEMA_VERSION), "schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {header['schema']!r:.40}")
    if "theta" not in header or "eta" not in header:
        raise ValueError("table header needs theta and eta")
    return OutcomeTable.from_records(header["theta"], header["eta"], records)


def load_table(path) -> OutcomeTable:
    return parse_table(Path(path).read_text())


def full_table(bs: BeamsplitterSpec, d: DistinguishabilityParam) -> OutcomeTable:
    """Simulate all six contexts at the given splitter angle and overlap."""
    contexts = {}
    for ctx in ALL_CONTEXTS:  # a loop: a comprehension would make a function per table
        contexts[ctx] = run_context(ctx, bs, d)
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
