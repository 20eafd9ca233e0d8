"""Line-oriented textual economy format (``.econ``) and its ordinal oracle.

Grammar (one statement per line, ``#`` starts a comment)::

    periods: <T>
    agent <name> side <A|B> arrives <t> delta <p/q>
    prefs <name>: <partner>=<p/q> <partner>=<p/q> ...
    ordinal <name>: (<partner>,<delay>) (<partner>,<delay>) ...

Cardinal utilities are the source of truth.  Ordinal blocks are assertions:
each block claims a strictly decreasing ranking of discounted utilities
``delta^delay * u(owner, partner)``, checked by :func:`validate_ordinal`.
A delay lies in ``0..T - t``, where t is the owner's arrival: no pair forms
after period T.  Partners missing from a prefs line are unacceptable
(utility -1).  Rationals are written ``p/q`` (q > 0) or as integers; no
decimal literals.  A discount factor lies in [0, 1].
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .economy import Economy, build_economy
from .errors import (
    ArrivalOutOfRange,
    BadRational,
    DslSyntaxError,
    DuplicateAgent,
    OrdinalViolation,
    UnknownPartner,
)

_RATIONAL = re.compile(r"^(-?\d+)(?:/(0*[1-9]\d*))?$")
_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_PERIODS = re.compile(r"^periods:\s*(\d+)$")
_AGENT = re.compile(r"^agent\s+(\S+)\s+side\s+(\S+)\s+arrives\s+(\d+)\s+delta\s+(\S+)$")
_PREFS = re.compile(r"^prefs\s+(\S+?):\s*(.*)$")
_PREF_ENTRY = re.compile(r"^(\S+)=(\S+)$")
_ORDINAL = re.compile(r"^ordinal\s+(\S+?):\s*(.*)$")
_ORDINAL_ENTRY = re.compile(r"^\((\S+?),(\d+)\)$")


def _parse_rational(token: str, line: int) -> Fraction:
    if not (mt := _RATIONAL.match(token)):
        raise BadRational(f"expected an integer or p/q with q > 0, got {token!r}", line)
    return Fraction(int(mt[1]), int(mt[2] or 1))


@dataclass(frozen=True)
class AgentDecl:
    name: str
    side: str
    arrives: int
    delta: Fraction


@dataclass(frozen=True)
class EconomyDocument:
    """Parsed form of one ``.econ`` file, already canonically ordered."""

    horizon: int
    agents: tuple[AgentDecl, ...]
    prefs: tuple[tuple[str, tuple[tuple[str, Fraction], ...]], ...]
    ordinals: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]

    def to_economy(self) -> Economy:
        arrivals = [([], []) for _ in range(self.horizon)]
        for d in self.agents:
            arrivals[d.arrives - 1]["AB".index(d.side)].append(d.name)
        deltas = {d.name: d.delta for d in self.agents}
        utilities = {(o, p): v for o, entries in self.prefs for p, v in entries}
        return build_economy(self.horizon, arrivals, deltas, utilities)


def parse(text: str) -> EconomyDocument:
    horizon = None
    agents: list[AgentDecl] = []
    sides: dict[str, str] = {}
    prefs: dict[str, tuple[tuple[str, Fraction], ...]] = {}
    ordinals: dict[str, tuple[tuple[str, int], ...]] = {}
    pending: list[tuple[int, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if horizon is None:
            mt = _PERIODS.match(line)
            if not mt:
                raise DslSyntaxError("first statement must be 'periods: <T>'", lineno)
            horizon = int(mt.group(1))
            if horizon < 1:
                raise DslSyntaxError("periods must be at least 1", lineno)
            continue
        if line.startswith("agent "):
            mt = _AGENT.match(line)
            if not mt:
                raise DslSyntaxError(
                    "expected 'agent <name> side <A|B> arrives <t> delta <p/q>'",
                    lineno,
                )
            name, side, arrives, delta = mt.groups()
            if not _NAME.match(name):
                raise DslSyntaxError(f"bad agent name {name!r}", lineno)
            if side not in ("A", "B"):
                raise DslSyntaxError(f"side must be A or B, got {side!r}", lineno)
            if name in sides:
                raise DuplicateAgent(f"agent {name} declared twice", lineno)
            t = int(arrives)
            if not 1 <= t <= horizon:
                raise ArrivalOutOfRange(
                    f"agent {name} arrives at {t}, outside 1..{horizon}", lineno
                )
            d = _parse_rational(delta, lineno)
            if not 0 <= d <= 1:
                msg = f"discount factor of {name} must lie in [0,1], got {delta!r}"
                raise BadRational(msg, lineno)
            agents.append(AgentDecl(name, side, t, d))
            sides[name] = side
        elif line.startswith("prefs ") or line.startswith("ordinal "):
            pending.append((lineno, line))
        else:
            raise DslSyntaxError(f"unrecognized statement {line!r}", lineno)

    if horizon is None:
        raise DslSyntaxError("missing 'periods:' header", 1)
    arrival = {d.name: d.arrives for d in agents}

    def check_partner(owner: str, partner: str, lineno: int):
        if partner not in sides:
            raise UnknownPartner(f"{partner} is not a declared agent", lineno)
        if sides[partner] == sides[owner]:
            raise UnknownPartner(
                f"{partner} is on {owner}'s own side", lineno
            )

    for lineno, line in pending:
        if line.startswith("prefs "):
            mt = _PREFS.match(line)
            if not mt:
                raise DslSyntaxError("expected 'prefs <name>: <partner>=<p/q> ...'", lineno)
            owner, body = mt.groups()
            if owner not in sides:
                raise UnknownPartner(f"{owner} is not a declared agent", lineno)
            if owner in prefs:
                raise DuplicateAgent(f"prefs for {owner} given twice", lineno)
            entries = []
            seen = set()
            for token in body.split():
                me = _PREF_ENTRY.match(token)
                if not me:
                    raise DslSyntaxError(f"bad preference entry {token!r}", lineno)
                partner, value = me.groups()
                check_partner(owner, partner, lineno)
                if partner in seen:
                    raise DuplicateAgent(
                        f"{partner} listed twice in prefs of {owner}", lineno
                    )
                seen.add(partner)
                entries.append((partner, _parse_rational(value, lineno)))
            # Canonical order: utility descending, then (a stable sort) name.
            entries.sort()  # by name alone, as no name is listed twice
            prefs[owner] = tuple(sorted(entries, key=itemgetter(1), reverse=True))
        else:
            mt = _ORDINAL.match(line)
            if not mt:
                raise DslSyntaxError(
                    "expected 'ordinal <name>: (<partner>,<d>) ...'", lineno
                )
            owner, body = mt.groups()
            if owner not in sides:
                raise UnknownPartner(f"{owner} is not a declared agent", lineno)
            if owner in ordinals:
                raise DuplicateAgent(f"ordinal block for {owner} given twice", lineno)
            entries = []
            for token in body.split():
                me = _ORDINAL_ENTRY.match(token)
                if not me:
                    raise DslSyntaxError(f"bad ordinal entry {token!r}", lineno)
                partner, delay = me.groups()
                check_partner(owner, partner, lineno)
                t, latest = arrival[owner], horizon - arrival[owner]
                if int(delay) > latest:
                    msg = f"{owner} arrives at {t}: delay {delay} is outside 0..{latest}"
                    raise ArrivalOutOfRange(msg, lineno)
                entries.append((partner, int(delay)))
            ordinals[owner] = tuple(entries)

    order = {d.name: i for i, d in enumerate(agents)}
    return EconomyDocument(
        horizon=horizon,
        agents=tuple(agents),
        prefs=tuple((o, prefs[o]) for o in sorted(prefs, key=order.get)),
        ordinals=tuple((o, ordinals[o]) for o in sorted(ordinals, key=order.get)),
    )


def serialize(doc: EconomyDocument) -> str:
    lines = [f"periods: {doc.horizon}"]
    for d in doc.agents:
        lines.append(
            f"agent {d.name} side {d.side} arrives {d.arrives} delta {d.delta}"
        )
    for owner, entries in doc.prefs:
        body = " ".join(f"{p}={v}" for p, v in entries)
        lines.append(f"prefs {owner}: {body}")
    for owner, entries in doc.ordinals:
        body = " ".join(f"({p},{d})" for p, d in entries)
        lines.append(f"ordinal {owner}: {body}")
    return "\n".join(lines) + "\n"


def validate_ordinal(economy: Economy, doc: EconomyDocument) -> None:
    """Assert each ordinal block's strictly decreasing discounted utilities."""
    for owner, entries in doc.ordinals:
        delta = economy.delta(owner)
        for (p1, d1), (p2, d2) in zip(entries, entries[1:]):
            lhs = delta**d1 * economy.utility(owner, p1)
            rhs = delta**d2 * economy.utility(owner, p2)
            if not lhs > rhs:
                raise OrdinalViolation(owner, (p1, d1), (p2, d2), lhs, rhs)


def load(text: str) -> tuple[Economy, EconomyDocument]:
    """The economy of an ``.econ`` text and its document, once every
    ordinal block has passed :func:`validate_ordinal`."""
    doc = parse(text)
    economy = doc.to_economy()
    validate_ordinal(economy, doc)
    return economy, doc
