from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynmatch import reproduce
from dynmatch.dsl import load, parse, serialize, validate_ordinal
from dynmatch.errors import (
    ArrivalOutOfRange,
    BadRational,
    DslSyntaxError,
    DuplicateAgent,
    OrdinalViolation,
    UnknownPartner,
)
from dynmatch.reproduce import FIXTURE_NAMES, fixture_text

MINIMAL = """\
periods: 1
agent a1 side A arrives 1 delta 1/2
agent b1 side B arrives 1 delta 1
prefs a1: b1=3/2
prefs b1: a1=2
"""


def test_minimal_document_parses():
    doc = parse(MINIMAL)
    e = doc.to_economy()
    assert e.horizon == 1
    assert e.arrivals == ((("a1",), ("b1",)),)
    assert e.utility("a1", "b1") == Fraction(3, 2)
    assert e.delta("a1") == Fraction(1, 2)


def test_serialize_parse_round_trip_on_documents():
    doc = parse(MINIMAL)
    assert parse(serialize(doc)) == doc


def test_canonical_text_is_a_fixed_point():
    text = serialize(parse(MINIMAL))
    assert serialize(parse(text)) == text


def test_comments_and_blank_lines_are_ignored():
    doc = parse("# header\n\n" + MINIMAL + "\n# trailing\n")
    assert doc == parse(MINIMAL)


def test_prefs_are_stored_in_descending_utility_order():
    doc = parse(
        """\
periods: 1
agent a1 side A arrives 1 delta 1
agent b1 side B arrives 1 delta 1
agent b2 side B arrives 1 delta 1
prefs a1: b1=1 b2=7
"""
    )
    assert doc.prefs == (("a1", (("b2", Fraction(7)), ("b1", Fraction(1)))),)


def test_prefs_on_one_utility_keep_partner_names_in_order():
    doc = parse(
        """\
periods: 1
agent a1 side A arrives 1 delta 1
agent b1 side B arrives 1 delta 1
agent b2 side B arrives 1 delta 1
agent b3 side B arrives 1 delta 1
prefs a1: b3=2/4 b2=1/2 b1=3
"""
    )
    half = Fraction(1, 2)
    assert doc.prefs == (("a1", (("b1", Fraction(3)), ("b2", half), ("b3", half))),)


@pytest.mark.parametrize("token", ["0", "-0", "7", "-12", "3/6", "-4/0010", "007/0014"])
def test_rationals_are_read_as_fraction_reads_them(token):
    doc = parse(MINIMAL.replace("b1=3/2", f"b1={token}"))
    assert doc.prefs[0] == ("a1", (("b1", Fraction(token)),))
    assert type(doc.prefs[0][1][0][1]) is Fraction


def test_a_preference_entry_splits_at_its_last_equals_sign():
    with pytest.raises(UnknownPartner, match="^line 4: b1=2 is not a declared agent"):
        parse(MINIMAL.replace("b1=3/2", "b1=2=3"))


MUTABLE = """\
periods: 1
agent a1 side A arrives 1 delta 1/2
agent b1 side B arrives 1 delta 1
agent b2 side B arrives 1 delta 1
prefs a1: b1=3/2
"""


@pytest.mark.parametrize(
    "mutation, error",
    [
        ("agent a1 side A arrives 1 delta 1/2", DuplicateAgent),
        ("prefs a1: b1=1", DuplicateAgent),
        ("prefs b2: zz=1", UnknownPartner),
        ("prefs zz: b1=1", UnknownPartner),
        ("prefs b1: b2=1", UnknownPartner),
        ("prefs b1: a1=0.5", BadRational),
        ("prefs b1: a1=3/0", BadRational),
        ("agent a9 side A arrives 1 delta 1/0", BadRational),
        ("agent a9 side A arrives 1 delta 3/2", BadRational),
        ("agent a9 side A arrives 1 delta -1/2", BadRational),
        ("agent a9 side A arrives 9 delta 1", ArrivalOutOfRange),
        ("agent a9 side C arrives 1 delta 1", DslSyntaxError),
        ("wibble", DslSyntaxError),
        ("ordinal a1: b1", DslSyntaxError),
        ("ordinal a1: (zz,0)", UnknownPartner),
        ("agent a9 side A", DslSyntaxError),
        ("agent 9a side A arrives 1 delta 1", DslSyntaxError),
        ("prefs b1 a1=1", DslSyntaxError),
        ("prefs b1: a1", DslSyntaxError),
        ("prefs b1: a1=1 a1=2", DuplicateAgent),
        ("ordinal a1 (b1,0)", DslSyntaxError),
        ("ordinal zz: (b1,0)", UnknownPartner),
        ("ordinal a1: (b1,0) (b2,1)", ArrivalOutOfRange),
    ],
)
def test_bad_statements_raise_with_line_numbers(mutation, error):
    with pytest.raises(error) as exc_info:
        parse(MUTABLE + mutation + "\n")
    assert exc_info.value.line == 6


def test_a_delay_past_the_horizon_names_its_line():
    # A delay is an exponent of delta: a huge one would build a huge power.
    text = MINIMAL.replace("periods: 1", "periods: 2")
    message = r"^line 6: a1 arrives at 1: delay 300000000 is outside 0\.\.1$"
    with pytest.raises(ArrivalOutOfRange, match=message):
        parse(text + "ordinal a1: (b1,0) (b1,300000000)\n")


def test_missing_header():
    with pytest.raises(DslSyntaxError):
        parse("agent a1 side A arrives 1 delta 1\n")


def test_a_file_of_comments_has_no_header():
    with pytest.raises(DslSyntaxError, match=r"^line 1: missing 'periods:' header$"):
        parse("# nothing but a comment\n\n")


def test_zero_periods_rejected():
    with pytest.raises(DslSyntaxError, match=r"^line 2: periods must be at least 1$"):
        parse("# empty market\nperiods: 0\n")


def test_duplicate_ordinal_block_rejected():
    text = MUTABLE + "ordinal a1: (b1,0)\nordinal a1: (b2,0)\n"
    message = r"^line 7: ordinal block for a1 given twice$"
    with pytest.raises(DuplicateAgent, match=message):
        parse(text)


def test_decimal_literals_rejected():
    with pytest.raises(BadRational):
        parse("periods: 1\nagent a1 side A arrives 1 delta 0.5\n")


def test_ordinal_oracle_passes_on_valid_block():
    text = MINIMAL.replace("periods: 1", "periods: 2") + "ordinal a1: (b1,0) (b1,1)\n"
    doc = parse(text)
    validate_ordinal(doc.to_economy(), doc)
    assert load(text) == (doc.to_economy(), doc)


def test_ordinal_oracle_rejects_non_decreasing_entries():
    # delta 1 makes delayed and immediate matching equally good: not a
    # strict decrease.
    text = """\
periods: 2
agent a1 side A arrives 1 delta 1
agent b1 side B arrives 1 delta 1
prefs a1: b1=2
ordinal a1: (b1,0) (b1,1)
"""
    doc = parse(text)
    with pytest.raises(OrdinalViolation):
        validate_ordinal(doc.to_economy(), doc)
    with pytest.raises(OrdinalViolation, match="^ordinal list of a1: "):
        load(text)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_round_trips(name):
    text = fixture_text(name)
    doc = parse(text)
    assert parse(serialize(doc)) == doc
    assert serialize(parse(serialize(doc))) == serialize(doc)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_ordinal_blocks_pass_the_oracle(name):
    doc = parse(fixture_text(name))
    validate_ordinal(doc.to_economy(), doc)
    # Every agent's full preference list is annotated.
    assert {o for o, _ in doc.ordinals} == {d.name for d in doc.agents}


def test_load_fixture_checks_ordinal_blocks(monkeypatch):
    good = "ordinal a1: (b4,0) (b2,0)"
    text = fixture_text("example1")
    assert good in text
    broken = text.replace(good, "ordinal a1: (b2,0) (b4,0)")
    monkeypatch.setattr(reproduce, "fixture_text", lambda name: broken)
    message = r"^ordinal list of a1: entry \('b2', 0\)"
    with pytest.raises(OrdinalViolation, match=message):
        reproduce.load_fixture("example1")


def test_fixture_arrival_schedules():
    e1 = parse(fixture_text("example1")).to_economy()
    assert e1.arrivals == (
        (("a1", "a2", "a3"), ("b1", "b2")),
        (("a4",), ("b3", "b4")),
    )
    e2 = parse(fixture_text("example2")).to_economy()
    assert e2.arrivals == (
        (("a1", "a2"), ("b1", "b2")),
        (("a3", "a4"), ("b3", "b4")),
    )


def test_static_rankings_survive_one_period_of_delay():
    # For agents documented with purely static rankings, a one-period delay
    # must never overturn a static comparison: delta * u(better) > u(worse)
    # for consecutive list entries.
    for name in FIXTURE_NAMES:
        doc = parse(fixture_text(name))
        e = doc.to_economy()
        static_owners = {
            o for o, entries in doc.ordinals if all(d == 0 for _, d in entries)
        }
        for owner, entries in doc.prefs:
            if owner not in static_owners or e.arrival_period(owner) != 1:
                continue
            values = [v for _, v in entries]
            for hi, lo in zip(values, values[1:]):
                assert e.delta(owner) * hi > lo


def rational_token(draw, lo, hi):
    """An integer or p/q literal for a value in [lo, hi], not always in
    lowest terms, with the Fraction it stands for."""
    q = draw(st.integers(1, 6))
    p = draw(st.integers(lo * q, hi * q))
    if q == 1 and draw(st.booleans()):
        return str(p), Fraction(p)
    return f"{p}/{q}", Fraction(p, q)


@st.composite
def econ_texts(draw):
    """``.econ`` texts with integer and p/q values (negative utilities too),
    partners left out of prefs lines, ordinal blocks, and statements after
    the header in any order.  Returns the text and its utilities."""
    horizon = draw(st.integers(1, 3))
    sides = {
        "A": [f"a{i}" for i in range(1, draw(st.integers(1, 3)) + 1)],
        "B": [f"b{i}" for i in range(1, draw(st.integers(1, 3)) + 1)],
    }
    statements = []
    utilities = {}
    for side, other in (("A", "B"), ("B", "A")):
        for name in sides[side]:
            arrives = draw(st.integers(1, horizon))
            delta, _ = rational_token(draw, 0, 1)
            statements.append(
                f"agent {name} side {side} arrives {arrives} delta {delta}"
            )
            partners = sides[other]
            if draw(st.booleans()):
                listed = draw(st.lists(st.sampled_from(partners), unique=True))
                entries = []
                for partner in listed:
                    token, value = rational_token(draw, -3, 3)
                    utilities[name, partner] = value
                    entries.append(f"{partner}={token}")
                statements.append(f"prefs {name}: {' '.join(entries)}")
            if draw(st.booleans()):
                block = draw(
                    st.lists(
                        st.tuples(
                            st.sampled_from(partners),
                            st.integers(0, horizon - arrives),
                        ),
                        min_size=1,
                        max_size=3,
                    )
                )
                body = " ".join(f"({p},{d})" for p, d in block)
                statements.append(f"ordinal {name}: {body}")
    # A prefs or ordinal line may come before the agents it names: the
    # parser checks those lines once it has read every declaration.
    statements = draw(st.permutations(statements))
    return "\n".join([f"periods: {horizon}", *statements]) + "\n", utilities


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(econ_texts())
def test_parse_inverts_serialize_on_generated_documents(generated):
    text, utilities = generated
    doc = parse(text)
    once = serialize(doc)
    assert parse(once) == doc
    assert serialize(parse(once)) == once
    e = doc.to_economy()
    for (owner, partner), value in utilities.items():
        assert e.utility(owner, partner) == value
