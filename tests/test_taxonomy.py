import pytest

from narrfunc import taxonomy
from narrfunc.errors import UnknownSymbol


def test_registry_counts():
    defs = taxonomy.all_functions()
    assert len(defs) == 34
    assert sum(1 for d in defs if d.status != taxonomy.ORIGINAL) == 15
    assert sorted(d.symbol for d in defs if d.status == taxonomy.NEW) == \
        ["Ch", "Fr", "Lo"]
    assert len(taxonomy.legacy_functions()) == 31


def test_symbol_shape():
    singles = [s for s in taxonomy.SYMBOLS if len(s) == 1]
    doubles = [s for s in taxonomy.SYMBOLS if len(s) == 2]
    assert len(singles) == 26 and all(s.isupper() for s in singles)
    assert len(doubles) == 8
    assert all(s[0].isupper() and s[1].islower() for s in doubles)
    assert len(set(taxonomy.SYMBOLS)) == 34


def test_parse_symbol():
    assert taxonomy.parse_symbol("K") == "K"
    assert taxonomy.parse_symbol("Lo") == "Lo"
    with pytest.raises(UnknownSymbol):
        taxonomy.parse_symbol("Zz")
    with pytest.raises(UnknownSymbol):
        taxonomy.parse_symbol("k")  # case-sensitive
    with pytest.raises(UnknownSymbol):
        taxonomy.parse_symbol("ch")


def test_unknown_symbol_quotes_at_most_8_characters():
    # A longer token shows its first 8 and a cut mark; .token keeps it whole.
    exc = UnknownSymbol("x" * 900, 0)
    assert str(exc) == "unknown function symbol 'xxxxxxxx'... at position 0"
    assert exc.token == "x" * 900
    assert str(UnknownSymbol("Zzzzzzzz")) == "unknown function symbol 'Zzzzzzzz'"
    assert str(UnknownSymbol("Qx", 1)) == "unknown function symbol 'Qx' at position 1"


def test_lookup():
    by_symbol = {d.symbol: d for d in taxonomy.all_functions()}
    assert by_symbol["Fr"].name == "Setting"
    assert by_symbol["Fr"].status == taxonomy.NEW
    assert by_symbol["M"].name == "1st donor"
    assert by_symbol["M"].status == taxonomy.REVISED
    assert by_symbol["B"].name == "Interdiction"
    assert by_symbol["B"].status == taxonomy.ORIGINAL


def test_all_functions_order_stable():
    defs = taxonomy.all_functions()
    assert defs[0].symbol == "A"
    assert defs == taxonomy.all_functions()


def test_round_trip_over_registry():
    for d in taxonomy.all_functions():
        assert taxonomy.parse_symbol(d.symbol) == d.symbol


def test_legacy_entries():
    by_symbol = {}
    for d in taxonomy.legacy_functions():
        by_symbol.setdefault(d.symbol, d)
    assert by_symbol["Rs"].name == "Rescue"
    assert by_symbol["W"].name == "Wedding"
    assert by_symbol["γ"].name == "Interdiction"
    assert by_symbol["↑"].name == "Departure"


def test_division_hints_are_valid():
    valid = {taxonomy.POSITION, taxonomy.GOAL, taxonomy.ROLE}
    for d in taxonomy.all_functions():
        assert d.division_hints and d.division_hints <= valid
