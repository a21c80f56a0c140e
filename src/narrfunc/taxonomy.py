"""Registries of narrative function symbols.

Two immutable registries live here: the 34-function taxonomy used for
annotating Chinese web fiction, and the 31-function list from Propp's
original folktale morphology, kept as a static reference.  Symbols are
plain strings; a lookup in ``CANONICAL`` both validates a token and
yields the registry's own string object, as every parsing path stores.
"""

from collections import namedtuple

from .errors import UnknownSymbol

ORIGINAL = "original"
REVISED = "revised"
NEW = "new"

# Division criteria used when a human assigns a function to a span:
# where the span sits in the text, what the span achieves, or which
# role type is acting.
POSITION = "position"
GOAL = "goal"
ROLE = "role"


# status: ORIGINAL | REVISED | NEW; division_hints: a frozenset of criteria
FunctionDef = namedtuple("FunctionDef", "symbol name description status division_hints")
LegacyFunctionDef = namedtuple("LegacyFunctionDef", "symbol name description")


def _d(symbol, name, description, status=ORIGINAL, hints=(GOAL,)):
    return FunctionDef(symbol, name, description, status, frozenset(hints))


# Registry rows in canonical display order.  Status marks entries that
# were reinterpreted for web fiction (revised) or added outright (new).
_FUNCTIONS = (
    _d("A", "Initial situation", "The initial scene", hints=(POSITION,)),
    _d("B", "Interdiction", "A prohibition is imposed on the hero",
       hints=(POSITION, GOAL)),
    _d("C", "Interdiction violation", "The interdiction is violated",
       hints=(POSITION, GOAL)),
    _d("D", "Reconnaissance", "The enemy reconnaissance", hints=(ROLE,)),
    _d("E", "Delivery", "The character obtains intelligence/response",
       REVISED, hints=(ROLE,)),
    _d("F", "Trickery", "Foreshadowing/traps/suspense/hints", REVISED),
    _d("G", "Complicity", "The victim submits to deception", hints=(ROLE,)),
    _d("H", "Villainy", "The enemy's crime/ambition", REVISED, hints=(ROLE,)),
    _d("I", "Lack", "The scarcity of the protagonist", hints=(ROLE,)),
    _d("J", "Mediation", "Misfortune is made known"),
    _d("K", "Counteraction", "The protagonist's response/psychological",
       REVISED, hints=(ROLE,)),
    _d("L", "Departure", "Protagonist on the journey", REVISED, hints=(GOAL,)),
    _d("M", "1st donor", "The giver or the golden finger appears",
       REVISED, hints=(ROLE,)),
    _d("N", "Hero's reaction", "The hero reacts to the giver",
       REVISED, hints=(ROLE,)),
    _d("O", "Get promoted", "Acquires items or enhances his abilities",
       REVISED, hints=(GOAL,)),
    _d("P", "Transfer", "Spatial transfer", hints=(GOAL,)),
    _d("Q", "Struggle", "The hero and enemy engage in direct conflict",
       hints=(ROLE,)),
    _d("R", "Marking", "The hero is marked or identified"),
    _d("S", "Victory or defeat", "The victory or defeat of the character",
       REVISED, hints=(GOAL,)),
    _d("T", "Liquidation of lack", "Villainy or lack resolved", hints=(GOAL,)),
    _d("U", "Return and Pursuit", "The hero returns. The enemy chases the hero"),
    _d("Ch", "Transformation", "Change in role or power relationship", NEW),
    _d("V", "Rescue", "The hero is saved from pursuit or danger"),
    _d("W", "Unrecognized arrival",
       "Protagonist is not recognized either actively or passively"),
    _d("Fr", "Setting", "The strength/ability system setting",
       NEW, hints=(POSITION,)),
    _d("X", "Unfounded claims",
       "The protagonist is confronted with unreasonable demands, "
       "unfair competitions or difficulties"),
    _d("Fa", "Transfiguration",
       "The protagonist's beautification, casual clothes or pseudonyms",
       REVISED, hints=(ROLE,)),
    _d("Z", "Solution", "The task is accomplished or resolved", hints=(GOAL,)),
    _d("Re", "Recognition", "The hero is recognized/acknowledged"),
    _d("De", "Exposure", "The enemy's identity or deception is exposed"),
    _d("Y", "Difficult task", "The hero is given a difficult task"),
    _d("Em", "Emotion", "The changes of the characters' emotions",
       REVISED, hints=(ROLE,)),
    _d("Fi", "Beyond", "To complete or beyond unreasonable demands",
       REVISED, hints=(GOAL,)),
    _d("Lo", "Memory Loss", "The protagonist's active/passive memory loss",
       NEW, hints=(ROLE,)),
)

#: The closed alphabet of valid symbols, in registry order.
SYMBOLS = tuple(f.symbol for f in _FUNCTIONS)
#: Each symbol onto itself: a lookup yields the registry's own string.
CANONICAL = {s: s for s in SYMBOLS}
#: Each symbol onto its one-byte code, its 1-based position in SYMBOLS: no
#: symbol's code is 0 or 0xFF, and ``SYMBOLS[code - 1]`` decodes it.
CODES = {s: i for i, s in enumerate(SYMBOLS, start=1)}

_LEGACY = (
    LegacyFunctionDef("a", "Initial situation",
                      "The initial scene at the beginning of the story"),
    LegacyFunctionDef("γ", "Interdiction",
                      "A prohibition is imposed on the hero"),
    LegacyFunctionDef("δ", "Interdiction violation",
                      "The interdiction is violated"),
    LegacyFunctionDef("ε", "Reconnaissance",
                      "The villain attempts to obtain information"),
    LegacyFunctionDef("ξ", "Delivery",
                      "The villain gains information or an object"),
    LegacyFunctionDef("η", "Trickery",
                      "The villain deceives the hero to gain an advantage"),
    LegacyFunctionDef("θ", "Complicity",
                      "The victim submits to deception"),
    LegacyFunctionDef("A", "Villainy", "The villain causes harm or injury"),
    LegacyFunctionDef("a", "Lack", "The scarcity of the protagonist"),
    LegacyFunctionDef("B", "Mediation", "Misfortune is made known"),
    LegacyFunctionDef("C", "Counteraction",
                      "The hero reacts to the villain's actions"),
    LegacyFunctionDef("↑", "Departure", "The hero leaves home"),
    LegacyFunctionDef("D", "1st donor function",
                      "The hero is tested by a potential donor"),
    LegacyFunctionDef("E", "Hero's reaction", "The hero reacts to the test"),
    LegacyFunctionDef("F", "Receipt of agent",
                      "The hero acquires a magical agent"),
    LegacyFunctionDef("G", "Transfer",
                      "The hero is directed or taken to a new location"),
    LegacyFunctionDef("H", "Struggle",
                      "The hero and villain engage in direct conflict"),
    LegacyFunctionDef("J", "Marking", "The hero is marked or identified"),
    LegacyFunctionDef("I", "Victory", "The hero defeats the villain"),
    LegacyFunctionDef("K", "Liquidation of lack", "Villainy or lack resolved"),
    LegacyFunctionDef("↓", "Return and Pursuit",
                      "The hero returns. The villain chases the hero"),
    LegacyFunctionDef("Rs", "Rescue",
                      "The hero is saved from pursuit or danger"),
    LegacyFunctionDef("O", "Unrecognized arrival",
                      "The situation where the protagonist is not recognized, "
                      "either actively or passively"),
    LegacyFunctionDef("U", "Punishment",
                      "The villain receives punishment or consequences"),
    LegacyFunctionDef("L", "Unfounded claims",
                      "The protagonist is confronted with unreasonable "
                      "demands, unfair competitions or difficulties"),
    LegacyFunctionDef("T", "Transfiguration",
                      "The hero undergoes a transformation"),
    LegacyFunctionDef("W", "Wedding", "The hero marries or is rewarded"),
    LegacyFunctionDef("N", "Solution", "The task is accomplished or resolved"),
    LegacyFunctionDef("Q", "Recognition",
                      "The hero is recognized or acknowledged"),
    LegacyFunctionDef("Ex", "Exposure",
                      "The villain's identity or deception is exposed"),
    LegacyFunctionDef("M", "Difficult task",
                      "The hero is given a difficult task"),
)


def parse_symbol(token, position=None):
    """The registry's own string for *token*.

    Matching is whole-token, case-sensitive.  Anything outside the closed set
    raises :class:`UnknownSymbol` (at *position*, if given), here alone.
    """
    symbol = CANONICAL.get(token)
    if symbol is None:
        raise UnknownSymbol(token, position)
    return symbol


def all_functions():
    """All 34 definitions in registry order."""
    return list(_FUNCTIONS)


def legacy_functions():
    """The 31 definitions of the original folktale morphology, in list order."""
    return list(_LEGACY)
