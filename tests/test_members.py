"""The datapath's enumerations (``repro.members``) against ``enum.Enum``.

``Op``, ``ZoneState`` and ``MetadataRole`` keep the part of the Enum
surface the code uses; each check below compares with what an
``enum.Enum`` of the same members does.  The structural guard pins why
they are not Enums: no class in their metaclass's MRO may define
``__getattr__``, which would route every ``Op.READ`` load through a
Python-level hook.
"""

import enum

import pytest

from repro.block.bio import Op
from repro.raizn.mdzone import MetadataRole
from repro.zns.spec import ZoneState

DEFINITIONS = {
    Op: ["READ", "WRITE", "FLUSH", "DISCARD", "ZONE_APPEND", "ZONE_RESET",
         "ZONE_FINISH", "ZONE_OPEN", "ZONE_CLOSE"],
    ZoneState: ["EMPTY", "IMPLICIT_OPEN", "EXPLICIT_OPEN", "CLOSED", "FULL",
                "READ_ONLY", "OFFLINE"],
    MetadataRole: ["PARTIAL_PARITY", "GENERAL"],
}

TYPES = pytest.mark.parametrize("kind", list(DEFINITIONS),
                                ids=lambda kind: kind.__name__)


def as_enum(kind):
    """The ``enum.Enum`` the type used to be."""
    return enum.Enum(kind.__name__, [(m.name, m.value) for m in kind])


@TYPES
def test_iteration_is_definition_order(kind):
    assert [member.name for member in kind] == DEFINITIONS[kind]
    assert [getattr(kind, name) for name in DEFINITIONS[kind]] == list(kind)


@TYPES
def test_lookup_by_value(kind):
    for member in kind:
        assert kind(member.value) is member
    with pytest.raises(ValueError, match="is not a valid"):
        kind("no such value")


@TYPES
def test_name_and_value(kind):
    for member in kind:
        assert member.name.lower() == member.value
        assert isinstance(member, kind)


@TYPES
def test_repr_and_str_match_enum(kind):
    for member, old in zip(kind, as_enum(kind)):
        assert repr(member) == repr(old)
        assert str(member) == str(old)
        assert f"{member}" == f"{old}"
    assert repr(Op.READ) == "<Op.READ: 'read'>"


@TYPES
def test_members_are_singletons(kind):
    """One object per member, wherever it is reached from; equal only to
    itself and hashed by identity, so a member-keyed dict costs no
    Python-level ``__hash__`` call."""
    for member in kind:
        assert getattr(kind, member.name) is member
        assert kind(member.value) is member
        assert next(m for m in kind if m.name == member.name) is member
        assert hash(member) == object.__hash__(member)
        assert [other == member for other in kind].count(True) == 1
    assert len(set(kind)) == len(DEFINITIONS[kind])


def test_zone_state_properties_are_not_members():
    def having(prop):
        return [state.name for state in ZoneState if getattr(state, prop)]
    assert having("is_open") == ["IMPLICIT_OPEN", "EXPLICIT_OPEN"]
    assert having("is_active") == ["IMPLICIT_OPEN", "EXPLICIT_OPEN", "CLOSED"]
    assert having("is_writable") == ["EMPTY", "IMPLICIT_OPEN",
                                     "EXPLICIT_OPEN", "CLOSED"]
    assert len(list(ZoneState)) == 7


@TYPES
def test_no_getattr_hook_on_the_metaclass(kind):
    """A metaclass ``__getattr__`` (``enum.EnumType`` on Python 3.11)
    sends every class-attribute load through ``__getattribute__``'s
    slow path: ~150 ns a load instead of ~30."""
    hooked = [cls.__qualname__ for cls in type(kind).__mro__
              if "__getattr__" in vars(cls)]
    assert hooked == []
