"""Enumerations without ``enum``: on Python 3.11 ``EnumType.__getattr__``
puts every ``Op.READ``-style class-attribute load behind a Python-level
hook at ~5x a plain one (DESIGN.md, "Enumerations on the hot path")."""


class _MembersType(type):
    """Makes each public, non-descriptor class attribute a member."""

    def __new__(mcls, name, bases, namespace):
        cls = super().__new__(mcls, name, bases, namespace)
        cls._by_value = {}
        for key, value in namespace.items():
            if not key.startswith("_") and not hasattr(value, "__get__"):
                member = cls._by_value[value] = object.__new__(cls)
                member.name, member.value = key, value
                setattr(cls, key, member)
        return cls

    def __call__(cls, value):
        if value in cls._by_value:
            return cls._by_value[value]
        raise ValueError(f"{value!r} is not a valid {cls.__qualname__}")

    def __iter__(cls):
        return iter(cls._by_value.values())


class Members(metaclass=_MembersType):
    """An enumeration's base: singleton members, Enum's repr and str."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__}.{self.name}: {self.value!r}>"

    def __str__(self) -> str:
        return f"{type(self).__name__}.{self.name}"
