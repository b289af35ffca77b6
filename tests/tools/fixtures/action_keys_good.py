"""Fixture: actions that decide their keying, themselves or by inheritance."""


class KeyedAction(Action):  # noqa: F821 - name-based fixture
    name = "Keyed"
    keyed = True
    reads_intent = True

    def candidates(self, ldf):
        return []


class DerivedAction(KeyedAction):
    # Inherits KeyedAction.keyed — no declaration needed.
    name = "Derived"


class OpaqueAction(Action):  # noqa: F821 - name-based fixture
    name = "Opaque"
    #: Overrides generate(), so it reruns whole on every pass.
    keyed: bool = False

    def generate(self, ldf):
        return []


class OpaqueChildAction(OpaqueAction):
    # Inherits the override and keyed = False together.
    name = "OpaqueChild"


class AbstractishAction(Action):  # noqa: F821 - name-based fixture
    @abstractmethod  # noqa: F821
    def candidates(self, ldf):
        ...
