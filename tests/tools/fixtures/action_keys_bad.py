"""Fixture: actions that leave their keying undecided or contradict it."""


class MysteryAction(Action):  # noqa: F821 - name-based fixture
    # BAD: sets no keyed, so the engine's rerun-whole default is inherited
    # silently.
    name = "Mystery"

    def applies_to(self, ldf):
        return True

    def candidates(self, ldf):
        return []


class KeyedOverrideAction(Action):  # noqa: F821 - name-based fixture
    # BAD: keyed, so the engine ranks the candidates it enumerated through
    # generate_cached and never calls this generate().
    name = "KeyedOverride"
    keyed = True

    def generate(self, ldf):
        return []


class WholeAction(Action):  # noqa: F821 - name-based fixture
    name = "Whole"
    keyed = False

    def generate(self, ldf):
        return []


class RekeyedAction(WholeAction):
    # BAD: turns keying back on over an inherited generate() override.
    name = "Rekeyed"
    keyed = True
