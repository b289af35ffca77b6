"""docs/configuration.md cannot drift from core/config.py.

The knob table is the operator-facing registry of every ``config.*``
field.  This test parses it back out of the markdown and holds it equal
to the dataclass — names AND defaults — so adding, removing, or
re-defaulting a knob without updating the docs fails CI.  Every field
must also be read somewhere in the library, so a knob nothing consults
cannot linger.
"""

from __future__ import annotations

import ast
import os
import re
from pathlib import Path

from repro.core.config import PROCESS_WIDE, Config

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "configuration.md"
PACKAGE = ROOT / "src" / "repro"

#: Table row: | `knob` | `default` | effect | gated by |
ROW = re.compile(r"^\|\s*`(\w+)`\s*\|\s*(`[^`]*`|[^|]+?)\s*\|")

#: Fields whose default is computed at construction time; the docs name
#: the rule in prose instead of a literal.
DYNAMIC = {"action_pool_workers": "host cores"}


def parse_table() -> dict[str, str]:
    knobs: dict[str, str] = {}
    for line in DOC.read_text().splitlines():
        match = ROW.match(line.strip())
        if not match:
            continue
        name, default = match.group(1), match.group(2).strip()
        if name == "knob":  # header row
            continue
        assert name not in knobs, f"{name} documented twice"
        knobs[name] = default
    return knobs


class TestConfigDocs:
    def test_doc_exists(self):
        assert DOC.is_file(), "docs/configuration.md is missing"

    def test_knob_set_matches_dataclass(self):
        documented = set(parse_table())
        actual = set(Config().__dict__)
        missing = actual - documented
        stale = documented - actual
        assert not missing, f"knobs missing from docs/configuration.md: {sorted(missing)}"
        assert not stale, f"docs/configuration.md documents unknown knobs: {sorted(stale)}"

    def test_defaults_match(self):
        defaults = Config().__dict__
        for name, documented in parse_table().items():
            if name in DYNAMIC:
                assert documented == DYNAMIC[name], (
                    f"{name}: expected the prose default {DYNAMIC[name]!r}, "
                    f"docs say {documented!r}"
                )
                assert defaults[name] == max(2, os.cpu_count() or 1)
                continue
            assert documented.startswith("`") and documented.endswith("`"), (
                f"{name}: default must be a backticked literal, got {documented!r}"
            )
            value = ast.literal_eval(documented.strip("`"))
            assert value == defaults[name], (
                f"{name}: docs say {value!r}, Config() has {defaults[name]!r}"
            )

    def test_every_field_is_read_by_the_library(self):
        read = set()
        for path in PACKAGE.rglob("*.py"):
            if path == PACKAGE / "core" / "config.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "config"
                ):
                    read.add(node.attr)
        unread = set(Config().__dict__) - read
        assert not unread, f"config fields no module reads as config.<field>: {sorted(unread)}"

    def test_process_wide_fields_are_listed(self):
        section = DOC.read_text().split("## Validation and introspection", 1)[1]
        named = set(re.findall(r"`(\w+)`", section)) & set(Config().__dict__)
        assert named == PROCESS_WIDE
