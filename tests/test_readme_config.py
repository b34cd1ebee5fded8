"""The README's configuration reference lists exactly the keys `RunConfig` parses."""

import dataclasses
import re
from pathlib import Path

from promptgp.config import RunConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def reference_bullets() -> dict[str, str]:
    """Section name -> the text of its bullet under "## Configuration reference"."""
    text = README.read_text(encoding="utf-8")
    reference = text.split("## Configuration reference", 1)[1].split("\n#", 1)[0]
    bullets = re.findall(r"^- `\[(\w+)\]`:(.*?)(?=^- |^\s*$)", reference, re.MULTILINE | re.DOTALL)
    return dict(bullets)


def section_fields() -> dict[str, set[str]]:
    cfg = RunConfig()
    sections = {"run": set()}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            sections[f.name] = {g.name for g in dataclasses.fields(value)}
        else:
            sections["run"].add(f.name)
    return sections


def test_every_section_has_a_bullet():
    assert set(reference_bullets()) == set(section_fields())


def test_every_field_is_listed_in_its_bullet():
    bullets = reference_bullets()
    missing = {
        f"{section}.{key}"
        for section, keys in section_fields().items()
        for key in keys
        if not re.search(rf"`{key}( = [^`]*)?`", bullets.get(section, ""))
    }
    assert missing == set()


def test_every_listed_default_is_a_field():
    fields = section_fields()
    unknown = {
        f"{section}.{key}"
        for section, bullet in reference_bullets().items()
        for key in re.findall(r"`(\w+) = [^`]*`", bullet)
        if key not in fields.get(section, set())
    }
    assert unknown == set()
