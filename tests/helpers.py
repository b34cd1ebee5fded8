"""Shared test fixtures that the package itself has no use for."""

from promptgp import SECTIONS
from promptgp.grammar import Phenotype


def identity_phenotype() -> Phenotype:
    """Program set that reproduces the base template unchanged."""
    programs = {section: "BASE" for section in SECTIONS}
    programs["icl"] = "BASE+ICL_LIST"
    return Phenotype(programs)
