"""The K-series vocabularies mirror the runtime they police.

``repro.lint.rules_contracts`` keeps its vocabularies as literals so the
linter imports nothing from the layers it checks.  This test is what
keeps those literals in step with the definitions they copy.
"""

import dataclasses

from repro.adversary.base import FAULT_FAMILIES, AdversaryContext
from repro.lint.rules_contracts import (
    CERTIFIED_CTX_FIELDS,
    FAULT_FAMILY_VOCAB,
    KERNEL_NAME_VOCAB,
)
from repro.sim.kernel import KERNEL_CHOICES


def test_lint_vocabularies_mirror_the_runtime():
    assert FAULT_FAMILY_VOCAB == FAULT_FAMILIES
    context_fields = {field.name for field in dataclasses.fields(AdversaryContext)}
    assert CERTIFIED_CTX_FIELDS == context_fields - {"processes"}
    assert set(KERNEL_NAME_VOCAB) == set(KERNEL_CHOICES) - {"auto"}
