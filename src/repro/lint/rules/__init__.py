"""The built-in rule set; importing this package registers every rule.

Each module holds one rule with its full rationale.  Adding a rule is:
write the module, import it here, document the id in ``docs/lint.md``
(``tests/test_docs_sync.py`` enforces that), and add a fixture suite
under ``tests/lint/``.
"""

from repro.lint.rules import (  # noqa: F401  (imported for registration)
    determinism,
    errmsg,
    floatcmp,
    golden,
    obscontract,
    pragma_hygiene,
)
