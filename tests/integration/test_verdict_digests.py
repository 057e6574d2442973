"""Cold recomputation of the committed verdict-digest pin
(``tests/digest_pin.py``): every registry program and the pinned
generated draw must reproduce its recorded digest and leakage cells."""

from __future__ import annotations

from tests import digest_pin

HINT = (
    "verdict digests drifted from tests/fixtures/verdict_digests.json; if "
    "the analysis change is deliberate, run `make digests` and review the diff"
)


def _drift(expected, actual):
    return {
        name: {"pinned": expected.get(name), "now": actual.get(name)}
        for name in sorted(set(expected) | set(actual))
        if expected.get(name) != actual.get(name)
    }


def test_registry_digests_match_pin():
    drift = _drift(digest_pin.load()["registry"], digest_pin.registry_rows())
    assert not drift, "%s:\n%s" % (HINT, drift)


def test_generated_digests_match_pin():
    drift = _drift(digest_pin.load()["generated"], digest_pin.generated_rows())
    assert not drift, "%s:\n%s" % (HINT, drift)
