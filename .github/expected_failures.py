"""Fail unless a tier-1 JUnit report's failed and errored tests are exactly
the two acceptance criteria that fail by design.

    python .github/expected_failures.py tier1.xml

Tier-1 exits 1 on every run because of criteria 2 and 6 (see
tests/test_acceptance.py), so its own exit status cannot show a third
failure; this check does. It prints the unexpected and the missing ids and
exits 1 when either list is not empty.
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED = {
    "tests.test_acceptance::test_criterion_2_cascade_fit_roundtrip",
    "tests.test_acceptance::test_criterion_6_spectral_properties",
}


def failed_ids(path):
    """classname::name of every test case with a failure or an error."""
    return {f"{case.get('classname')}::{case.get('name')}"
            for case in ET.parse(path).iter("testcase")
            if case.find("failure") is not None or case.find("error") is not None}


def main(path):
    failed = failed_ids(path)
    for label, ids in (("unexpected", failed - EXPECTED), ("missing", EXPECTED - failed)):
        for test in sorted(ids):
            print(f"{label} failure: {test}")
    print(f"{len(failed)} failed or errored, expected exactly {len(EXPECTED)}")
    return int(failed != EXPECTED)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
