"""The invariant checks behind `blockseries selftest`, run in full mode, and
which of them catch a corrupted FFT."""

import pytest

from blockseries import checks, transform

NAMES = [name for name, _ in checks.CHECKS]

# Checks that compare no FFT output with a value (counts, cost sums,
# repeatability, exact realness, which the fault keeps:
# it swaps two forward bins before the Hermitian fill and two real inverse
# coefficients), so transforms corrupted at their boundary pass them.
SURVIVE_FAULT = {
    "sqrt-counts",
    "recip-counts",
    "cost-crossover",
    "determinism",
    "real-input",
}


@pytest.mark.parametrize("name,check", checks.CHECKS, ids=NAMES)
def test_check(name, check):
    check(True)


@pytest.mark.parametrize("name,check", checks.CHECKS, ids=NAMES)
def test_twiddle_fault(name, check):
    with transform.twiddle_fault():
        ok, line = checks.run_check(name, check, full=False)
    assert ok == (name in SURVIVE_FAULT), line
    assert line.split()[:2] == ["PASS" if ok else "FAIL", name]
