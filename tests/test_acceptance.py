"""Acceptance battery: one test (and one printed pass/fail line) per check.

The checks themselves live in kernelcalc.repro so the CLI `repro`
subcommand and this suite always execute the same code.
"""

import pytest

from kernelcalc import repro
from kernelcalc.positivity import GramReport


@pytest.mark.parametrize(
    "check", repro.ALL_CHECKS, ids=lambda c: c.__name__.removeprefix("check_")
)
def test_acceptance(check, capsys):
    result = check()
    line = f"{'PASS' if result.passed else 'FAIL'}: {result.name} -- {result.detail}"
    with capsys.disabled():
        print(f"\n{line}")
    assert result.passed, line


def test_ball_matrix_failure_counts_only_reports_that_fail_the_psd_rule(monkeypatch):
    # min eig -2 tol lies below -tol but within -tol (1 + max diagonal)
    def psd_check(expr, domain, n, seed):
        return GramReport(expr.to_dsl(), n, -2e-9, True, 1e-9, 10.0, (), seed)

    monkeypatch.setattr(repro, "psd_check", psd_check)
    assert not repro.check_ball_matrix_failure().passed
