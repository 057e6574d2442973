"""Constant-time checker tests: the TCF vs constant-time separation.

These programs make no calls, so only the control-flow half of
:func:`~repro.leakage.consttime.check_constant_time` can fire: the
program is constant-time iff no reachable branch depends on high data.
"""

from repro.benchsuite import SUITE
from repro.core import Blazer
from repro.leakage.consttime import check_constant_time
from repro.leakage.model import instr_model


def verify(blazer, proc):
    return check_constant_time(blazer, proc, instr_model())


class TestConstantTime:
    def test_no_secret_branch_is_constant_time(self):
        blazer = Blazer.from_source(
            """
            proc f(secret h: int, public l: uint): int {
                var i: int = 0;
                while (i < l) { i = i + 1; }
                return i + h;
            }
            """
        )
        verdict = verify(blazer, "f")
        assert verdict.constant_time

    def test_secret_branch_breaks_constant_time(self):
        blazer = Blazer.from_source(
            "proc f(secret h: int): int { if (h > 0) { return 1; } return 2; }"
        )
        verdict = verify(blazer, "f")
        assert not verdict.constant_time
        assert verdict.offending_branches

    def test_unreachable_secret_branch_ignored(self):
        """The loopAndBranch pattern: the secret-dependent code is dead."""
        blazer = Blazer.from_source(
            """
            proc f(secret h: int, public l: uint): int {
                var i: int = 0;
                if (l < 0) {
                    if (h > 0) { i = 99; }
                }
                return i;
            }
            """
        )
        verdict = verify(blazer, "f")
        assert verdict.constant_time

    def test_tcf_strictly_weaker_than_constant_time(self):
        """The paper's separation: modPow1_safe is timing-channel free
        (Table 1) yet NOT constant-time (it branches on exponent bits)."""
        bench = SUITE.get("modPow1_safe")
        blazer = bench.analyzer()
        assert blazer.analyze(bench.proc).status == "safe"  # TCF holds
        ct = verify(blazer, bench.proc)
        assert not ct.constant_time  # but constant-time fails
        assert ct.offending_branches  # on its secret branches

    def test_render(self):
        blazer = Blazer.from_source(
            "proc f(secret h: int): int { if (h > 0) { return 1; } return 2; }"
        )
        text = verify(blazer, "f").render()
        assert "NOT constant-time" in text
