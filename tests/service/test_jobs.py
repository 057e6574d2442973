"""Job fingerprints: the content key identical submissions share."""

import pytest

from repro.service.jobs import job_key
from repro.util.errors import ReproError

SRC = """
proc check(secret pin: int, public attempts: uint): int {
    var i: int = 0;
    while (i < attempts) { i = i + 1; }
    return i;
}
"""

# The same program, reformatted and commented — a different *request
# text*, the same *content*.
SRC_REFORMATTED = """
// totally different spelling
proc check(secret pin: int,
           public attempts: uint): int {
  var i: int = 0;
  while (i < attempts) {
      i = i + 1;
  }
  return i;  // same loop
}
"""


class TestJobKey:
    def test_stable(self):
        assert job_key({"source": SRC}) == job_key({"source": SRC})

    def test_formatting_and_comments_coalesce(self):
        assert job_key({"source": SRC}) == job_key({"source": SRC_REFORMATTED})

    def test_callee_bodies_are_part_of_the_key(self):
        """Same entry procedure, different callee implementation →
        different keys: the analysis reads callee bodies through
        interprocedural summaries, so serving one program's verdict for
        the other would be wrong."""
        caller = """
        proc main(secret s: int, public n: int): int { return helper(n); }
        """
        slow = "proc helper(public n: int): int { var i: int = 0; while (i < n) { i = i + 1; } return i; }\n"
        fast = "proc helper(public n: int): int { return n; }\n"
        key_slow = job_key({"source": slow + caller, "proc": "main"})
        key_fast = job_key({"source": fast + caller, "proc": "main"})
        assert key_slow != key_fast

    def test_unreachable_procs_do_not_change_the_key(self):
        """Procedures the entry point cannot reach are not part of its
        content — adding one still coalesces."""
        base = job_key({"source": SRC, "proc": "check"})
        extra = SRC + "\nproc unrelated(public x: int): int { return x; }\n"
        assert job_key({"source": extra, "proc": "check"}) == base

    def test_knobs_separate_keys(self):
        base = job_key({"source": SRC})
        assert job_key({"source": SRC, "deadline": 5.0}) != base
        assert job_key({"source": SRC, "observer": "threshold"}) != base
        assert job_key({"source": SRC, "domain": "interval"}) != base

    def test_none_knobs_are_absent_knobs(self):
        assert job_key({"source": SRC, "deadline": None}) == job_key({"source": SRC})

    def test_rejects_empty_source(self):
        with pytest.raises(ReproError, match="source"):
            job_key({"source": "   "})

    def test_rejects_malformed_program(self):
        with pytest.raises(ReproError):
            job_key({"source": "proc oops("})

    def test_rejects_unknown_proc(self):
        with pytest.raises(ReproError, match="no procedure"):
            job_key({"source": SRC, "proc": "nope"})

