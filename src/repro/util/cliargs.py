"""Shared ``argparse`` value parsers.

Flags that mean "how many workers" appear on several subcommands
(``table1 --jobs``, ``serve --workers-per-shard``) and must reject garbage the
same way everywhere.  :func:`count_arg` builds the ``type=`` callable
once, parameterized by what is being counted and whether zero (meaning
"one per CPU", :func:`repro.perf.parallel.resolve_jobs`) is allowed.
"""

from __future__ import annotations

import argparse
from typing import Callable


def count_arg(what: str, allow_zero: bool = True) -> Callable[[str], int]:
    """An ``argparse`` type for a non-negative (or strictly positive)
    worker count named ``what``.

    With ``allow_zero`` (the default), 0 is accepted and documented as
    "one per CPU"; without it, only counts >= 1 pass.
    """

    def parse(value: str) -> int:
        try:
            count = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "%s must be an integer, got %r" % (what, value)
            )
        if allow_zero:
            if count < 0:
                raise argparse.ArgumentTypeError(
                    "%s must be >= 0 (0 = one per CPU), got %d" % (what, count)
                )
        elif count < 1:
            raise argparse.ArgumentTypeError(
                "%s must be >= 1, got %d" % (what, count)
            )
        return count

    parse.__name__ = "%s_count" % what
    return parse
