"""Per-spec views and whole stacks of the suites' tables, for the tests."""

import itertools

from maxclass import checks
from maxclass.rootlog import PrimePower
from maxclass.standard_form import StandardFormRep, build_stack, spec_from_tail


def iter_reps(n, p, N):
    """One unvalidated ``StandardFormRep`` per spec (0, e_2, ..., e_n), in tail order.

    The tables come from the suites' own stacks (``checks._stacks``), so a
    test that patches ``checks.build_stack`` changes them here too.
    """
    pp, stacks = checks._stacks(n, p, N)
    for exps, tables in stacks:
        for e, rows in zip(exps.tolist(), tables.tolist()):
            yield StandardFormRep(spec_from_tail(n, pp, e[1:]), tuple(map(tuple, rows)))


def stack(n, p, N):
    """Every spec's table at (n, p, N), in tail order, as one int64 stack; and p^N."""
    pp = PrimePower(p, N)
    tails = itertools.product(range(pp.dim), repeat=n - 1)
    return build_stack(n, pp, [(0, *tail) for tail in tails]), pp
