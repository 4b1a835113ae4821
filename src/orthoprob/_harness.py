"""The axiom harness's block evaluator.

``events.verify_orthospace_axioms`` imports this module on its first call,
so a program that checks no axioms does not load it.  It decides the checks
of a block of rounds from fixed-shape tables of positions in one stack of
events, with the kind object's stacked routines; it calls none of the
public one-pair operations.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .events import _AXIOMS
from .linalg import _slices

# Positions of a harness round's pool: d, e, f (mutually orthogonal), g,
# g', 0, 1; the complement of member x sits at POOL + x.  An (x, y) table
# pairs member x with member y, a pool-sum table (x, y) in column y < POOL
# and (x, x') in column POOL.
_D, _E, _F, _G, _ZERO, _ONE, _POOL = 0, 1, 2, 3, 5, 6, 7
_X, _Y = np.indices((_POOL, _POOL))
_X8, _PARTNERS = np.hstack((_X, _X[:, :1])), np.hstack((_Y, _X[:, :1] + _POOL))
_PAIRS = np.triu_indices(_POOL, 1)
# Members are exactly Hermitian, so adding or subtracting an exact zero and
# symmetrizing round nothing: x + 0, 0 + y, y - y, y - 0 and 1 - y are x,
# y, 0, y and y' bit for bit, and are taken from the pool, not built.
_WITH_ZERO = (_X8 == _ZERO) | (_PARTNERS == _ZERO)
_TRIVIAL = (_X == _Y) | (_X == _ZERO) | (_Y == _ONE)
# A round's room in a block's stack, in events: its pool and their
# complements, and the most that the sums and remainders built from them
# take.  Besides its events a round keeps tables of positions and verdicts,
# about 9 KB whatever the algebra (tracemalloc, 200 against 800 rounds).
_HELD = 2 * _POOL + 2 * int((~_WITH_ZERO).sum() + (~_TRIVIAL).sum() + 1)
_TABLE_BYTES = 9 << 10
# The checks of one round in the order the axioms visit them, as (axiom,
# wording of a failure); an OS2 failure is worded by its cause.
_ROUND_CHECKS = (
    [("OS1", "asymmetric orthogonality")] * len(_PAIRS[0]) + [("OS2", None)] * len(_PAIRS[0])
    + [("OS3", "triple associativity/closure failed")] + [("OS4", "zero not neutral")] * (_G + 1)
    + [("OS5", "complement fails sum-to-unit"),
       *[("OS5", "second complement candidate found")] * _POOL] * _POOL
    + [("OS6", "no orthogonal remainder below")] * _POOL ** 2
    + [("OS6", "sum does not dominate summand")] * _POOL ** 2)
_AXIOM_STARTS = [[ax for ax, _ in _ROUND_CHECKS].index(ax) for ax in _AXIOMS]


def _block_verdicts(kind, four, tol: float):
    """The checks of R harness rounds drawn as ``four`` (R, 4, ...), d e f g
    each: ``(checked, failed, describe)``, two (R, len(_ROUND_CHECKS))
    masks in (round, axiom, position) order, and ``describe(round, check)``
    wording a failure.

    Verdicts, failures and the first error raised (in round order, then
    check order) are those of the axioms evaluated pair by pair with the
    public operations.  The block's events sit in one stack with their
    norms and check outcomes; every round fills the same fixed-shape tables
    of positions in it (pool and complements, member sums, their
    complements, remainders, re-sums, triple sums) and of verdicts.  An
    event is built and checked, and a relation decided, only where the
    pairwise evaluation does so: each step compresses the entries under its
    masks into stacked calls and scatters the outcomes back.  Every stacked
    call takes the entries (events, pairs, or rounds of the pool's
    relation table) of one ``linalg._slices`` part, so its temporaries do
    not grow with the block, and a step with no entries makes no call.
    """
    def check(start, stop):
        """Check the events at positions ``start`` to ``stop``: their norms
        go into ``norms``, and each failure into ``bad`` and ``errors``."""
        for part in _slices(stop - start, nbytes):
            norms[start:stop][part], failures = kind.checks(events[start:stop][part])
            for k, error in failures.items():
                bad[start + part.start + k], errors[start + part.start + k] = True, error

    def decide(relation, *requests):
        """Per (mask, a, b), ``relation`` from the events at positions a to
        those at b where the mask is set, False elsewhere."""
        flats = [mask.reshape(-1).nonzero()[0] for mask, _, _ in requests]
        a, b = (np.concatenate([request[side].take(flat)
                                for request, flat in zip(requests, flats)]) for side in (1, 2))
        held = np.empty(len(a), dtype=bool)
        for part in _slices(len(a), 2 * nbytes):
            held[part] = kind.holds(
                getattr(kind, relation)(events.take(a[part], axis=0), events.take(b[part], axis=0)),
                norms.take(a[part]), norms.take(b[part]), tol)
        tables, ends = [], np.cumsum([len(flat) for flat in flats])
        for (mask, _, _), flat, end in zip(requests, flats, ends):
            tables.append(np.zeros(mask.shape, dtype=bool))
            tables[-1].put(flat, held[end - len(flat):end])
        return tables

    def build(*requests):
        """Per (mask, make, *operand positions), append ``make`` of the
        operands where the mask is set to the stack, check it, and return
        the table of its positions, 0 where the mask is clear."""
        nonlocal filled
        start, tables = filled, []
        for mask, make, *operands in requests:
            flat = mask.reshape(-1).nonzero()[0]
            tables.append(np.zeros(mask.shape, dtype=np.intp))
            tables[-1].put(flat, np.arange(filled, filled + len(flat)))
            for part in _slices(len(flat), len(operands) * nbytes):
                made = flat[part]
                events[filled:filled + len(made)] = make(
                    *(events.take(op.take(made), axis=0) for op in operands))
                filled += len(made)
        check(start, filled)
        return tables

    # The stack holds the pool d e f g g' 0 1 and its complements, checked
    # in that order, then room for all that is built below.
    rounds, nbytes, zero = len(four), four[0, 0].nbytes, np.zeros_like(four[:, :1])
    events = np.empty((rounds * _HELD,) + four.shape[2:], dtype=four.dtype)
    norms, bad, errors = np.empty(len(events)), np.zeros(len(events), dtype=bool), {}
    filled = rounds * 2 * _POOL
    table = events[:filled].reshape((rounds, 2 * _POOL) + four.shape[2:])
    table[:, :_POOL] = np.concatenate((four, kind.complement_of(four[:, _G:]), zero,
                                       kind.complement_of(zero)), axis=1)
    table[:, _POOL:] = kind.complement_of(table[:, :_POOL])
    check(0, filled)
    at = np.arange(filled).reshape(table.shape[:2])
    table_norms = norms[:filled].reshape(at.shape)
    # An entry of the pool's relation table is a round: 7 x 14 pairs.
    orth = np.concatenate([kind.holds(
        kind.orthogonality(table[part, :_POOL, None], table[part, None]),
        table_norms[part, :_POOL, None], table_norms[part, None], tol)
        for part in _slices(rounds, 2 * _POOL * 2 * _POOL * nbytes)])
    paired, split = orth[:, _X8, _PARTNERS], orth[:, :, _POOL:]
    # Positions of x, y and x' in (x, y) tables, of x and its partner in
    # pool-sum tables, and of the members.
    base = 2 * _POOL * np.arange(rounds)[:, None, None]
    x7, y7, c7, x8, partners = base + _X, base + _Y, base + _POOL + _X, base + _X8, \
        base + _PARTNERS
    P = at[:, :_POOL]

    # x + y for every member y and for x', where x _|_ y; y - x where x _|_ y'.
    sums, rests = build((paired & ~_WITH_ZERO, kind.sum_of, x8, partners),
                        (split & ~_TRIVIAL, kind.difference_of, y7, x7))
    sums = np.where(_WITH_ZERO, np.where(_X8 == _ZERO, partners, x8), sums)
    rests = np.where(_X == _Y, base + _ZERO,
                     np.where(_X == _ZERO, y7, np.where(_Y == _ONE, c7, rests)))
    sum_bad, rest_bad = paired & bad.take(sums), split & bad.take(rests)
    summed = paired & ~sum_bad
    member_sums, de, ef = sums[:, :, :_POOL], sums[:, _D, _E], sums[:, _E, _F]
    is_one, commutes, neutral = decide(
        "equality", (summed, sums, np.broadcast_to(base + _ONE, paired.shape)),
        (summed[:, :, :_POOL] & summed[:, :, :_POOL].swapaxes(1, 2) & (_X < _Y),
         member_sums, member_sums.swapaxes(1, 2)),
        (summed[:, :_G + 1, _ZERO], sums[:, :_G + 1, _ZERO], P[:, :_G + 1]))
    # d + (e + f) and (d + e) + f close up when d _|_ e + f, f _|_ d + e and
    # d + e _|_ f.
    inner = summed[:, _D, _E] & summed[:, _E, _F]
    d_ef, f_de, de_f, apart = decide(
        "orthogonality", (inner, P[:, _D], ef), (inner, P[:, _F], de), (inner, de, P[:, _F]),
        (split & ~rest_bad, x7, rests))
    closed = d_ef & f_de & de_f

    # The complement of each sum of two members (x' for x + 0, y' for
    # 0 + y), the triple sums, and x + (y - x) where x _|_ y - x.
    dominant = summed[:, :, :_POOL]
    tops, left, right, resums = build(
        (dominant & ~_WITH_ZERO[:, :_POOL], kind.complement_of, member_sums),
        (closed, kind.sum_of, P[:, _D], ef), (closed, kind.sum_of, de, P[:, _F]),
        (apart & ~_TRIVIAL, kind.sum_of, x7, rests))
    tops = np.where(_WITH_ZERO[:, :_POOL], member_sums + _POOL, tops)
    resums = np.where(_X == _Y, x7, np.where(_X == _ZERO, y7,
                                             np.where(_Y == _ONE, sums[:, :, _POOL:], resums)))
    candidate, unit_sum = is_one[:, :, :_POOL], is_one[:, :, _POOL:]
    dominated, = decide("orthogonality", (dominant, x7, tops))
    second, associates, restored = decide(
        "equality", (candidate, y7, c7),
        (closed & ~bad.take(left) & ~bad.take(right), left, right),
        (apart & ~bad.take(resums), resums, y7))

    # The pairwise evaluation raises, in this order within a round, on the
    # pool checks, oplus(x, x') (OS5) and the complement of a sum of two
    # members (OS6).  Its oplus(x, 0) (OS4) raises only on a member that
    # fails the pool checks: 0 is orthogonal to every finite x both ways.
    raises = np.concatenate((bad[:at.size].reshape(at.shape), sum_bad[:, :, _POOL],
                             (dominant & bad.take(tops)).reshape(rounds, -1)), axis=1)
    if raises.any():
        where = np.concatenate((at, sums[:, :, _POOL], tops.reshape(rounds, -1)),
                               axis=1).reshape(-1)[raises.argmax()]
        raise ValidationError(errors[where])

    x, y = _PAIRS

    def describe(r, k):
        axiom, what = _ROUND_CHECKS[k]
        if what is None:
            i = k - _AXIOM_STARTS[1]
            xy, yx = sums[r, x[i], y[i]], sums[r, y[i], x[i]]
            what = (f"sum failed validation: {errors[xy]}" if bad[xy]
                    else "sum not defined in both orders" if not orth[r, y[i], x[i]]
                    else f"sum failed validation: {errors[yx]}" if bad[yx]
                    else "sum not commutative")
        return axiom, what

    pair_orth, every = orth[:, x, y], np.ones((rounds, len(_ROUND_CHECKS)), dtype=bool)
    # OS1: orthogonality is symmetric.  OS2: the sum of an orthogonal pair
    # exists and is commutative.  OS3: pairwise orthogonal triples close up
    # and associate.  OS4: zero is orthogonal to everything and neutral for
    # the sum.  OS5: the complement sums to the unit, and no other member
    # does.  OS6: x _|_ y' exactly when y splits as x plus a remainder
    # orthogonal to x, and a sum dominates its summands.
    checked = np.concatenate((
        every[:, :_AXIOM_STARTS[1]], pair_orth, every[:, _AXIOM_STARTS[2]:_AXIOM_STARTS[4]],
        np.concatenate((every[:, :_POOL, None], candidate), axis=2).reshape(rounds, -1),
        split.reshape(rounds, -1), dominant.reshape(rounds, -1)), axis=1)
    failed = np.concatenate((
        pair_orth != orth[:, y, x],
        pair_orth & ~(summed[:, x, y] & summed[:, y, x] & commutes[:, x, y]),
        ~associates[:, None], ~(orth[:, _ZERO, :_G + 1] & neutral),
        np.concatenate((~unit_sum, candidate & ~second), axis=2).reshape(rounds, -1),
        (split & ~restored).reshape(rounds, -1), (dominant & ~dominated).reshape(rounds, -1)),
        axis=1)
    return checked, failed, describe
