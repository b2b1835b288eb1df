import itertools

from frobkit import GF, Poly, orbit_stats
from oracles import class_sizes_by_enumeration


def _monic(F, n):
    for low in itertools.product(list(F.elements()), repeat=n):
        yield Poly(F, list(low) + [F.one])


def _closed_form(F, n):
    return {
        (g, r.invariant_factors): r.class_size for g in _monic(F, n) for r in orbit_stats(g)
    }


def test_class_sizes_match_enumeration():
    classes = 0
    for q in (3, 5, 9):
        for n in (1, 2):
            sizes = _closed_form(GF(q), n)
            assert sizes == class_sizes_by_enumeration(GF(q), n)
            classes += len(sizes)
    assert classes == 17 + 132  # q classes at n = 1, q^2 + q at n = 2


def test_class_sizes_sum_to_all_matrices():
    for q, n_max in ((3, 3), (5, 3), (9, 2)):
        for n in range(n_max + 1):
            assert sum(_closed_form(GF(q), n).values()) == q ** (n * n)
