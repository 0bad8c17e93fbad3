from dataclasses import replace
from fractions import Fraction

from ahcert.params import (
    make_explicit_family,
    make_geometric_family,
    sequences,
    starting_bits,
)


def test_witnesses_are_short_and_on_the_sound_side():
    for family in (
        make_geometric_family(5),
        make_geometric_family(6),
        make_explicit_family([1, 6, 36, 216], [0, 1, 1, 1]),
        make_explicit_family(
            [1, 2, 3, 4], [0, 1, 1, 1], tail_majorant=lambda n: Fraction(3, 2)
        ),
    ):
        for horizon in (1, 2, 3):
            table = sequences(family, horizon)
            w = table.witness
            assert table.bits == starting_bits(family)
            assert all(x.denominator <= 2 ** table.bits for x in vars(w).values())
            assert w.kappa_lb <= table.kappa_lb and w.kappa_ub >= table.kappa_ub
            assert w.omega_prime_ub >= table.omega_prime_ub
            assert w.omega_prime_partial <= table.omega_prime_partial
            tail = 0 if table.horizon_limited else family.tail(horizon)
            tau = Fraction(table.t[horizon], table.r[horizon]) + tail
            assert tau <= w.tau_ub
            assert len(table.links) == 5
            assert all(link.holds and link.reverify() for link in table.links)


def test_refinement_ends_at_the_exact_values():
    table = sequences(make_geometric_family(6), 12)
    steps = list(table.precisions())
    assert [t.bits for t in steps[:3]] == [6, 12, 24]
    assert steps[-1].exact and all(not t.exact for t in steps[:-1])
    exact = steps[-1].witness
    assert exact.kappa_lb == table.kappa_lb
    assert exact.omega_prime_ub == table.omega_prime_ub
    # finer witnesses never move away from the exact value
    lows = [t.witness.kappa_lb for t in steps]
    assert lows == sorted(lows)
    # a tampered witness fails its link check
    link = table.links[0]
    forged = replace(link, lhs=table.kappa_lb + Fraction(1, 2 ** 80))
    assert forged.holds and not forged.reverify()
