"""Shared test helpers."""

from fractions import Fraction


def transition_pairs(em, k, a):
    """(successor index, probability) pairs of state k under action a of an
    explicit MDP, read from its integer rows."""
    src, dst, num = em.transitions[a]
    return [
        (int(j), Fraction(int(p), em.denominator))
        for j, p in zip(dst[src == k].tolist(), num[src == k].tolist())
    ]
