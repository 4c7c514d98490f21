"""Tests for RR / C-RR / least-loaded job assignment."""

from __future__ import annotations

import pytest

from repro.core.assignment import CumulativeRoundRobin, LeastLoaded, RoundRobin
from repro.errors import ConfigurationError
from repro.workload.job import Job


def jobs(n, demand=100.0):
    return [Job(jid=i, arrival=0.0, deadline=1.0, demand=demand) for i in range(n)]


def cores_of(pairs):
    return [core for _, core in pairs]


def test_rr_restarts_each_batch():
    rr = RoundRobin(m=4)
    assert cores_of(rr.assign(jobs(6), [0] * 4)) == [0, 1, 2, 3, 0, 1]
    assert cores_of(rr.assign(jobs(3), [0] * 4)) == [0, 1, 2]


def test_crr_pointer_persists():
    """C-RR 'assigns jobs to the core where the last job distribution
    cycle stops' (§III-E)."""
    crr = CumulativeRoundRobin(m=4)
    assert cores_of(crr.assign(jobs(6), [0] * 4)) == [0, 1, 2, 3, 0, 1]
    assert crr.pointer == 2
    assert cores_of(crr.assign(jobs(3), [0] * 4)) == [2, 3, 0]
    assert crr.pointer == 1


def test_crr_balances_over_many_small_batches():
    crr = CumulativeRoundRobin(m=4)
    counts = [0] * 4
    for _ in range(10):
        for _, core in crr.assign(jobs(3), [0] * 4):
            counts[core] += 1
    # 30 jobs over 4 cores: 8/8/7/7 — perfectly balanced.
    assert max(counts) - min(counts) <= 1


def test_rr_unbalances_with_odd_batches():
    """The motivation for C-RR: plain RR always hits core 0 first."""
    rr = RoundRobin(m=4)
    counts = [0] * 4
    for _ in range(10):
        for _, core in rr.assign(jobs(1), [0] * 4):
            counts[core] += 1
    assert counts == [10, 0, 0, 0]


def test_least_loaded_prefers_empty_core():
    ll = LeastLoaded(m=3)
    pairs = ll.assign(jobs(2, demand=50.0), [100.0, 0.0, 30.0])
    assert cores_of(pairs) == [1, 2]


def test_least_loaded_accounts_for_batch():
    ll = LeastLoaded(m=2)
    pairs = ll.assign(jobs(3, demand=10.0), [0.0, 0.0])
    assert cores_of(pairs) == [0, 1, 0]


def test_least_loaded_requires_matching_loads():
    ll = LeastLoaded(m=2)
    with pytest.raises(ConfigurationError):
        ll.assign(jobs(1), [0.0])


def test_invalid_core_count():
    with pytest.raises(ConfigurationError):
        RoundRobin(m=0)
