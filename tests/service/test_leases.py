"""Lease-table invariants with injected clocks (no threads, no sockets)."""

import pytest

from repro.campaign.leases import LeaseTable


def table(duration=10.0):
    return LeaseTable(duration)


class TestGrant:
    def test_grant_and_lookup(self):
        t = table()
        lease = t.grant("fn_a", "w1", attempt=1, now=100.0)
        assert lease.unit == "fn_a"
        assert lease.expires_at == 110.0
        assert t.lease_of("fn_a") is lease
        assert len(t) == 1

    def test_double_grant_refused(self):
        t = table()
        t.grant("fn_a", "w1", attempt=1, now=0.0)
        with pytest.raises(ValueError, match="already leased"):
            t.grant("fn_a", "w2", attempt=2, now=1.0)

    def test_nonpositive_duration_refused(self):
        with pytest.raises(ValueError):
            LeaseTable(0.0)

    def test_lease_ids_are_unique_and_ordered(self):
        t = table()
        ids = [
            t.grant(f"fn_{i}", "w1", attempt=1, now=0.0).lease_id
            for i in range(3)
        ]
        assert ids == sorted(ids)
        assert len(set(ids)) == 3


class TestRenew:
    def test_heartbeat_renews_only_that_worker(self):
        t = table(duration=10.0)
        mine = t.grant("fn_a", "w1", attempt=1, now=0.0)
        other = t.grant("fn_b", "w2", attempt=1, now=0.0)
        assert t.renew_worker("w1", now=5.0) == 1
        assert mine.expires_at == 15.0
        assert other.expires_at == 10.0

    def test_renew_unknown_worker_is_zero(self):
        assert table().renew_worker("ghost", now=0.0) == 0


class TestExpiry:
    def test_expire_pops_exactly_once(self):
        t = table(duration=10.0)
        t.grant("fn_a", "w1", attempt=3, now=0.0)
        assert t.expire(now=9.9) == []
        dead = t.expire(now=10.0)
        assert [lease.unit for lease in dead] == ["fn_a"]
        assert dead[0].attempt == 3
        # The exactly-once guarantee: a second sweep finds nothing.
        assert t.expire(now=100.0) == []
        assert t.lease_of("fn_a") is None
        assert t.expired == 1

    def test_renewed_lease_survives_the_sweep(self):
        t = table(duration=10.0)
        t.grant("fn_a", "w1", attempt=1, now=0.0)
        t.renew_worker("w1", now=8.0)
        assert t.expire(now=12.0) == []
        assert t.lease_of("fn_a") is not None


class TestRelease:
    def test_release_settles(self):
        t = table()
        lease = t.grant("fn_a", "w1", attempt=1, now=0.0)
        assert t.release(lease.lease_id) is lease
        assert t.lease_of("fn_a") is None
        # Releasing again (duplicate result after expiry) reads as stale.
        assert t.release(lease.lease_id) is None

    def test_release_after_expiry_is_stale(self):
        t = table(duration=5.0)
        lease = t.grant("fn_a", "w1", attempt=1, now=0.0)
        t.expire(now=6.0)
        assert t.release(lease.lease_id) is None

    def test_release_worker_returns_all_of_its_leases(self):
        t = table()
        t.grant("fn_a", "w1", attempt=1, now=0.0)
        t.grant("fn_b", "w2", attempt=1, now=0.0)
        t.grant("fn_c", "w1", attempt=1, now=0.0)
        released = {lease.unit for lease in t.release_worker("w1")}
        assert released == {"fn_a", "fn_c"}
        assert len(t) == 1
        assert t.lease_of("fn_b") is not None

    def test_outstanding_sorted_by_id(self):
        t = table()
        t.grant("fn_b", "w1", attempt=1, now=0.0)
        t.grant("fn_a", "w1", attempt=1, now=0.0)
        assert [l.unit for l in t.outstanding()] == ["fn_b", "fn_a"]


class TestDeterministicReturnOrder:
    """expire() and release_worker() return lease_id order — the same
    order outstanding() reports — so the coordinator's re-queue and
    journal line order never depend on dict insertion history."""

    def _permuted_tables(self):
        """Same leases, granted in different orders (different insertion
        histories), all expiring together."""
        units = ["fn_c", "fn_a", "fn_b", "fn_d"]
        tables = []
        for rotation in range(len(units)):
            t = table(duration=5.0)
            order = units[rotation:] + units[:rotation]
            for unit in order:
                t.grant(unit, "w1", attempt=1, now=0.0)
            tables.append(t)
        return tables

    def test_expire_order_invariant_under_grant_permutation(self):
        orders = []
        for t in self._permuted_tables():
            expected = [lease.lease_id for lease in t.outstanding()]
            dead = t.expire(now=100.0)
            assert [lease.lease_id for lease in dead] == expected
            orders.append([lease.lease_id for lease in dead])
        # Every permutation re-queues in grant (lease_id) order.
        assert all(order == sorted(order) for order in orders)

    def test_release_worker_order_matches_outstanding(self):
        t = table(duration=5.0)
        # Interleave two workers so w1's leases are non-contiguous in
        # insertion order.
        t.grant("fn_x", "w1", attempt=1, now=0.0)
        t.grant("fn_y", "w2", attempt=1, now=0.0)
        t.grant("fn_z", "w1", attempt=1, now=0.0)
        t.grant("fn_w", "w2", attempt=1, now=0.0)
        t.grant("fn_v", "w1", attempt=1, now=0.0)
        expected = [
            lease.lease_id
            for lease in t.outstanding()
            if lease.worker_id == "w1"
        ]
        released = t.release_worker("w1")
        assert [lease.lease_id for lease in released] == expected
        assert [lease.lease_id for lease in released] == sorted(
            lease.lease_id for lease in released
        )

    def test_release_then_regrant_keeps_order_deterministic(self):
        t = table(duration=5.0)
        first = t.grant("fn_a", "w1", attempt=1, now=0.0)
        t.grant("fn_b", "w1", attempt=1, now=0.0)
        # Release and regrant fn_a: its new lease_id sorts *after* fn_b's,
        # so dict insertion order (fn_a first again) would be wrong.
        t.release(first.lease_id)
        t.grant("fn_a", "w1", attempt=2, now=0.0)
        dead = t.expire(now=100.0)
        assert [lease.unit for lease in dead] == ["fn_b", "fn_a"]
