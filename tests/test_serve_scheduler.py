"""Deficit-round-robin fairness and backpressure."""

import asyncio

import pytest

from repro.core.study import Study, StudyConfig
from repro.serve.jobs import estimate_plays
from repro.serve.scheduler import FairScheduler, QueueFull


def drain(scheduler, count):
    """The next ``count`` scheduled items, via the async API."""
    async def go():
        return [await scheduler.next() for _ in range(count)]

    return asyncio.run(go())


class TestDrr:
    def test_single_client_fifo(self):
        s = FairScheduler(quantum=10)
        for item in ("a", "b", "c"):
            s.submit("alice", cost=5, item=item)
        assert drain(s, 3) == ["a", "b", "c"]

    def test_equal_cost_clients_interleave(self):
        s = FairScheduler(quantum=10)
        for item in ("a1", "a2", "a3"):
            s.submit("alice", cost=10, item=item)
        for item in ("b1", "b2", "b3"):
            s.submit("bob", cost=10, item=item)
        assert drain(s, 6) == ["a1", "b1", "a2", "b2", "a3", "b3"]

    def test_fairness_is_by_cost_not_request_count(self):
        # alice spams ten cost-1 cells; bob has one cost-10 study.
        # Under DRR bob's study must not wait for all ten of alice's.
        s = FairScheduler(quantum=5)
        for index in range(10):
            s.submit("alice", cost=1, item=f"a{index}")
        s.submit("bob", cost=10, item="big")
        order = drain(s, 11)
        # bob's deficit reaches 10 on his second visit: the big job
        # runs after at most one quantum's worth of alice's queue.
        assert order.index("big") <= 6
        assert sorted(o for o in order if o != "big") == sorted(
            f"a{i}" for i in range(10)
        )

    def test_deficit_accumulates_until_big_item_fits(self):
        s = FairScheduler(quantum=3)
        s.submit("alice", cost=10, item="big")
        assert drain(s, 1) == ["big"]  # 4 scans at quantum 3

    def test_idle_client_forfeits_deficit(self):
        s = FairScheduler(quantum=10)
        s.submit("alice", cost=1, item="a1")
        assert drain(s, 1) == ["a1"]
        # alice left the round; resubmitting must not carry the old
        # 9-credit balance into an advantage over bob.
        s.submit("alice", cost=10, item="a2")
        s.submit("bob", cost=10, item="b1")
        assert drain(s, 2) == ["a2", "b1"]

    def test_next_blocks_until_submit(self):
        async def go():
            s = FairScheduler()
            results = []

            async def consumer():
                results.append(await s.next())

            task = asyncio.ensure_future(consumer())
            await asyncio.sleep(0.01)
            assert results == []
            s.submit("alice", cost=1, item="late")
            await asyncio.wait_for(task, timeout=5)
            return results

        assert asyncio.run(go()) == ["late"]


class TestBackpressure:
    def test_capacity_bounds_all_clients_together(self):
        s = FairScheduler(capacity=2)
        s.submit("alice", cost=1, item="a")
        s.submit("bob", cost=1, item="b")
        with pytest.raises(QueueFull, match="capacity"):
            s.submit("carol", cost=1, item="c")
        assert s.depth == 2

    def test_depth_counts_queued_not_served(self):
        s = FairScheduler(capacity=2)
        s.submit("alice", cost=1, item="a")
        assert s.depth == 1
        assert drain(s, 1) == ["a"]
        assert s.depth == 0
        s.submit("alice", cost=1, item="again")  # slot freed

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FairScheduler(capacity=0)
        with pytest.raises(ValueError):
            FairScheduler(quantum=0)


class TestClose:
    def test_close_drains_and_returns_queued_items(self):
        s = FairScheduler()
        s.submit("alice", cost=1, item="a")
        s.submit("bob", cost=1, item="b")
        assert sorted(s.close()) == ["a", "b"]
        assert s.depth == 0
        assert s.closed

    def test_submit_after_close_refused(self):
        s = FairScheduler()
        s.close()
        with pytest.raises(QueueFull, match="closed"):
            s.submit("alice", cost=1, item="x")

    def test_next_returns_none_after_close(self):
        async def go():
            s = FairScheduler()
            s.submit("alice", cost=1, item="last")
            first = await s.next()
            s.close()
            return first, await s.next()

        assert asyncio.run(go()) == ("last", None)

    def test_close_wakes_blocked_consumer(self):
        async def go():
            s = FairScheduler()

            async def consumer():
                return await s.next()

            task = asyncio.ensure_future(consumer())
            await asyncio.sleep(0.01)
            s.close()
            return await asyncio.wait_for(task, timeout=5)

        assert asyncio.run(go()) is None


class TestEstimatePlays:
    """The DRR weight is an estimate of the plays a config schedules."""

    @pytest.mark.parametrize(
        "max_users", [None, 2, 5, 20, 63, 64, 100, 130, 260]
    )
    def test_within_half_of_the_real_schedule(self, max_users):
        for scale in (0.01, 0.02, 0.03, 0.05, 0.1, 0.25, 0.5, 1.0):
            config = StudyConfig(seed=3, max_users=max_users, scale=scale)
            scheduled = sum(
                plays for _user, plays in Study(config).schedule()
            )
            ratio = estimate_plays(config) / scheduled
            assert 1 / 1.5 <= ratio <= 1.5, (max_users, scale, scheduled)

    def test_expanded_and_tiny_studies(self):
        # Past the paper's roster the cost keeps growing, and every
        # user plays at least once however small the scale.
        assert estimate_plays(StudyConfig(max_users=130, scale=0.03)) == 177
        assert estimate_plays(StudyConfig(max_users=2, scale=0.01)) == 2

    def test_monotone_in_users_beyond_the_roster(self):
        for scale in (0.01, 0.1, 1.0):
            costs = [
                estimate_plays(StudyConfig(max_users=users, scale=scale))
                for users in (63, 64, 130, 1000, 10**6)
            ]
            assert costs == sorted(set(costs))
