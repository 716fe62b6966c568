"""Unit tests for the network substrate: delivery, partitions, circuits."""

import pytest

from repro.config import CostModel
from repro.errors import SiteDown, Unreachable
from repro.net import Message, MsgKind, Network
from repro.net.message import payload_size
from repro.net.stats import StatsWindow
from repro.obs import Tracer
from repro.sim import Simulator


class Harness:
    """Three registered sites recording deliveries and circuit closures."""

    def __init__(self, n=3, cost=None):
        self.sim = Simulator(seed=1)
        self.net = Network(self.sim, Tracer(self.sim), cost or CostModel())
        self.delivered = {i: [] for i in range(n)}
        self.closed = {i: [] for i in range(n)}
        for i in range(n):
            self.net.register_site(
                i,
                deliver=lambda msg, i=i: self.delivered[i].append(msg),
                circuit_closed=lambda peer, why, i=i: self.closed[i].append(peer),
            )

    def msg(self, src, dst, mtype="test.op", payload=None):
        return self.net.make_message(src, dst, mtype, MsgKind.REQUEST, payload)


@pytest.fixture
def h():
    return Harness()


class TestDelivery:
    def test_message_arrives_after_latency(self, h):
        m = h.msg(0, 1, payload=b"x" * 100)
        h.net.send(0, 1, m)
        assert h.delivered[1] == []
        h.sim.run()
        assert h.delivered[1] == [m]
        expected = h.net.cost.message_delay(100)
        assert h.sim.now == pytest.approx(expected)

    def test_send_to_self_rejected(self, h):
        with pytest.raises(ValueError):
            h.net.send(0, 0, h.msg(0, 0))

    def test_messages_between_pair_arrive_in_order(self, h):
        for i in range(10):
            h.net.send(0, 1, h.msg(0, 1, payload=i))
        h.sim.run()
        assert [m.payload for m in h.delivered[1]] == list(range(10))

    def test_stats_count_by_mtype(self, h):
        h.net.send(0, 1, h.msg(0, 1, mtype="fs.open"))
        h.net.send(0, 2, h.msg(0, 2, mtype="fs.open"))
        h.net.send(1, 2, h.msg(1, 2, mtype="fs.read"))
        h.sim.run()
        assert h.net.stats.sent["fs.open"] == 2
        assert h.net.stats.sent["fs.read"] == 1
        assert h.net.stats.total_messages == 3
        assert h.net.stats.delivered == 3

    def test_response_counted_under_resp_key(self, h):
        m = h.net.make_message(0, 1, "fs.open", MsgKind.RESPONSE, None, reqid=7)
        h.net.send(0, 1, m)
        h.sim.run()
        assert h.net.stats.sent["fs.open.resp"] == 1

    def test_stats_window_diff(self, h):
        h.net.send(0, 1, h.msg(0, 1, mtype="a"))
        h.sim.run()
        win = StatsWindow(h.net.stats)
        h.net.send(0, 1, h.msg(0, 1, mtype="b"))
        h.net.send(0, 1, h.msg(0, 1, mtype="b"))
        h.sim.run()
        snap = win.close()
        assert snap.sent == {"b": 2}
        assert snap.total_messages == 2


class TestPartitions:
    def test_cross_partition_send_raises(self, h):
        h.net.set_partitions([{0, 1}, {2}])
        with pytest.raises(Unreachable):
            h.net.send(0, 2, h.msg(0, 2))
        # within-partition traffic still flows
        h.net.send(0, 1, h.msg(0, 1))
        h.sim.run()
        assert len(h.delivered[1]) == 1

    def test_in_flight_message_dropped_on_partition(self, h):
        h.net.send(0, 2, h.msg(0, 2))
        h.net.set_partitions([{0, 1}, {2}])   # break before delivery
        h.sim.run()
        assert h.delivered[2] == []
        assert h.net.stats.dropped == 1

    def test_heal_restores_reachability(self, h):
        h.net.set_partitions([{0}, {1}, {2}])
        h.net.heal()
        h.net.send(0, 2, h.msg(0, 2))
        h.sim.run()
        assert len(h.delivered[2]) == 1

    def test_partition_closes_circuits_and_notifies_both_ends(self, h):
        h.net.send(0, 2, h.msg(0, 2))
        h.sim.run()
        h.net.set_partitions([{0, 1}, {2}])
        h.sim.run()
        assert 2 in h.closed[0]
        assert 0 in h.closed[2]
        # Every previously-reachable pair the split separates is notified,
        # so site 1 learns about 2; the intact pair 0-1 stays quiet.
        assert h.closed[1] == [2]
        assert 0 not in h.closed[1]

    def test_unknown_site_in_partition_spec_rejected(self, h):
        with pytest.raises(ValueError):
            h.net.set_partitions([{0, 99}])


class TestSiteFailure:
    def test_send_from_down_site_raises(self, h):
        h.net.fail_site(0)
        with pytest.raises(SiteDown):
            h.net.send(0, 1, h.msg(0, 1))

    def test_send_to_down_site_unreachable(self, h):
        h.net.fail_site(2)
        with pytest.raises(Unreachable):
            h.net.send(0, 2, h.msg(0, 2))

    def test_failure_closes_circuits_of_dead_site(self, h):
        h.net.send(0, 2, h.msg(0, 2))
        h.sim.run()
        h.net.fail_site(2)
        h.sim.run()
        assert 2 in h.closed[0]
        # the dead site itself is not notified
        assert h.closed[2] == []

    def test_restore_site_allows_traffic_again(self, h):
        h.net.fail_site(2)
        h.net.restore_site(2)
        h.net.send(0, 2, h.msg(0, 2))
        h.sim.run()
        assert len(h.delivered[2]) == 1


class TestPayloadSize:
    @pytest.mark.parametrize("payload,size", [
        (None, 0),
        (b"abcd", 4),
        ("abc", 3),
        (7, 8),
        (3.14, 8),
        (True, 1),
        ([1, 2], 16),
        ({"a": 1}, 9),
    ])
    def test_sizes(self, payload, size):
        assert payload_size(payload) == size

    def test_extra_latency_is_applied(self):
        h = Harness()
        h.net.extra_latency[(0, 1)] = 50.0
        h.net.send(0, 1, h.msg(0, 1))
        h.sim.run()
        assert h.sim.now >= 50.0
