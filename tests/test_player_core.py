"""PlayerCore: the lifecycle both protocol front ends share.

One suite, parametrized over the RTSP front end (`RealPlayer` against a
`RealServer`) and the HTTP one (`AbrPlayer` against a `SegmentServer`):
done-callback semantics, the outcome rule on an early stop, and the
single control-timeout retry.  What is specific to a front end lives in
`test_player_realplayer.py` / `test_abr.py`.
"""

import pytest

from repro.abr import AbrConfig, AbrPlayer, SegmentServer
from repro.media.clip import ContentKind, make_clip
from repro.player.core import PlaybackOutcome, PlayerConfig, PlayerCore
from repro.player.realplayer import RealPlayer
from repro.server.availability import AvailabilityModel
from repro.server.realserver import RealServer
from repro.units import kbps

CLIP = make_clip("rtsp://t/core.rm", ContentKind.NEWS, max_kbps=150,
                 duration_s=120.0)

ABR = AbrConfig(enabled=True)


def real_stack(loop, path, rng, server=None, **kwargs):
    if server is None:
        server = RealServer(loop, "T/SRV", {CLIP.url: CLIP},
                            AvailabilityModel(0.0), rng)
    return RealPlayer(loop, path, server, CLIP.url,
                      PlayerConfig(client_max_bps=kbps(450)), **kwargs)


def abr_stack(loop, path, rng, server=None, **kwargs):
    if server is None:
        server = SegmentServer(loop, "T/SRV", {CLIP.url: CLIP},
                               AvailabilityModel(0.0), rng, config=ABR)
    return AbrPlayer(loop, path, server, CLIP.url,
                     PlayerConfig(client_max_bps=kbps(450)), abr=ABR,
                     **kwargs)


@pytest.fixture(params=[real_stack, abr_stack], ids=["rtsp", "abr"])
def build(request, loop, clean_path, rng):
    def build_player(**kwargs) -> PlayerCore:
        return request.param(loop, clean_path, rng, **kwargs)

    return build_player


class MuteServer:
    """Accepts the control channel and never answers it."""

    def __init__(self):
        self.requests = []

    def attach(self, channel, path):
        channel.on_server_receive = self.requests.append


def play(loop, path, player, stop_after=20.0):
    path.start()
    player.start()
    loop.schedule(stop_after, player.stop)
    player.add_done_callback(lambda _outcome: loop.stop())
    loop.run()
    path.stop()


class TestDoneCallbacks:
    def test_constructor_callback_runs_before_added_ones(self, loop,
                                                         clean_path, build):
        calls = []
        player = build(on_done=lambda o: calls.append(("ctor", o)))
        player.add_done_callback(lambda o: calls.append(("first", o)))
        player.add_done_callback(lambda o: calls.append(("second", o)))
        play(loop, clean_path, player)
        assert player.outcome is PlaybackOutcome.PLAYED
        assert calls == [
            ("ctor", PlaybackOutcome.PLAYED),
            ("first", PlaybackOutcome.PLAYED),
            ("second", PlaybackOutcome.PLAYED),
        ]

    def test_callback_added_after_finish_fires_immediately(self, loop,
                                                           clean_path, build):
        player = build()
        play(loop, clean_path, player)
        assert player.finished
        late = []
        player.add_done_callback(late.append)
        assert late == [player.outcome]

    def test_callbacks_fire_once_however_often_stop_is_called(
            self, loop, clean_path, build):
        calls = []
        player = build(on_done=calls.append)
        play(loop, clean_path, player)
        player.stop()
        player.stop()
        assert len(calls) == 1


class TestOutcomeRule:
    def test_stop_before_the_server_accepts_is_control_failed(self, build):
        player = build()
        player.start()
        player.stop()  # the opening request has not even arrived
        assert player.outcome is PlaybackOutcome.CONTROL_FAILED
        assert player.session is None
        assert player.stats.frames_displayed == 0

    def test_stop_without_start_is_control_failed(self, build):
        player = build()
        player.stop()
        assert player.outcome is PlaybackOutcome.CONTROL_FAILED

    def test_stop_after_acceptance_is_played(self, loop, clean_path, build):
        player = build()
        play(loop, clean_path, player, stop_after=3.0)  # still buffering
        assert player.outcome is PlaybackOutcome.PLAYED
        assert player.session is not None


class TestControlTimeout:
    def test_unanswered_request_is_retried_once_then_fails(self, loop,
                                                           clean_path, build):
        server = MuteServer()
        player = build(server=server)
        timeout = player.config.control_timeout_s
        clean_path.start()
        player.start()
        loop.run(until=timeout * 1.5)
        assert not player.finished
        assert len(server.requests) == 2
        assert server.requests[0] == server.requests[1]
        loop.run(until=timeout * 2.5)
        assert player.outcome is PlaybackOutcome.CONTROL_FAILED
        assert len(server.requests) == 2  # one retry, not a retry loop
        assert player.stats.stopped_at == pytest.approx(timeout * 2.0)
        clean_path.stop()
