"""The paper's figures, as one table.

:data:`FIGURES` lists every figure in paper order, each under a comment
stating the paper's claim for it.  Most are a CDF of one metric,
overall or per group, sampled on a grid, with a few headline numbers
(:func:`_distribution`); fig17/18/24 compare TCP with UDP
(:func:`_protocol_pair`); fig07-09 are tallies (:func:`_tally`); fig01,
fig03/04, fig10, fig16 and fig28 are plain functions.  Records are read
only through ``ctx.source``, which decides which records count and in
what unit, so every figure renders identically from either backend.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter, methodcaller
from typing import Callable, Mapping, Sequence

from repro.analysis.cdf import Cdf
from repro.analysis.report import format_cdf_table, format_counts
from repro.analysis.tcp_friendly import FriendlinessReport
from repro.core.realtracer import RealTracer, TracerConfig
from repro.experiments.base import ExperimentContext, Figure, FigureResult
from repro.rng import RngFactory
from repro.world.servers import SERVER_SITES

#: Sampling grids used to print CDF figures as rows.
FPS_GRID = (1.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 24.0, 30.0)
JITTER_MS_GRID = (25.0, 50.0, 100.0, 300.0, 550.0, 1050.0, 2050.0, 3050.0)
BANDWIDTH_KBPS_GRID = (10.0, 25.0, 50.0, 100.0, 150.0, 250.0, 350.0, 450.0, 600.0)
RATING_GRID = tuple(float(x) for x in range(11))
STALL_SECONDS_GRID = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0)
SWITCH_COUNT_GRID = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0)
ABR_LEVEL_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)

#: fig19's old, underpowered PC classes (claim C7 splits on them too).
OLD_CLASSES = ("Intel Pentium MMX / 24MB", "Pentium II / 32MB")

#: fig25's observed-bandwidth bins, low to high.
BIN_ORDER = ("< 10K", "10K - 100K", "> 100K")

Cdfs = dict[str, Cdf]
Headline = dict[str, float]


# -- results ----------------------------------------------------------------


def empty_figure(figure_id: str, title: str, reason: str) -> FigureResult:
    """An honest ``n=0`` figure for a sample with no eligible records.

    Tiny ``--scale`` runs and shard-quarantined studies can leave a
    figure's sample (or a required group) empty; figures must degrade
    to an explicit empty result instead of crashing the whole
    ``repro figures`` run on `Cdf`'s empty-sample error.
    """
    return FigureResult(
        figure_id=figure_id,
        title=title,
        series={},
        headline={"n": 0.0},
        text=f"{title}\n  (no data: {reason}; n=0)",
    )


def cdf_figure(
    figure_id: str,
    title: str,
    cdfs: Mapping[str, Cdf],
    grid: Sequence[float],
    x_label: str,
    headline: Headline,
) -> FigureResult:
    """Assemble a CDF-style figure result."""
    return FigureResult(
        figure_id=figure_id,
        title=title,
        series={name: cdf.series(grid) for name, cdf in cdfs.items()},
        headline=headline,
        text=f"{title}\n" + format_cdf_table(dict(cdfs), grid, x_label),
    )


def counts_figure(
    figure_id: str,
    title: str,
    counts: Mapping[str, int],
    headline: Headline,
) -> FigureResult:
    """Assemble a bar-chart-style figure result."""
    return FigureResult(
        figure_id=figure_id,
        title=title,
        series={"counts": [(float(i), float(v))
                           for i, v in enumerate(counts.values())]},
        headline=headline,
        text=format_counts(counts, title),
    )


# -- builders ---------------------------------------------------------------


def _distribution(
    figure_id: str, title: str, grid: Sequence[float], unit: str,
    cdfs: Callable[[ExperimentContext], Cdfs],
    headline: Callable[[Cdfs, ExperimentContext], Headline],
    empty: str | None = None,
) -> Figure:
    """A CDF figure: ``cdfs(ctx)`` names its series, ``headline(cdfs,
    ctx)`` its numbers.  With ``empty`` given, no series at all renders
    an ``n=0`` figure for that reason instead."""

    def run(ctx: ExperimentContext) -> FigureResult:
        found = cdfs(ctx)
        if not found and empty is not None:
            return empty_figure(figure_id, title, empty)
        return cdf_figure(
            figure_id, title, found, grid, unit, headline(found, ctx)
        )

    return Figure(figure_id, title, run)


def _protocol_pair(
    figure_id: str, title: str, metric: str, grid: Sequence[float],
    unit: str, headline: Callable[[Cdf, Cdf, ExperimentContext], Headline],
    empty: str,
) -> Figure:
    """TCP vs UDP; ``headline(tcp, udp, ctx)`` needs both.  With one
    protocol missing the figure shows what exists, with honest counts."""

    def cdfs(ctx: ExperimentContext) -> Cdfs:
        groups = ctx.source.metric_cdfs(metric, "protocol")
        return {k: v for k, v in groups.items() if k in ("TCP", "UDP")}

    def pair_headline(found: Cdfs, ctx: ExperimentContext) -> Headline:
        if "TCP" not in found or "UDP" not in found:
            return {
                "tcp_n": float(len(found.get("TCP", ()))),
                "udp_n": float(len(found.get("UDP", ()))),
            }
        return headline(found["TCP"], found["UDP"], ctx)

    return _distribution(
        figure_id, title, grid, unit, cdfs, pair_headline, empty
    )


def _tally(
    figure_id: str, title: str,
    counts: Callable[[ExperimentContext], dict[str, int]],
    headline: Callable[[dict[str, int], int], Headline],
) -> Figure:
    """A bar chart; ``headline(counts, total)``."""

    def run(ctx: ExperimentContext) -> FigureResult:
        found = counts(ctx)
        return counts_figure(
            figure_id, title, found, headline(found, sum(found.values()))
        )

    return Figure(figure_id, title, run)


# -- series -----------------------------------------------------------------


def _one(name: str, cdf: Cdf | None) -> Cdfs:
    return {} if cdf is None else {name: cdf}


def _overall(metric: str, name: str = "all clips"):
    """One series over every eligible record."""
    return lambda ctx: _one(name, ctx.source.metric_cdf(metric))


def _by(metric: str, group: str):
    """One series per group, in first-occurrence order."""
    return lambda ctx: ctx.source.metric_cdfs(metric, group)


def _bandwidth_bins(ctx: ExperimentContext) -> Cdfs:
    groups = ctx.source.metric_cdfs("jitter_ms", "bandwidth_bin")
    return {name: groups[name] for name in BIN_ORDER if name in groups}


# -- headlines --------------------------------------------------------------


def _at_least(x: float) -> Callable[[Cdf], float]:
    return methodcaller("fraction_at_least", x)


_mean = attrgetter("mean")
_median = attrgetter("median")
_at_zero = methodcaller("at", 0.0)
_maximum = methodcaller("percentile", 1.0)
_below_3fps = methodcaller("fraction_below", 3.0)
_at_least_15fps = _at_least(15.0)
_imperceptible = methodcaller("at", 50.0)
_unacceptable = _at_least(300.0)


def _stats(**stats: Callable[[Cdf], float]):
    """Headline of a one-series figure: each named statistic of it."""

    def headline(cdfs: Cdfs, ctx: ExperimentContext) -> Headline:
        (cdf,) = cdfs.values()
        return {key: stat(cdf) for key, stat in stats.items()}

    return headline


def _per_group(key: Callable[[str], str], **stats: Callable[[Cdf], float]):
    """``{key(group)}_{stat}`` for every group and statistic."""

    def headline(cdfs: Cdfs, ctx: ExperimentContext) -> Headline:
        return {
            f"{key(name)}_{stat}": value(cdf)
            for name, cdf in cdfs.items()
            for stat, value in stats.items()
        }

    return headline


def _connection_key(name: str) -> str:
    """``56k Modem`` -> ``56k``, ``DSL/Cable`` -> ``dsl``."""
    return name.split()[0].split("/")[0].lower()


def _region_key(name: str) -> str:
    """``Australia/NewZealand`` -> ``australia``, ``US/Canada`` -> ``us``."""
    return name.split("/")[0].lower().replace(" ", "")


def _uniformity_deviation(cdf: Cdf) -> float:
    """Max deviation of a rating CDF from the uniform 0..10 line."""
    return max(abs(cdf.at(float(x)) - (x + 1) / 11.0) for x in range(11))


def _share(counts: dict[str, int], total: int, key: str) -> float:
    return counts.get(key, 0) / total if total else 0.0


def _clips_per_user(cdfs: Cdfs, ctx: ExperimentContext) -> Headline:
    (cdf,) = cdfs.values()
    return {
        "median_clips_per_user": cdf.median,
        "fraction_at_least_40": cdf.fraction_at_least(40.0 * ctx.scale),
        "max_clips": cdf.percentile(1.0),
    }


def _bandwidth_by_connection(cdfs: Cdfs, ctx: ExperimentContext) -> Headline:
    headline = {}
    dsl = cdfs.get("DSL/Cable")
    if dsl is not None:
        headline["dsl_median_kbps"] = dsl.median
        # "near full capacity": at or above 256 Kbps, the class floor.
        headline["dsl_near_capacity_fraction"] = dsl.fraction_at_least(256.0)
    modem = cdfs.get("56k Modem")
    if modem is not None:
        headline["modem_median_kbps"] = modem.median
    return headline


def _fps_by_server_region(cdfs: Cdfs, ctx: ExperimentContext) -> Headline:
    means = {name: cdf.mean for name, cdf in cdfs.items()}
    return {
        "best_region_mean": max(means.values()),
        "worst_region_mean": min(means.values()),
        "mean_spread": max(means.values()) - min(means.values()),
        "asia_mean": means.get("Asia", 0.0),
    }


def _friendliness(report: FriendlinessReport) -> Headline:
    """fig18's TCP-friendliness verdicts, as numbers."""
    return {
        "udp_over_tcp_median_ratio": report.ratio_p50,
        "udp_over_tcp_p75_ratio": report.ratio_p75,
        "comparable": 1.0 if report.comparable else 0.0,
        "strictly_friendly": 1.0 if report.strictly_friendly else 0.0,
    }


def _fps_by_pc(cdfs: Cdfs, ctx: ExperimentContext) -> Headline:
    above: dict[bool, list[float]] = {True: [], False: []}
    for name, cdf in cdfs.items():
        above[name in OLD_CLASSES].append(cdf.fraction_at_least(3.0))
    old, new = above[True], above[False]
    return {
        "old_pc_above_3fps": sum(old) / len(old) if old else 1.0,
        "new_pc_above_3fps": sum(new) / len(new) if new else 0.0,
    }


def _jitter_by_server_region(cdfs: Cdfs, ctx: ExperimentContext) -> Headline:
    imperceptible = {name: cdf.at(50.0) for name, cdf in cdfs.items()}
    others = [v for name, v in imperceptible.items() if name != "Asia"]
    return {
        "asia_imperceptible": imperceptible.get("Asia", 0.0),
        "others_imperceptible_mean": (
            sum(others) / len(others) if others else 0.0
        ),
    }


def _jitter_by_bandwidth(cdfs: Cdfs, ctx: ExperimentContext) -> Headline:
    headline = {}
    if "> 100K" in cdfs:
        headline["high_bw_imperceptible"] = cdfs["> 100K"].at(50.0)
        headline["high_bw_acceptable"] = cdfs["> 100K"].at(300.0)
    if "< 10K" in cdfs:
        headline["low_bw_imperceptible"] = cdfs["< 10K"].at(50.0)
        headline["low_bw_acceptable"] = cdfs["< 10K"].at(300.0)
    if "10K - 100K" in cdfs:
        headline["mid_bw_imperceptible"] = cdfs["10K - 100K"].at(50.0)
    return headline


def _rating_by_connection(cdfs: Cdfs, ctx: ExperimentContext) -> Headline:
    means = {name: cdf.mean for name, cdf in cdfs.items()}
    headline = {
        "modem_mean": means.get("56k Modem", 0.0),
        "dsl_mean": means.get("DSL/Cable", 0.0),
        "t1_mean": means.get("T1/LAN", 0.0),
    }
    if headline["dsl_mean"]:
        headline["modem_over_dsl"] = headline["modem_mean"] / headline["dsl_mean"]
    return headline


def _abr_stalls(cdfs: Cdfs, ctx: ExperimentContext) -> Headline:
    (seconds,) = cdfs.values()
    # Same eligibility as stall_seconds, so present whenever it is.
    counts = ctx.source.metric_cdf("stall_count")
    return {
        "fraction_stall_free": counts.at(0.0),
        "median_stall_seconds": seconds.median,
        "median_stall_count": counts.median,
    }


# -- the plain ones ---------------------------------------------------------


def _buffering(ctx: ExperimentContext) -> FigureResult:
    """fig01: one clip's coded vs actual bandwidth and frame rate."""
    population = ctx.population
    rngs = RngFactory(ctx.seed)
    # A healthy US broadband user and a broadband SureStream clip: the
    # setting of the paper's example timeline.
    user = next(
        u
        for u in population.users
        if u.connection.name == "DSL/Cable"
        and u.country.code == "US"
        and u.pc.profile.decode_budget_fps > 20
        and not u.rtsp_blocked
    )
    site, clip = next(
        (s, c)
        for s, c in population.playlist
        if c.ladder.highest.total_bps >= 225_000 and s.country.code == "US"
    )
    tracer = RealTracer(config=TracerConfig(sample_timeline=True))
    # Retry a few seeds to dodge the ~5-10% unavailability draw.
    for attempt in range(8):
        record = tracer.play_clip(
            user, site, clip, rngs.child("fig01", str(attempt))
        )
        if record.played and record.frames_displayed > 0:
            break
    samples = tracer.last_player.stats.samples

    series = {
        "current_bandwidth_kbps": [
            (s.at_s, s.bandwidth_bps / 1000.0) for s in samples
        ],
        "coded_bandwidth_kbps": [
            (s.at_s, s.coded_bandwidth_bps / 1000.0) for s in samples
        ],
        "current_frame_rate_fps": [
            (s.at_s, s.frame_rate_fps) for s in samples
        ],
        "coded_frame_rate_fps": [
            (s.at_s, s.coded_frame_rate_fps) for s in samples
        ],
    }
    headline = {
        "initial_buffering_s": record.initial_buffering_s,
        "mean_frame_rate": record.measured_frame_rate,
        "mean_bandwidth_kbps": record.measured_bandwidth_bps / 1000.0,
    }
    lines = [
        "Figure 1: buffering and playout of one clip "
        f"({user.user_id} <- {site.name}, {clip.url})",
        f"  initial buffering: {record.initial_buffering_s:.1f} s",
        "  t(s)  bw(kbps)  coded_bw  fps  coded_fps",
    ]
    for s in samples[:70]:
        lines.append(
            f"  {s.at_s:4.0f}  {s.bandwidth_bps / 1000:8.1f}  "
            f"{s.coded_bandwidth_bps / 1000:8.1f}  {s.frame_rate_fps:4.0f}  "
            f"{s.coded_frame_rate_fps:9.1f}"
        )
    return FigureResult(
        figure_id="fig01",
        title="Buffering and Playout of a RealVideo Clip",
        series=series,
        headline=headline,
        text="\n".join(lines),
    )


def _geography(ctx: ExperimentContext) -> FigureResult:
    """fig03/04: server sites and user clusters as coordinate tables
    (the paper shows world maps)."""
    lines = ["Figure 3: RealServer sites"]
    server_series = []
    for site in SERVER_SITES:
        lines.append(
            f"  {site.name:12s} {site.country.name:15s} "
            f"({site.country.latitude:7.2f}, {site.country.longitude:8.2f}) "
            f"region={site.region.value}"
        )
        server_series.append((site.country.longitude, site.country.latitude))

    lines.append("")
    lines.append("Figure 4: user locations (clusters of N users)")
    clusters = Counter()
    coords = {}
    for user in ctx.population.users:
        key = user.state if user.state else user.country.code
        clusters[key] += 1
        coords[key] = (user.latitude, user.longitude)
    user_series = []
    for key, count in sorted(clusters.items(), key=lambda kv: -kv[1]):
        lat, lon = coords[key]
        lines.append(f"  {key:4s} x{count:<3d} ({lat:7.2f}, {lon:8.2f})")
        user_series.append((lon, lat))

    headline = {
        "server_count": float(len(SERVER_SITES)),
        "server_countries": float(len({s.country.code for s in SERVER_SITES})),
        "user_count": float(len(ctx.population.users)),
        "user_countries": float(
            len({u.country.code for u in ctx.population.users})
        ),
    }
    return FigureResult(
        figure_id="fig03_04",
        title="Geographic Representation of RealServers and Users",
        series={"servers_lon_lat": server_series, "users_lon_lat": user_series},
        headline=headline,
        text="\n".join(lines),
    )


def _availability(ctx: ExperimentContext) -> FigureResult:
    """fig10: the unavailable fraction per server and overall."""
    # The paper removed firewall-blocked (control-failed) attempts
    # from all analysis, including this figure.
    availability = ctx.source.availability()
    if availability is None:
        return empty_figure(
            "fig10", "Fraction of Unavailable Clips", "no reachable attempts"
        )
    fractions, overall = availability
    lines = ["Figure 10: fraction of unavailable clips per server"]
    for name, fraction in fractions.items():
        lines.append(f"  {name:12s} {fraction:6.3f}")
    lines.append(f"  {'OVERALL':12s} {overall:6.3f}")
    return FigureResult(
        figure_id="fig10",
        title="Fraction of Unavailable Clips",
        series={
            "unavailable_fraction": [
                (float(i), f) for i, f in enumerate(fractions.values())
            ]
        },
        headline={"overall_unavailable": overall,
                  "servers": float(len(fractions))},
        text="\n".join(lines),
    )


def _protocol_share(ctx: ExperimentContext) -> FigureResult:
    """fig16: the share of played clips per transport protocol."""
    # Plain counts, not `protocol_report` (which needs both protocols
    # to build its bandwidth CDFs): a single-protocol study still
    # reports honestly.
    tcp_count, udp_count = ctx.source.played_protocol_counts()
    total = tcp_count + udp_count
    if not total:
        return empty_figure(
            "fig16", "Fraction of Transport Protocols Observed",
            "no played clips with a negotiated protocol",
        )
    tcp_share = tcp_count / total
    udp_share = udp_count / total
    text = (
        "Figure 16: transport protocols observed\n"
        f"  TCP: {tcp_share:.2f} ({tcp_count} clips)\n"
        f"  UDP: {udp_share:.2f} ({udp_count} clips)"
    )
    return FigureResult(
        figure_id="fig16",
        title="Fraction of Transport Protocols Observed",
        series={"share": [(0.0, tcp_share), (1.0, udp_share)]},
        headline={"tcp_share": tcp_share, "udp_share": udp_share},
        text=text,
    )


def _rating_vs_bandwidth(ctx: ExperimentContext) -> FigureResult:
    """fig28: the rating-vs-bandwidth scatter."""
    scatter = ctx.source.rating_scatter()
    # The per-user analysis the paper leaves as future work: strong
    # per-user relationships hide under the weak global one.
    lines = [
        "Figure 28: quality rating vs network bandwidth",
        f"  n = {scatter.n} rated clips",
        f"  global correlation: {scatter.global_correlation:.3f}",
        f"  min rating at >300 Kbps: {scatter.min_rating_above_300k}",
        f"  mean per-user correlation ({scatter.per_user_count} users): "
        f"{scatter.mean_per_user_correlation:.3f}",
    ]
    return FigureResult(
        figure_id="fig28",
        title="Quality Rating vs. Network Bandwidth",
        series={"rating_vs_kbps": scatter.points},
        headline={
            "global_correlation": scatter.global_correlation,
            "min_rating_above_300k": float(scatter.min_rating_above_300k),
            "mean_per_user_correlation": scatter.mean_per_user_correlation,
        },
        text="\n".join(lines),
    )


# -- the table --------------------------------------------------------------

FIGURES: tuple[Figure, ...] = (
    # A ~13 s buffering phase with data but no frames, then playout at
    # a frame rate steadier than the arrival bandwidth.
    Figure("fig01", "Buffering and Playout of a RealVideo Clip", _buffering),
    # 11 servers in 8 countries; ~63 users from 12 countries.
    Figure(
        "fig03_04", "Geographic Representation of RealServers and Users",
        _geography,
    ),
    # Half the users played 40+ of the 98 clips.
    _distribution(
        "fig05", "CDF of Video Clips Played per User",
        (5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 98.0), "clips",
        lambda ctx: _one("clips played", ctx.source.clips_per_user()),
        _clips_per_user, empty="no records",
    ),
    # Half the users rated about 3 clips; some none, some many.
    _distribution(
        "fig06", "CDF of Video Clips Rated per User",
        (0.0, 1.0, 3.0, 5.0, 10.0, 20.0, 35.0), "rated",
        lambda ctx: {"clips rated": ctx.source.rated_per_user()},
        _stats(median_rated_per_user=_median, fraction_none=_at_zero,
               max_rated=_maximum),
    ),
    # 12 countries, the US dominant (~74% of plays).
    _tally(
        "fig07", "Video Clips Played by Users from Each Country",
        lambda ctx: ctx.source.plays_by_country(),
        lambda counts, total: {
            "countries": float(len(counts)),
            "us_share": _share(counts, total, "US"),
            "total_plays": float(total),
        },
    ),
    # 8 server countries; the US serves ~37% of clips, the UK next.
    _tally(
        "fig08", "Video Clips Served by RealServers from Each Country",
        lambda ctx: ctx.source.served_by_country(),
        lambda counts, total: {
            "countries": float(len(counts)),
            "us_share": _share(counts, total, "US"),
            "uk_share": _share(counts, total, "UK"),
        },
    ),
    # 17 states, Massachusetts dominant (~half of US plays).
    _tally(
        "fig09", "Video Clips Played by U.S. Users from Each State",
        lambda ctx: ctx.source.us_plays_by_state(),
        lambda counts, total: {
            "states": float(len(counts)),
            "ma_share": _share(counts, total, "MA"),
        },
    ),
    # ~10% of requests find the clip unavailable.
    Figure("fig10", "Fraction of Unavailable Clips", _availability),
    # Mean ~10 fps; ~25% under 3 fps; ~25% at 15+; <1% at 24+.
    _distribution(
        "fig11", "CDF of Frame Rate for all Video Clips", FPS_GRID, "fps",
        _overall("frame_rate_fps"),
        _stats(mean_fps=_mean, fraction_below_3fps=_below_3fps,
               fraction_at_least_15fps=_at_least_15fps,
               fraction_at_least_24fps=_at_least(24.0)),
        empty="no played clips",
    ),
    # Modems far worse (over half under 3 fps); DSL/Cable ~ T1/LAN: the
    # bottleneck has moved past the access link.
    _distribution(
        "fig12",
        "CDF of Frame Rate for Different End-Host Network Configurations",
        FPS_GRID, "fps", _by("frame_rate_fps", "connection"),
        _per_group(_connection_key, below_3fps=_below_3fps,
                   at_least_15fps=_at_least_15fps),
    ),
    # DSL/Cable runs near its 256-512 Kbps capacity <10% of the time.
    _distribution(
        "fig13",
        "CDF of Bandwidth for Different End-Host Network Configurations",
        BANDWIDTH_KBPS_GRID, "kbps", _by("bandwidth_kbps", "connection"),
        _bandwidth_by_connection,
    ),
    # Server regions alike (means ~8-13 fps), Asia worst: server
    # geography matters little.
    _distribution(
        "fig14",
        "CDF of Frame Rate for RealServers in Different Geographic Regions",
        FPS_GRID, "fps", _by("frame_rate_fps", "server_region"),
        _fps_by_server_region, empty="no played clips",
    ),
    # User regions differ: Australia/NZ worst (75% under 3 fps), Europe
    # best, North America slightly better than Asia.
    _distribution(
        "fig15", "CDF of Frame Rate for Users in Different Geographic Regions",
        FPS_GRID, "fps", _by("frame_rate_fps", "user_region"),
        _per_group(_region_key, below_3fps=_below_3fps,
                   at_least_15fps=_at_least_15fps),
    ),
    # Over half the flows use UDP (~56%), a surprising 44% TCP.
    Figure(
        "fig16", "Fraction of Transport Protocols Observed", _protocol_share
    ),
    # Nearly identical frame rates (TCP 28% vs UDP 22% under 3 fps).
    _protocol_pair(
        "fig17", "CDF of Frame Rate for Transport Protocols",
        "frame_rate_fps", FPS_GRID, "fps",
        lambda tcp, udp, ctx: {
            "tcp_below_3fps": tcp.fraction_below(3.0),
            "udp_below_3fps": udp.fraction_below(3.0),
            "tcp_mean_fps": tcp.mean,
            "udp_mean_fps": udp.mean,
            "mean_gap": abs(tcp.mean - udp.mean),
        },
        empty="no played clips with a negotiated protocol",
    ),
    # Comparable bandwidth, UDP slightly above TCP over most of the
    # range: responsive, but perhaps not strictly TCP-friendly.
    _protocol_pair(
        "fig18", "CDF of Bandwidth for Transport Protocols",
        "bandwidth_kbps", BANDWIDTH_KBPS_GRID, "kbps",
        lambda tcp, udp, ctx: _friendliness(ctx.source.protocol_report()),
        empty="no played clips with a negotiated protocol",
    ),
    # Only the oldest PCs are a bottleneck (above 3 fps only 10-20% of
    # the time); the other classes are mixed and unordered.
    _distribution(
        "fig19", "CDF of Frame Rate for Classes of User PCs",
        FPS_GRID, "fps", _by("frame_rate_fps", "pc_class"), _fps_by_pc,
    ),
    # Just over half the clips play with imperceptible jitter (<= 50
    # ms), only ~15% with unacceptable jitter (>= 300 ms).
    _distribution(
        "fig20", "CDF of Overall Jitter", JITTER_MS_GRID, "ms",
        _overall("jitter_ms"),
        _stats(fraction_imperceptible=_imperceptible,
               fraction_unacceptable=_unacceptable,
               median_jitter_ms=_median),
        empty="no jitter samples",
    ),
    # Modem jitter far worse; DSL/Cable ~ T1/LAN at 50 ms, DSL slightly
    # better at 300 ms (corporate LANs contend).
    _distribution(
        "fig21", "CDF of Jitter for Different Network Configurations",
        JITTER_MS_GRID, "ms", _by("jitter_ms", "connection"),
        _per_group(_connection_key, imperceptible=_imperceptible,
                   unacceptable=_unacceptable),
    ),
    # Asian servers serve the most jitter (~45% imperceptible vs ~55%).
    _distribution(
        "fig22",
        "CDF of Jitter for RealServers in Different Geographic Regions",
        JITTER_MS_GRID, "ms", _by("jitter_ms", "server_region"),
        _jitter_by_server_region,
    ),
    # Australia/NZ worst, Asia next, Europe ~ North America.
    _distribution(
        "fig23", "CDF of Jitter for Users in Different Geographic Regions",
        JITTER_MS_GRID, "ms", _by("jitter_ms", "user_region"),
        _per_group(_region_key, imperceptible=_imperceptible),
    ),
    # Both protocols play out equally smoothly.
    _protocol_pair(
        "fig24", "CDF of Jitter for Transport Protocols",
        "jitter_ms", JITTER_MS_GRID, "ms",
        lambda tcp, udp, ctx: {
            "tcp_imperceptible": tcp.at(50.0),
            "udp_imperceptible": udp.at(50.0),
            "imperceptible_gap": abs(tcp.at(50.0) - udp.at(50.0)),
        },
        empty="no jitter samples with a negotiated protocol",
    ),
    # Low-bandwidth plays jitter-free ~10% of the time, high-bandwidth
    # ones ~80% (~95% acceptable).
    _distribution(
        "fig25", "CDF of Jitter for Observed Bandwidth", JITTER_MS_GRID,
        "ms", _bandwidth_bins, _jitter_by_bandwidth,
    ),
    # Mean ~5, very uniform: users normalize their ratings.
    _distribution(
        "fig26", "CDF of Overall Quality", RATING_GRID, "rating",
        _overall("rating", "ratings"),
        _stats(mean_rating=_mean, median_rating=_median,
               uniformity_deviation=_uniformity_deviation,
               rated_count=lambda cdf: float(len(cdf))),
        empty="no rated clips",
    ),
    # Modem clips rated about half as good as DSL/Cable; DSL/Cable
    # slightly above T1/LAN (jitter separates them).
    _distribution(
        "fig27",
        "CDF of Quality for Different End-Host Network Configurations",
        RATING_GRID, "rating", _by("rating", "connection"),
        _rating_by_connection,
    ),
    # No strong correlation, a slight upward trend, no low ratings at
    # high bandwidth.
    Figure(
        "fig28", "Quality Rating vs. Network Bandwidth", _rating_vs_bandwidth
    ),
    # Extension: DASH trades frame-rate loss for rebuffering stalls
    # (n=0 for studies without the ABR stack).
    _distribution(
        "fig29", "CDF of ABR Stall Time", STALL_SECONDS_GRID, "s",
        _overall("stall_seconds", "all ABR clips"), _abr_stalls,
        empty="no ABR playbacks",
    ),
    # Extension: how often the buffer-based controller switched rungs.
    _distribution(
        "fig30", "CDF of ABR Quality Switches", SWITCH_COUNT_GRID,
        "switches", _overall("switch_count", "all ABR clips"),
        _stats(fraction_no_switch=_at_zero, median_switches=_median,
               fraction_many_switches=_at_least(8.0)),
        empty="no ABR playbacks",
    ),
    # Extension: where on the ladder playbacks spent their time (rung 0
    # is DASH's thinned 10 fps stream).
    _distribution(
        "fig31", "CDF of Mean ABR Ladder Level", ABR_LEVEL_GRID, "level",
        _overall("mean_level", "all ABR clips"),
        _stats(fraction_pinned_lowest=_at_zero, median_mean_level=_median,
               fraction_top_half=_at_least(2.0)),
        empty="no ABR playbacks",
    ),
)
