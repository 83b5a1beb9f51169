"""Unit + property tests for policies, config, and the pure DPM/DBR logic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    ControlParams,
    DestDemand,
    DpmAction,
    ERapidConfig,
    LinkWindowStats,
    NP_B,
    NP_NB,
    P_B,
    P_NB,
    ReconfigPolicy,
    RouterParams,
    Thresholds,
    WavelengthState,
    classify,
    dbr_plan,
    dpm_decide,
    make_policy,
)
from repro.errors import ConfigurationError
from repro.network.topology import ERapidTopology
from repro.optics.rwa import StaticRWA


# ----------------------------------------------------------------------
# Policies / thresholds
# ----------------------------------------------------------------------

def test_four_paper_configurations():
    assert not NP_NB.dpm and not NP_NB.dbr
    assert P_NB.dpm and not P_NB.dbr
    assert not NP_B.dpm and NP_B.dbr
    assert P_B.dpm and P_B.dbr
    assert P_B.thresholds.l_min == 0.7 and P_B.thresholds.l_max == 0.9
    assert P_B.thresholds.b_max == 0.3
    assert P_NB.thresholds.b_max == 0.0 and P_NB.thresholds.l_max == 0.7


def test_make_policy():
    assert make_policy("P-B") is P_B
    with pytest.raises(ConfigurationError):
        make_policy("QP-B")


def test_threshold_validation():
    with pytest.raises(ConfigurationError):
        Thresholds(l_min=0.9, l_max=0.7)
    with pytest.raises(ConfigurationError):
        Thresholds(b_min=0.5, b_max=0.3)
    with pytest.raises(ConfigurationError):
        Thresholds(l_min=-0.1)
    with pytest.raises(ConfigurationError):
        ReconfigPolicy("x", dpm=True, dbr=True, max_grants_per_dest=-1)


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------

def test_router_params_table1():
    r = RouterParams()
    assert r.port_gbps == pytest.approx(6.4)
    assert r.flits_per_packet == 8
    assert r.packet_serialization_cycles == 32
    assert r.pipeline_cycles == 4


def test_control_params_latencies():
    c = ControlParams()
    assert c.window_cycles == 2000
    assert c.power_cycle_latency(8) == 9 * 4
    stages = c.dbr_stage_latencies(8, 8)
    assert stages["link_request"] == 36
    assert stages["board_request"] == 128
    assert c.dbr_cycle_latency(8, 8) == 36 + 128 + 1 + 128 + 36


def test_config_with_policy_and_describe():
    cfg = ERapidConfig()
    cfg2 = cfg.with_policy(P_B)
    assert cfg.policy is NP_NB and cfg2.policy is P_B
    assert "P-B" in cfg2.describe()


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ERapidConfig(tx_queue_capacity=0)
    with pytest.raises(ConfigurationError):
        ERapidConfig(wake_cycles=-1)
    with pytest.raises(ConfigurationError):
        RouterParams(channel_bits=0)
    with pytest.raises(ConfigurationError):
        ControlParams(window_cycles=0)


@pytest.mark.parametrize("field,value", [
    ("credit_cycles", 0), ("credit_cycles", -1), ("n_vcs", 0), ("buf_depth", 0),
])
def test_router_params_refuse_what_the_clocked_router_cannot_run(field, value):
    """A negative credit latency used to pass, get a cache key and queue
    credit returns in the past; the router needs >= 1 of each."""
    with pytest.raises(ConfigurationError, match=field):
        RouterParams(**{field: value})


# ----------------------------------------------------------------------
# DPM decision rule (§3.1)
# ----------------------------------------------------------------------

TH = P_B.thresholds  # l_min=0.7 l_max=0.9 b_max=0.3


def _stats(link, buf, empty=False):
    return LinkWindowStats(link_util=link, buffer_util=buf, queue_empty=empty)


def test_dpm_sleep_on_fully_idle():
    assert dpm_decide(_stats(0.0, 0.0, empty=True), TH, False, False) is DpmAction.SLEEP


def test_dpm_no_sleep_with_queued_work():
    # Zero link util but packets queued (e.g. the link was stalled): keep it.
    assert dpm_decide(_stats(0.0, 0.2, empty=False), TH, False, False) is DpmAction.DOWN


def test_dpm_scale_down_below_lmin():
    assert dpm_decide(_stats(0.5, 0.0, True), TH, False, False) is DpmAction.DOWN


def test_dpm_hold_at_lowest():
    assert dpm_decide(_stats(0.5, 0.0, True), TH, True, False) is DpmAction.HOLD


def test_dpm_up_requires_buffer_when_bmax_positive():
    """§3.1: 'The bit rate is scaled up only if the link threshold exceeds
    both L_max and B_max.'"""
    assert dpm_decide(_stats(0.95, 0.1, False), TH, False, False) is DpmAction.HOLD
    assert dpm_decide(_stats(0.95, 0.5, False), TH, False, False) is DpmAction.UP


def test_dpm_up_on_link_alone_when_bmax_zero():
    """P-NB's conservative variant: B_max = 0 -> link threshold alone."""
    th = P_NB.thresholds
    assert dpm_decide(_stats(0.8, 0.0, False), th, False, False) is DpmAction.UP


def test_dpm_hold_at_highest():
    assert dpm_decide(_stats(0.95, 0.5, False), TH, False, True) is DpmAction.HOLD


def test_dpm_hold_in_band():
    assert dpm_decide(_stats(0.8, 0.5, False), TH, False, False) is DpmAction.HOLD


@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_dpm_total_function(link, buf, empty, lo, hi):
    """Property: every stats combination yields exactly one legal action,
    and the ladder ends never step past themselves."""
    action = dpm_decide(_stats(link, buf, empty), TH, lo, hi)
    assert action in DpmAction
    if lo:
        assert action is not DpmAction.DOWN
    if hi:
        assert action is not DpmAction.UP


def test_link_stats_validation():
    with pytest.raises(ConfigurationError):
        LinkWindowStats(1.5, 0.0, True)
    with pytest.raises(ConfigurationError):
        LinkWindowStats(0.0, -0.1, True)


# ----------------------------------------------------------------------
# DBR plan (§3.2)
# ----------------------------------------------------------------------

RWA8 = StaticRWA(8)


def test_classify_three_way():
    th = Thresholds(b_min=0.0, b_max=0.3)
    assert classify(0.0, th) == "under"
    assert classify(0.2, th) == "normal"
    assert classify(0.5, th) == "over"


def _wavelengths_static(dest, boards=8, util_of=None, empty_of=None):
    """Static ownership toward ``dest`` with per-owner stats."""
    util_of = util_of or {}
    empty_of = empty_of or {}
    out = []
    rwa = StaticRWA(boards)
    for w in range(boards):
        owner = rwa.default_owner(dest, w)
        if owner == dest:  # λ0 self-loop: dark
            out.append(WavelengthState(w, None, 0.0, True))
        else:
            out.append(
                WavelengthState(
                    w, owner, util_of.get(owner, 0.0), empty_of.get(owner, True)
                )
            )
    return out


def _demands(dest, boards=8, util_of=None, empty_of=None, channels_of=None):
    util_of = util_of or {}
    empty_of = empty_of or {}
    channels_of = channels_of or {}
    return [
        DestDemand(
            s,
            util_of.get(s, 0.0),
            empty_of.get(s, True),
            channels_of.get(s, 1),
        )
        for s in range(boards)
        if s != dest
    ]


def test_dbr_no_plan_when_nobody_needy():
    plan = dbr_plan(0, _wavelengths_static(0), _demands(0), P_B.thresholds, RWA8)
    assert plan == []


def test_dbr_complement_grants_all_idle_channels():
    """Complement toward board 7: only board 0 sends; all other incoming
    wavelengths (and the dark λ0) go to board 0."""
    dest = 7
    util = {0: 0.9}
    empty = {0: False}
    wl = _wavelengths_static(dest, util_of=util, empty_of=empty)
    dm = _demands(dest, util_of=util, empty_of=empty)
    plan = dbr_plan(dest, wl, dm, P_B.thresholds, RWA8)
    # 8 wavelengths: board 0's own stays, the other 7 (6 donors + dark λ0)
    # are granted to board 0.
    assert len(plan) == 7
    assert all(owner == 0 for _, owner in plan)
    granted = {w for w, _ in plan}
    own_w = RWA8.wavelength_for(0, dest)
    assert own_w not in granted


def test_dbr_never_strips_needy_board():
    dest = 0
    util = {1: 0.9, 2: 0.8}
    empty = {1: False, 2: False}
    wl = _wavelengths_static(dest, util_of=util, empty_of=empty)
    dm = _demands(dest, util_of=util, empty_of=empty)
    plan = dbr_plan(dest, wl, dm, P_B.thresholds, RWA8)
    stripped = {RWA8.default_owner(dest, w) for w, _ in plan}
    assert 1 not in stripped and 2 not in stripped


def test_dbr_zero_channel_board_with_traffic_is_needy():
    """A board that donated its last channel but has packets queued gets a
    grant even though its Buffer_util is still low."""
    dest = 0
    wl = _wavelengths_static(dest)
    # Board 3 has queued traffic, zero channels, low util.
    dm = _demands(dest, util_of={3: 0.05}, empty_of={3: False},
                  channels_of={3: 0})
    plan = dbr_plan(dest, wl, dm, P_B.thresholds, RWA8)
    assert any(owner == 3 for _, owner in plan)


def test_dbr_prefers_returning_static_owner():
    """A donor wavelength whose static owner is needy goes back to it."""
    dest = 0
    w3 = RWA8.wavelength_for(3, dest)
    # Board 3's static wavelength currently owned by board 5 (idle);
    # board 3 is congested.
    wl = []
    for ws in _wavelengths_static(dest, util_of={3: 0.9}, empty_of={3: False}):
        if ws.wavelength == w3:
            wl.append(WavelengthState(w3, 5, 0.0, True))
        else:
            wl.append(ws)
    dm = _demands(dest, util_of={3: 0.9}, empty_of={3: False})
    plan = dbr_plan(dest, wl, dm, P_B.thresholds, RWA8)
    assert (w3, 3) in plan


def test_dbr_round_robin_across_needy():
    dest = 0
    util = {1: 0.9, 2: 0.9}
    empty = {1: False, 2: False}
    wl = _wavelengths_static(dest, util_of=util, empty_of=empty)
    dm = _demands(dest, util_of=util, empty_of=empty)
    plan = dbr_plan(dest, wl, dm, P_B.thresholds, RWA8)
    receivers = [owner for _, owner in plan]
    # Both needy boards receive something; donated set split between them.
    assert set(receivers) == {1, 2}
    assert abs(receivers.count(1) - receivers.count(2)) <= 1


def test_dbr_max_grants_cap():
    dest = 7
    util = {0: 0.9}
    empty = {0: False}
    wl = _wavelengths_static(dest, util_of=util, empty_of=empty)
    dm = _demands(dest, util_of=util, empty_of=empty)
    plan = dbr_plan(dest, wl, dm, P_B.thresholds, RWA8, max_grants=2)
    assert len(plan) == 2
    assert dbr_plan(dest, wl, dm, P_B.thresholds, RWA8, max_grants=0) == []


def test_dbr_self_demand_rejected():
    with pytest.raises(ConfigurationError):
        dbr_plan(
            0,
            _wavelengths_static(0),
            [DestDemand(0, 0.5, False, 1)],
            P_B.thresholds,
            RWA8,
        )


@given(st.integers(0, 7), st.data())
def test_dbr_plan_properties(dest, data):
    """Property: plans only grant to boards != dest, never grant a
    wavelength to its current owner, and never exceed W grants."""
    boards = 8
    util_of = {
        s: data.draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
        for s in range(boards) if s != dest
    }
    empty_of = {s: util_of[s] == 0.0 for s in util_of}
    wl = _wavelengths_static(dest, util_of=util_of, empty_of=empty_of)
    dm = _demands(dest, util_of=util_of, empty_of=empty_of)
    plan = dbr_plan(dest, wl, dm, P_B.thresholds, RWA8)
    assert len(plan) <= boards
    owners_before = {ws.wavelength: ws.owner for ws in wl}
    seen = set()
    for w, new_owner in plan:
        assert new_owner != dest
        assert new_owner != owners_before[w]
        assert w not in seen  # each wavelength granted at most once
        seen.add(w)
