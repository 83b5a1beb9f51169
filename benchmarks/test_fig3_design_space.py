"""Bench: Figure 3 — the power/bandwidth design space as time series.

Reproduces the conceptual figure with real simulation: a staged traffic
ramp on the hot board pair, probed per quarter-window for each of the four
configurations.  The shape assertions encode the paper's panels:
NP-NB flat at P_high; P-NB tracks the ramp; NP-B adds wavelengths at full
power; P-B adds wavelengths *and* scales.
"""

from repro.experiments import render_fig3, run_fig3


def test_fig3_design_space(benchmark, save_result):
    results = benchmark.pedantic(
        lambda: run_fig3(boards=4, nodes_per_board=4, horizon=26000,
                         sample_period=1000),
        rounds=1,
        iterations=1,
    )
    save_result("fig3_design_space", render_fig3(results))
    # Panel (a): non-power-aware corners never leave P_high.
    for corner in ("NP-NB", "NP-B"):
        assert all(s.level_name == "P_high" for s in results[corner].samples)
    # Panel (b): power-aware corners visit lower levels during low traffic.
    for corner in ("P-NB", "P-B"):
        assert any(s.level_name == "P_low" for s in results[corner].samples)
    # Panel (c)/(d): only the bandwidth-reconfigured corners add channels.
    assert max(results["NP-B"].pair_channels) > 1
    assert max(results["P-B"].pair_channels) > 1
    assert max(results["NP-NB"].pair_channels) == 1
    assert max(results["P-NB"].pair_channels) == 1
    # P-B's hot channel consumes less on average than NP-B's (same ramp).
    # (P-NB vs NP-NB is not asserted on sampled instantaneous power: both
    # pin the saturated hot channel at P_high during the high phase, so
    # their difference is within sampling noise — the level-occupancy
    # assertions above capture the real distinction.)
    avg = {
        k: sum(s.power_mw for s in v.samples) / len(v.samples)
        for k, v in results.items()
    }
    assert avg["P-B"] < avg["NP-B"]
