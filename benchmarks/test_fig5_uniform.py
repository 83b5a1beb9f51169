"""Bench: Figure 5 (left) — uniform traffic, 64 nodes, all four configs.

Paper shapes asserted:
* NP-NB ≈ NP-B throughput/latency (no under-utilized links to move, no
  reconfiguration penalty);
* P-NB throughput within ~3 % of NP-NB, P-B within ~8 %;
* P-NB and P-B consume less power than NP-NB; P-B saves the most
  (25–50 % across the sweep).
"""

from panel_common import run_panel, save_panel, shapes


def test_fig5_uniform(benchmark, save_result, results_dir):
    panel = benchmark.pedantic(
        lambda: run_panel("uniform"), rounds=1, iterations=1
    )
    save_panel(panel, "fig5_uniform", save_result, results_dir)
    s = shapes(panel)

    # NP-B == NP-NB: below saturation no grants fire and the curves match.
    # (At 0.9 N_c stochastic queue bursts can cross B_max and trigger a few
    # benign transient grants; the parity assertions below still hold.)
    for run, load in zip(panel.results["NP-B"], panel.spec.loads):
        if load <= 0.7:
            assert run.extra["grants"] == 0, load
    assert s["NP-B"]["peak"] >= 0.98 * s["NP-NB"]["peak"]
    assert abs(s["NP-B"]["power"] - s["NP-NB"]["power"]) < 0.02 * s["NP-NB"]["power"]

    # Power-aware corners: small throughput cost ...
    assert s["P-NB"]["peak"] >= 0.97 * s["NP-NB"]["peak"]
    assert s["P-B"]["peak"] >= 0.92 * s["NP-NB"]["peak"]
    # ... and real power savings, P-B the strongest.
    assert s["P-NB"]["power"] < 0.97 * s["NP-NB"]["power"]
    assert s["P-B"]["power"] < 0.80 * s["NP-NB"]["power"]
    assert s["P-B"]["power"] < s["P-NB"]["power"]
