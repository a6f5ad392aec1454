"""Walk through the paper's FPGA design story (Sec. V / VI-B4..7).

Shows, for the (512, 3, 3) BoTNet MHSA and the proposed (64, 6, 6) MHSA:
  1. why floating point does not fit (Table I),
  2. how the shared Q/K/V weight buffer fixes BRAM (Table II),
  3. what loop unrolling buys per pipeline stage (Table III),
  4. the deployed builds' utilisation (Table VII),
  5. end-to-end latency vs the PS software baseline (Table IX),
  6. power and energy efficiency (Sec. VI-B7).

Run:  python examples/fpga_accelerator.py
"""

import numpy as np

from repro.experiments import (
    FIXED_DEFAULT,
    FLOAT32,
    botnet_mhsa_design,
    botnet_mhsa_module,
    format_table,
    power_summary,
    proposed_mhsa_design,
    table1_fixed_vs_float,
    table2_buffer_management,
    table3_parallelization,
    table7_resource_utilization,
    table9_execution_time,
)
from repro.fpga import MHSAAccelerator
from repro.models import build_model
from repro.runtime import InferenceSession


def resource_rows(rows):
    return [
        [
            r["config"],
            f"{r['bram']} ({r['bram_util']:.0%})",
            r["dsp"],
            r["ff"],
            r["lut"],
            "yes" if r["fits"] else "NO",
            r["paper_bram"],
        ]
        for r in rows
    ]


def main():
    print("=== Table I: floating point vs fixed point (naive buffers) ===")
    print(format_table(
        ["config", "BRAM", "DSP", "FF", "LUT", "fits", "paper BRAM"],
        resource_rows(table1_fixed_vs_float()),
    ))

    print("\n=== Table II: buffer management (shared W buffer) ===")
    print(format_table(
        ["config", "BRAM", "DSP", "FF", "LUT", "fits", "paper BRAM"],
        resource_rows(table2_buffer_management()),
    ))

    print("\n=== Table III: parallelizing the MHSA bottleneck ===")
    rows = [
        [
            r["stage"], r["orig_cycles"], r["par_cycles"],
            f"{r['orig_cycles'] / max(r['par_cycles'], 1):.1f}x",
            r["paper_orig"] or "-", r["paper_par"] or "-",
        ]
        for r in table3_parallelization()
    ]
    print(format_table(
        ["stage", "orig cycles", "parallel cycles", "speedup",
         "paper orig", "paper par"],
        rows,
    ))

    print("\n=== Table VII: deployed accelerator builds ===")
    print(format_table(
        ["config", "BRAM", "DSP", "FF", "LUT", "fits", "paper BRAM"],
        resource_rows(table7_resource_utilization()),
    ))

    print("\n=== Table IX: execution time (512ch MHSA block) ===")
    rows = [
        [
            r["mode"], f"{r['mean_ms']:.2f}", f"{r['max_ms']:.2f}",
            f"{r['std_ms']:.3f}", f"{r['speedup_vs_cpu']:.2f}x",
            r["paper_mean"],
        ]
        for r in table9_execution_time()
    ]
    print(format_table(
        ["mode", "mean ms", "max ms", "std", "speedup", "paper mean"],
        rows,
    ))

    print("\n=== Power & energy (Sec. VI-B7) ===")
    s = power_summary()
    print(f"IP core, fixed point : {s['ip_power_fixed_w']:.3f} W "
          f"(paper {s['paper_ip_fixed']} W)")
    print(f"IP core, float       : {s['ip_power_float_w']:.3f} W "
          f"(paper {s['paper_ip_float']} W)")
    print(f"speedup (fixed)      : {s['speedup_fixed']:.2f}x "
          f"(paper {s['paper_speedup_fixed']}x)")
    print(f"energy efficiency    : {s['energy_efficiency']:.2f}x "
          f"(paper {s['paper_energy_efficiency']}x)")

    print("\n=== The proposed model's own accelerator (64, 6, 6) ===")
    for arith, label in ((FLOAT32, "float"), (FIXED_DEFAULT, "fixed")):
        d = proposed_mhsa_design(arith)
        print(f"{label}: kernel {d.latency_ms():.2f} ms, "
              f"{d.resource_report().row()}")

    print("\n=== Unified predict API over the simulated accelerator ===")
    # the attention block the paper offloads, taken from the registry
    # model exactly as deployment would see it (eval mode)
    mhsa = build_model("ode_botnet", profile="paper", inference=True).mhsa
    acc = MHSAAccelerator(mhsa, proposed_mhsa_design(FIXED_DEFAULT))
    session = InferenceSession(acc)   # same API as any float model
    x = np.random.default_rng(0).normal(
        size=(1, mhsa.channels, mhsa.height, mhsa.width)
    ).astype(np.float32)
    y = session.predict_batch(x)
    snap = session.stats.snapshot()
    print(f"plan={session.plan_kind}: batch {x.shape} -> {y.shape}, "
          f"{snap['batches']} dispatch, p50 {snap['p50_ms']:.2f} ms")

    print("\n=== Execution schedule (512ch fixed, sequential) ===")
    from repro.fpga import execution_trace, format_gantt

    print(format_gantt(execution_trace(botnet_mhsa_design(FIXED_DEFAULT))))


if __name__ == "__main__":
    main()
