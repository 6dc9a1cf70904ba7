//! **Extension of Fig. 1** — the throughput consequences of the message
//! patterns: random single-block writes and reads under load, AJX vs FAB
//! vs GWGR, as the code grows more efficient (fixed p = 2, growing k).
//!
//! The paper argues qualitatively that "[FAB and GWGR] perform poorly for
//! random I/O, especially with highly-efficient erasure codes that have
//! large k and n, and small p"; this experiment runs the three message
//! patterns through the same simulator and measures by how much.

use ajx_baselines::{run_baseline, Protocol};
use ajx_bench::{banner, render_table};
use ajx_sim::{SimConfig, SimWorkload};

fn goodput(proto: Protocol, k: usize, n: usize, workload: SimWorkload) -> f64 {
    let cfg = SimConfig {
        workload,
        ops_per_thread: 30,
        seed: 0xFAB,
        ..SimConfig::new(k, n, 8)
    };
    run_baseline(proto, &cfg).aggregate_mbps
}

fn main() {
    banner(
        "Extension of Fig. 1 — random-I/O goodput under load, AJX vs FAB vs GWGR",
        "every write contacts all n nodes in FAB/GWGR, so their goodput \
         collapses as k grows at fixed p; AJX stays flat",
    );
    let codes = [(2usize, 4usize), (4, 6), (8, 10), (12, 14), (16, 18)];

    println!("\nrandom single-block WRITES (8 clients, p = 2):");
    let rows: Vec<Vec<String>> = codes
        .iter()
        .map(|&(k, n)| {
            let ajx = goodput(Protocol::AjxPar, k, n, SimWorkload::Write);
            let fab = goodput(Protocol::Fab, k, n, SimWorkload::Write);
            let gwgr = goodput(Protocol::Gwgr, k, n, SimWorkload::Write);
            vec![
                format!("{k}-of-{n}"),
                format!("{ajx:.1}"),
                format!("{fab:.1}"),
                format!("{gwgr:.1}"),
                format!("{:.1}x", ajx / fab.max(1e-9)),
                format!("{:.1}x", ajx / gwgr.max(1e-9)),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["code", "AJX MB/s", "FAB MB/s", "GWGR MB/s", "AJX/FAB", "AJX/GWGR"],
            &rows
        )
    );

    println!("\nrandom single-block READS (8 clients):");
    let rows: Vec<Vec<String>> = codes
        .iter()
        .map(|&(k, n)| {
            let ajx = goodput(Protocol::AjxPar, k, n, SimWorkload::Read);
            let fab = goodput(Protocol::Fab, k, n, SimWorkload::Read);
            let gwgr = goodput(Protocol::Gwgr, k, n, SimWorkload::Read);
            vec![
                format!("{k}-of-{n}"),
                format!("{ajx:.1}"),
                format!("{fab:.1}"),
                format!("{gwgr:.1}"),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["code", "AJX MB/s", "FAB MB/s", "GWGR MB/s"], &rows)
    );
    println!(
        "\n(goodput = user-visible payload; FAB/GWGR internally move far more. \
         Deterministic DES, shared timing model.)"
    );
}
