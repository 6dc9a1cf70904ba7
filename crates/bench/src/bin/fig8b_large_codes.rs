//! **Fig. 8(b)** — erasure-code computation time vs `k` for the larger
//! codes used in simulation (1 KB block): full encode/decode grows with
//! `k`, while the common-case Delta and Add stay approximately constant.

#![expect(clippy::disallowed_methods, reason = "experiments time real work")]

use ajx_bench::{banner, render_table};
use ajx_erasure::ReedSolomon;
use ajx_gf::{kernel, slice};
use std::time::Instant;

const BLOCK: usize = 1024;
const ITERS: usize = 2000;

fn us_per<F: FnMut()>(mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..ITERS {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / ITERS as f64
}

fn main() {
    banner(
        "Fig. 8(b) — computation time vs k for large codes (1 KB block)",
        "with large k full de/encoding becomes significant, but common \
         executions only use Delta and Add, which remain ~constant",
    );
    let mut rows = Vec::new();
    for p in [2usize, 4, 8] {
        for k in [2usize, 4, 6, 8, 10, 12, 14, 16] {
            let n = k + p;
            let rs = ReedSolomon::new(k, n).unwrap();
            let data: Vec<Vec<u8>> = (0..k)
                .map(|i| (0..BLOCK).map(|b| (b * 31 + i) as u8).collect())
                .collect();
            let stripe = rs.encode_stripe(&data).unwrap();
            let newb: Vec<u8> = (0..BLOCK).map(|b| (b * 13) as u8).collect();

            let enc = us_per(|| {
                std::hint::black_box(rs.encode(&data).unwrap());
            });
            let shares: Vec<(usize, &[u8])> = (p..n).map(|i| (i, &stripe[i][..])).collect();
            let dec = us_per(|| {
                std::hint::black_box(rs.decode(&shares).unwrap());
            });
            let delta = us_per(|| {
                std::hint::black_box(rs.delta(0, 0, &newb, &data[0]).unwrap());
            });
            let mut red = stripe[k].clone();
            let d = rs.delta(0, 0, &newb, &data[0]).unwrap();
            let add = us_per(|| slice::add_assign(&mut red, std::hint::black_box(&d)));

            rows.push(vec![
                format!("{k}"),
                format!("{p}"),
                format!("{enc:.1}"),
                format!("{dec:.1}"),
                format!("{:.2}", delta + add),
            ]);
        }
    }
    print!(
        "{}",
        render_table(
            &["k", "n-k", "full encode (us)", "full decode (us)", "Delta+Add (us)"],
            &rows
        )
    );
    println!("\nSeries to plot: encode time vs k for each n-k; Delta+Add is the flat line.");

    // The encode column above uses the dispatched kernel; show how the
    // heaviest point (k = 16, n - k = 8) moves across the kernel tiers.
    let (k, p) = (16usize, 8usize);
    let rs = ReedSolomon::new(k, k + p).unwrap();
    let data: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..BLOCK).map(|b| (b * 31 + i) as u8).collect())
        .collect();
    let mut krows = Vec::new();
    for backend in kernel::available_backends() {
        let mut out: Vec<Vec<u8>> = vec![vec![0u8; BLOCK]; p];
        let enc = us_per(|| {
            for (row, o) in out.iter_mut().enumerate() {
                o.fill(0);
                for (i, d) in data.iter().enumerate() {
                    kernel::mul_add_assign_with(backend, o, rs.coefficient(row, i).as_byte(), d);
                }
            }
            std::hint::black_box(&out);
        });
        let active = if backend == kernel::active_backend() { " (active)" } else { "" };
        krows.push(vec![format!("{}{active}", backend.name()), format!("{enc:.1}")]);
    }
    println!("\nGF(2^8) kernel tiers (full encode, k=16, n-k=8, 1 KB block):");
    print!("{}", render_table(&["backend", "full encode (us)"], &krows));
}
