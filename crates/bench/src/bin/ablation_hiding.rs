//! Ablation: **communication latency hiding on/off** (Section 3.1).
//!
//! With hiding off, every element of a fused iteration waits for the pipe
//! traffic instead of computing the independent group first — the situation
//! the paper's λ (Eq. 11) models.

use stencilcl_bench::runner::{ablation_hiding, write_json, Ablation};
use stencilcl_bench::table::{ratio, Table};

fn main() {
    let mut rows: Vec<Ablation> = Vec::new();
    let mut t = Table::new(vec![
        "Benchmark",
        "Hiding off (cy)",
        "Hiding on (cy)",
        "Benefit",
    ]);
    for spec in stencilcl::suite::all() {
        eprintln!("[ablation_hiding] {} ...", spec.display);
        match ablation_hiding(&spec) {
            Ok(a) => {
                t.row(vec![
                    a.name.clone(),
                    format!("{:.3e}", a.off_cycles),
                    format!("{:.3e}", a.on_cycles),
                    ratio(a.speedup()),
                ]);
                rows.push(a);
            }
            Err(e) => eprintln!("[ablation_hiding] {}: {e}", spec.display),
        }
    }
    println!("Ablation: independent-first scheduling (latency hiding).\n");
    println!("{}", t.render());
    write_json("ablation_hiding.json", &rows);
}
