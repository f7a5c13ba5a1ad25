//! Regenerates every paper table and figure (§5: Figs 3–7, Table 1),
//! then the design-choice ablations and the §5.1 isolation matrix.
//! Output is deterministic; exits 1 if the isolation matrix fails.
//!
//! Run with: `cargo run --release -p nymix-bench --bin repro`

#![forbid(unsafe_code)]

fn main() {
    println!("== Nymix evaluation reproduction ==\n");

    let fig3 = nymix_bench::fig3_memory(42);
    println!("{}", nymix_bench::fig3_table(&fig3).render());
    let last = fig3.last().expect("samples");
    println!("KSM saving at 8 nyms: {:.1}%\n", last.ksm_saving() * 100.0);

    let fig4 = nymix_bench::fig4_cpu();
    println!("{}", nymix_bench::fig4_table(&fig4).render());
    println!(
        "virtualization overhead: {:.1}%\n",
        (1.0 - fig4[1].actual / fig4[0].actual) * 100.0
    );

    let fig5 = nymix_bench::fig5_download();
    println!("{}", nymix_bench::fig5_table(&fig5).render());

    let fig6 = nymix_bench::fig6_storage(42, 32, 10);
    println!("{}", nymix_bench::fig6_table(&fig6).render());
    let share: f64 = fig6.iter().map(|s| s.anonvm_share).sum::<f64>() / fig6.len() as f64;
    println!("mean AnonVM share: {:.0}%\n", share * 100.0);

    let fig7 = nymix_bench::fig7_startup(42);
    println!("{}", nymix_bench::fig7_table(&fig7).render());

    let t1 = nymix_bench::table1_installed_os();
    println!("{}", nymix_bench::table1_table(&t1).render());

    let (with, without) = nymix_bench::ablation_ksm(42, 6);
    println!("# Ablation: KSM (6 nymboxes)");
    println!("used memory with KSM:    {with:.0} MiB");
    println!("used memory without KSM: {without:.0} MiB");
    println!("saving: {:.1}%\n", (1.0 - with / without) * 100.0);

    let (sealed, raw) = nymix_bench::ablation_compression(42);
    println!("# Ablation: archive compression (one Facebook session)");
    println!("raw payload:    {raw} bytes");
    println!("sealed archive: {sealed} bytes");
    println!("ratio: {:.2}\n", sealed as f64 / raw as f64);

    println!("# Ablation: anonymizer choice (fresh-nym startup, byte overhead)");
    for (name, startup, overhead) in nymix_bench::ablation_anonymizers(42) {
        println!(
            "{name:>10}: startup {startup:.1}s, byte overhead {:.0}%",
            overhead * 100.0
        );
    }
    println!();

    match nymix::validate_isolation(3) {
        Ok(report) if report.passed() => {
            println!(
                "§5.1 isolation matrix: PASS ({} probes)",
                report.probes.len()
            );
        }
        Ok(report) => {
            println!("§5.1 isolation matrix: FAIL {:?}", report.failures());
            std::process::exit(1);
        }
        Err(e) => {
            println!("§5.1 isolation matrix: error {e}");
            std::process::exit(1);
        }
    }
}
