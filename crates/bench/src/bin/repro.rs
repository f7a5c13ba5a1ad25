//! Runs every table and figure reproduction in sequence — the one-shot
//! harness over the individual `fig*`/`table*` binaries.

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
