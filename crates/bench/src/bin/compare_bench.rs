//! Secure-comparison kernel microbenchmark (scalar vs vectorized
//! kernels). `--quick` for a smoke run.

fn main() {
    let quick = fedroad_bench::quick_mode();
    let report = fedroad_bench::comparebench::run(quick);
    match report.save() {
        Ok(path) => println!("\nrecords written to {}", path.display()),
        Err(e) => eprintln!("could not write records: {e}"),
    }
}
