//! Design-choice ablations (core-fraction sweep, TM-tree α, naive+TM-tree,
//! round batching).
//! `--quick` for a smoke run.

fn main() {
    let quick = fedroad_bench::quick_mode();
    let rep = fedroad_bench::experiments::ablations::run(quick);
    match rep.save("ablations") {
        Ok(path) => println!("\nrecords written to {}", path.display()),
        Err(e) => eprintln!("could not write records: {e}"),
    }
}
