//! Run every experiment over one shared scenario and print the combined
//! paper-vs-measured record (the source of EXPERIMENTS.md). Exits with
//! a failure status unless every comparison's shape holds.
use spoofwatch_bench::{experiments, report, Scenario};
use std::process::ExitCode;

fn main() -> ExitCode {
    let s = Scenario::from_env();
    let mut all = Vec::new();
    for (name, f) in experiments::ALL {
        println!("\n================ {name} ================");
        let comparisons = f(&s);
        report(name, &comparisons);
        all.extend(comparisons);
    }
    println!("\n================ summary ================");
    report("all", &all);
    let holds = all.iter().filter(|c| c.shape_holds).count();
    println!("shape holds for {holds}/{} comparisons", all.len());
    if holds == all.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
