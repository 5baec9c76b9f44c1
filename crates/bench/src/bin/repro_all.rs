//! Run every experiment over one shared scenario and print the combined
//! paper-vs-measured record (the source of EXPERIMENTS.md). Exits with
//! a failure status unless every comparison's shape holds.
use spoofwatch_bench::{experiments, report, Comparison, Scenario};
use std::process::ExitCode;

type Experiment = fn(&Scenario) -> Vec<Comparison>;

fn main() -> ExitCode {
    let s = Scenario::from_env();
    let mut all = Vec::new();
    let runs: Vec<(&str, Experiment)> = vec![
        ("fig1a", experiments::fig1a),
        ("fig2", experiments::fig2),
        ("table1", experiments::table1),
        ("fig4", experiments::fig4),
        ("fig5", experiments::fig5),
        ("fig6", experiments::fig6),
        ("fig7", experiments::fig7),
        ("fig8", experiments::fig8),
        ("fig9", experiments::fig9),
        ("fig10", experiments::fig10),
        ("fig11", experiments::fig11),
        ("fphunt", experiments::fphunt),
        ("spoofer", experiments::spoofer),
        ("survey", experiments::survey),
        ("evaluation", experiments::evaluation),
        ("ablation", experiments::ablation),
    ];
    for (name, f) in runs {
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
