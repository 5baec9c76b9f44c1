//! The experiment harness itself is under test: every experiment function
//! must run on the quick scenario and report internally consistent
//! comparisons.

use spoofwatch_bench::{experiments, Scenario};

#[test]
fn all_experiments_run_on_quick_scenario() {
    let s = Scenario::quick(3);
    // The ablation ignores the scenario and sweeps 1 000-AS worlds of its
    // own; the rest run over the quick one.
    for (name, f) in experiments::ALL.into_iter().filter(|(name, _)| *name != "ablation") {
        let comparisons = f(&s);
        assert!(!comparisons.is_empty(), "{name} produced no comparisons");
        for c in &comparisons {
            assert!(!c.quantity.is_empty());
            assert!(!c.measured.is_empty(), "{name}: empty measurement");
        }
        // On the tiny scenario not every calibrated shape target holds —
        // that's what the full scenario asserts — but the structural
        // ones (method orderings, address-plan shares) must.
        if name == "fig1a" || name == "table1" {
            let structural = comparisons
                .iter()
                .filter(|c| c.quantity.contains('<') || c.quantity.contains("share"))
                .count();
            let holding = comparisons
                .iter()
                .filter(|c| (c.quantity.contains('<') || c.quantity.contains("share")) && c.shape_holds)
                .count();
            assert!(
                holding * 2 >= structural,
                "{name}: {holding}/{structural} structural checks hold"
            );
        }
    }
}
