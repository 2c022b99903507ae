//! Walk through the paper's three worst-case constructions:
//!
//! 1. the Theorem-1 reduction from 3-PARTITION (why unrestricted reservations
//!    make the problem inapproximable);
//! 2. the Proposition-2 instance (how bad LSRC can get under an
//!    α-restriction);
//! 3. the Graham tightness family (why `2 − 1/m` cannot be improved for
//!    general list scheduling).
//!
//! Run with: `cargo run --example adversarial_analysis`

use resa_repro::prelude::*;

fn main() {
    theorem1_reduction();
    proposition2_instance_walkthrough();
    graham_tightness();
}

fn theorem1_reduction() {
    println!("=== Theorem 1: reduction from 3-PARTITION ===\n");
    // A yes-instance of 3-PARTITION: k = 2 groups, target B = 12.
    let tp = satisfiable_instance(2, 12, 7);
    println!("3-PARTITION items: {:?} (B = {})", tp.items(), tp.target());
    let reduction = three_partition_to_resa(&tp, 2);
    println!(
        "Reduced RESASCHEDULING instance: 1 machine, {} unit-width jobs, {} reservations",
        reduction.instance.n_jobs(),
        reduction.instance.n_reservations()
    );
    let exact = ExactSolver::new().solve(&reduction.instance);
    println!(
        "Optimal makespan: {} (yes-threshold k(B+1)−1 = {})",
        exact.makespan, reduction.yes_makespan
    );
    let partition = extract_partition(&reduction, &exact.schedule)
        .expect("an optimal schedule of a yes-instance is a packing");
    assert!(tp.verify(&partition));
    println!("Recovered 3-PARTITION witness from the schedule: {partition:?}");
    println!(
        "⇒ a polynomial scheduler with any finite ratio would decide 3-PARTITION, which is\n\
         strongly NP-hard: RESASCHEDULING admits no finite-ratio approximation.\n"
    );
}

fn proposition2_instance_walkthrough() {
    println!("=== Proposition 2: the adversarial α-restricted instance (Figure 3) ===\n");
    let k = 6; // α = 1/3, the case drawn in the paper
    let adv = proposition2_instance(k);
    let alpha = proposition2_alpha(k);
    println!("{} — α = {alpha}", adv.description);
    let optimal = proposition2_optimal_schedule(k);
    assert!(optimal.is_valid(&adv.instance));
    let lsrc = Lsrc::new().schedule(&adv.instance);
    println!(
        "Optimal makespan: {}   LSRC (submission order): {}   ratio: {:.3}",
        optimal.makespan(&adv.instance),
        lsrc.makespan(&adv.instance),
        adv.expected_ratio()
    );
    println!(
        "Formula 2/α − 1 + α/2 = {:.3}\n",
        proposition2_lower_bound(alpha.as_f64())
    );
}

fn graham_tightness() {
    println!("=== Theorem 2: Graham's bound 2 − 1/m and its tightness ===\n");
    println!(
        "{:>4} {:>10} {:>10} {:>10} {:>10}",
        "m", "OPT", "LSRC", "ratio", "2 - 1/m"
    );
    for m in [2u32, 4, 8, 16] {
        let adv = graham_tight_instance(m);
        let lsrc = Lsrc::new().schedule(&adv.instance);
        let ratio =
            lsrc.makespan(&adv.instance).ticks() as f64 / adv.optimal_makespan.ticks() as f64;
        println!(
            "{:>4} {:>10} {:>10} {:>10.3} {:>10.3}",
            m,
            adv.optimal_makespan.ticks(),
            lsrc.makespan(&adv.instance).ticks(),
            ratio,
            graham_bound(m)
        );
    }
    println!(
        "\nThe family of m(m−1) unit jobs followed by one length-m job meets the bound exactly,\n\
         so no better guarantee holds for arbitrary list orders."
    );
}
