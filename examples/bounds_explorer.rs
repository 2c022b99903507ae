//! Explore the theoretical landscape of the paper: for a user-supplied α
//! (default 1/2) print every guarantee that applies, the Figure-4 curves
//! around it, and check a concrete instance against them using the exact
//! solver.
//!
//! Run with: `cargo run --example bounds_explorer -- 1 3`  (for α = 1/3)

use resa_repro::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (num, denom) = match (args.get(1), args.get(2)) {
        (Some(n), Some(d)) => (
            n.parse().expect("numerator must be an integer"),
            d.parse().expect("denominator must be an integer"),
        ),
        _ => (1u64, 2u64),
    };
    let alpha = Alpha::new(num, denom).expect("need 0 < num ≤ denom");
    let a = alpha.as_f64();

    println!("=== Guarantees for α = {alpha} ===");
    println!(
        "Upper bound (Proposition 3):        2/α         = {:.3}",
        alpha_upper_bound(a)
    );
    println!(
        "Lower bound B1 (§4.2):                           = {:.3}",
        lower_bound_b1(a)
    );
    println!(
        "Lower bound B2 (§4.2):                           = {:.3}",
        lower_bound_b2(a)
    );
    // Proposition 2's hypothesis: 2/α is an integer.
    if (2 * alpha.denom()).is_multiple_of(alpha.num()) {
        println!(
            "Lower bound (Proposition 2, 2/α ∈ ℕ): 2/α − 1 + α/2 = {:.3}",
            proposition2_lower_bound(a)
        );
    }

    println!("\n=== Figure-4 neighbourhood ===");
    println!("{:>8} {:>10} {:>10} {:>10}", "alpha", "2/a", "B1", "B2");
    for row in figure4_series((a - 0.15).max(0.05), 7) {
        println!(
            "{:>8.3} {:>10.3} {:>10.3} {:>10.3}",
            row.alpha, row.upper_bound, row.b1, row.b2
        );
    }

    // A concrete α-restricted instance, solved exactly, to see where practice
    // lands between 1 and the worst case.
    println!("\n=== A concrete α-restricted instance ===");
    let machines = 12u32;
    let jobs = UniformWorkload {
        machines,
        jobs: 9,
        min_width: 1,
        max_width: alpha.max_job_width(machines).max(1),
        min_duration: 1,
        max_duration: 9,
    }
    .generate(5);
    let instance = AlphaReservations {
        machines,
        alpha,
        count: 2,
        horizon: 30,
        max_duration: 8,
    }
    .instance(jobs, 5);
    assert!(instance.is_alpha_restricted(alpha));

    let exact = ExactSolver::new().solve(&instance);
    println!(
        "m = {machines}, n = {} jobs, {} reservations, OPT = {} ({} search nodes)",
        instance.n_jobs(),
        instance.n_reservations(),
        exact.makespan,
        exact.nodes
    );
    for s in resa_algos::all_schedulers() {
        let cmax = s.makespan(&instance);
        println!(
            "  {:<28} C_max = {:>4}   ratio = {:.3}",
            s.name(),
            cmax.ticks(),
            cmax.ticks() as f64 / exact.makespan.ticks() as f64
        );
    }
    println!(
        "\nEvery measured ratio sits between 1 and the worst-case guarantee 2/α = {:.3}.",
        alpha_upper_bound(a)
    );
}
