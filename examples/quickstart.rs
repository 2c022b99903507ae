//! Quickstart: build a cluster instance with a reservation, schedule it with
//! LSRC, validate the result, and print the Gantt chart and the theoretical
//! guarantees that apply.
//!
//! Run with: `cargo run --example quickstart`

use resa_repro::prelude::*;

fn main() {
    // An 8-processor cluster. Three applications are queued, and a user holds
    // an advance reservation of 6 processors during [20, 30) — for instance a
    // demo scheduled at a fixed meeting time (§1.2 of the paper).
    let instance = ResaInstanceBuilder::new(8)
        .job(4, 12u64) // a 4-wide solver running 12 time units
        .job(2, 18u64) // a long 2-wide analysis
        .job(8, 5u64) //  a full-machine batch job
        .job(3, 7u64) //  a medium job
        .reservation(6, 10u64, 20u64)
        .build()
        .expect("the instance is well-formed");

    println!("Cluster: {} machines", instance.machines());
    println!(
        "Jobs: {}   reservations: {}   total work: {}",
        instance.n_jobs(),
        instance.n_reservations(),
        instance.total_work()
    );

    // Which α-restriction does this instance satisfy?
    match instance.max_alpha() {
        Some(alpha) => {
            println!("α-restricted for α ≤ {alpha} (jobs ≤ α·m, reservations ≤ (1−α)·m)")
        }
        None => println!("no α ∈ (0,1] makes this instance α-restricted"),
    }

    // Schedule with LSRC — the list-scheduling algorithm analysed by the paper.
    let scheduler = Lsrc::new();
    let schedule = scheduler.schedule(&instance);
    assert!(
        schedule.is_valid(&instance),
        "LSRC always returns feasible schedules"
    );

    let cmax = schedule.makespan(&instance);
    let lb = lower_bound(&instance).expect("finite lower bound");
    println!("\nLSRC makespan: {cmax}   certified lower bound on OPT: {lb}");
    println!(
        "⇒ LSRC is within a factor {:.3} of the optimum on this instance",
        cmax.ticks() as f64 / lb.ticks() as f64
    );

    // The guarantee that applies: with reservations bounded by (1−α)m the
    // paper's Proposition 3 gives 2/α; without reservations Graham's 2 − 1/m.
    let m = instance.machines();
    if let Some(bound) = (PROPOSITION_3.bound)((m, m, instance.max_alpha())) {
        println!(
            "Worst-case guarantee from the paper (Proposition 3): 2/α = {:.3}",
            bound.as_f64()
        );
    }

    println!("\nGantt chart (#: reservation, digits: jobs):");
    println!("{}", render_gantt(&instance, &schedule, 1));

    // Compare against the other policies of §2.2.
    println!("Algorithm comparison on this instance:");
    for s in resa_algos::all_schedulers() {
        println!("  {:<28} C_max = {}", s.name(), s.makespan(&instance));
    }
}
