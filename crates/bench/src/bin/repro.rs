//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--objects N] [--queries N] [--seed S] [--json] <experiment>...
//!
//! experiments:
//!   trace-stats   §4.1 relationship census of the Radial trace
//!   table1        Table 1: cache efficiency of AC vs PC across cache sizes
//!   figure5       Figure 5: response time of ACR/ACNR/PC/NC across cache sizes
//!   figure6       Figure 6: response time of the three active schemes
//!   compaction    §3.2 region-containment compaction ablation
//!   replacement   extension: replacement-policy ablation at 1/6 cache size
//!   coverage      extension: overlap coverage-threshold ablation
//!   checktime     §4.2 cache-checking time, array vs R-tree
//!   torture       extension: seeded whole-stack torture runs — origin
//!                 outage, packet loss/delay, an asymmetric partition,
//!                 slab I/O faults and corruption, and a mid-trace
//!                 kill/revive, with soundness/staleness/availability/
//!                 durability oracles. Replays the committed seed corpus;
//!                 with an explicit --seed N, replays exactly that seed
//!                 (byte-deterministically) and prints its event log.
//!                 Exits 1, naming the seed, if any run breaks soundness
//!                 or the staleness bound, answers below the
//!                 availability floor, or restarts cold
//!   adaptive      extension: adaptive scheme selection vs every static
//!                 scheme under cost-aware replacement, on the standard
//!                 and a Zipf-skewed trace, every answer checked against
//!                 a no-cache oracle (`--adaptive` is an alias)
//!   all           everything above
//! ```

use fp_bench::{Experiment, Scale, AVAILABILITY_FLOOR, SEED_CORPUS};

/// Every experiment name `repro` accepts.
const EXPERIMENTS: [&str; 11] = [
    "trace-stats",
    "table1",
    "figure5",
    "figure6",
    "compaction",
    "replacement",
    "coverage",
    "checktime",
    "torture",
    "adaptive",
    "all",
];

fn main() {
    let mut scale = Scale::default();
    let mut seed_set = false;
    let mut json = false;
    let mut experiments: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--objects" => scale.objects = parse_num(args.next(), "--objects"),
            "--queries" => scale.queries = parse_num(args.next(), "--queries"),
            "--seed" => {
                scale.seed = parse_num(args.next(), "--seed") as u64;
                seed_set = true;
            }
            "--json" => json = true,
            "--adaptive" => experiments.push("adaptive".to_string()),
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option `{other}`");
                print_usage();
                std::process::exit(2);
            }
            exp if EXPERIMENTS.contains(&exp) => experiments.push(exp.to_string()),
            unknown => {
                eprintln!("unknown experiment `{unknown}`");
                print_usage();
                std::process::exit(2);
            }
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    let all = experiments.iter().any(|e| e == "all");

    eprintln!(
        "# preparing experiment: {} catalog objects, {} trace queries, seed {}",
        scale.objects, scale.queries, scale.seed
    );
    let exp = Experiment::prepare(scale);
    eprintln!(
        "# total result size of the trace: {:.1} MB ({} bytes)",
        exp.total_result_bytes as f64 / 1e6,
        exp.total_result_bytes
    );

    let want = |name: &str| all || experiments.iter().any(|e| e == name);

    if want("trace-stats") {
        let mix = exp.trace_stats();
        if json {
            println!("{}", serde_json::to_string(&mix).expect("serializes"));
        } else {
            println!("\nSection 4.1 trace census (paper: 17% exact, 34% contained, ~9% overlap)");
            println!("  {mix}");
            println!(
                "  completely answerable from cache: {:.1}% (paper: ~51%)",
                mix.fully_answerable() * 100.0
            );
        }
    }
    if want("table1") {
        let t = exp.table1();
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
    }
    if want("figure5") {
        let t = exp.figure5();
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
    }
    if want("figure6") {
        let t = exp.figure6();
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
    }
    if want("compaction") {
        let t = exp.compaction();
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
    }
    if want("replacement") {
        let t = exp.replacement();
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
    }
    if want("coverage") {
        let t = exp.coverage();
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
    }
    if want("checktime") {
        let t = exp.checktime();
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
    }
    if want("torture") {
        // An explicit --seed narrows the run to exactly that seed (the
        // byte-deterministic replay path); otherwise the committed
        // regression corpus runs.
        let t = if seed_set {
            let run = exp.torture(scale.seed);
            if !json {
                println!("\n# torture event log, seed {}", scale.seed);
                for line in &run.events {
                    println!("{line}");
                }
            }
            fp_bench::TortureBench {
                rows: vec![run.row],
            }
        } else {
            exp.torture_corpus(&SEED_CORPUS)
        };
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
        // Persist availability, soundness, repair, and recovery axes
        // per seed for run-over-run comparison.
        let path = "BENCH_torture.json";
        match std::fs::write(path, serde_json::to_string(&t).expect("serializes")) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
        let broken: Vec<u64> = t
            .rows
            .iter()
            .filter(|r| {
                r.soundness_violations > 0
                    || r.staleness_violations > 0
                    || r.availability < AVAILABILITY_FLOOR
                    || !r.restart_served_from_cache
            })
            .map(|r| r.seed)
            .collect();
        if !broken.is_empty() {
            for seed in &broken {
                eprintln!(
                    "torture regression at seed {seed}: add it to SEED_CORPUS in \
                     crates/bench/src/torture.rs and fix before merging"
                );
            }
            std::process::exit(1);
        }
    }
    if want("adaptive") {
        let t = exp.adaptive();
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
        // Persist the adaptive-vs-static axes (hit rate, origin time,
        // soundness verdicts) for run-over-run comparison.
        let path = "BENCH_adaptive.json";
        match std::fs::write(path, serde_json::to_string(&t).expect("serializes")) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    }
}

fn print_block(json: bool, table: &dyn std::fmt::Display, json_text: &str) {
    if json {
        println!("{json_text}");
    } else {
        println!("\n{table}");
    }
}

fn parse_num(v: Option<String>, flag: &str) -> usize {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} requires a number");
        std::process::exit(2);
    })
}

fn print_usage() {
    eprintln!(
        "usage: repro [--objects N] [--queries N] [--seed S] [--json] [--adaptive] [{}]...",
        EXPERIMENTS.join("|")
    );
}
