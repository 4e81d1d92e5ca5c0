//! Micro-benchmark for the synthesis pipeline (Table 4's "Time" column,
//! measured rigorously): full trace → analysis → pairs → contexts →
//! deduplicated suite, per corpus class.

use narada_bench::harness::bench_function;
use narada_core::{synthesize_observed, SynthesisOptions};
use narada_lang::lower::lower_program;
use narada_obs::Obs;

fn bench_synthesis() {
    for entry in narada_corpus::all() {
        let prog = entry.compile().expect("corpus compiles");
        let mir = lower_program(&prog);
        let opts = SynthesisOptions::default();
        bench_function(&format!("synthesis/{}", entry.id), || {
            synthesize_observed(&prog, &mir, &opts, None, &Obs::new()).test_count()
        });
    }
}

fn bench_stages() {
    // Stage split on C5 (largest pair count): tracing vs analysis vs
    // pairing — useful for spotting pipeline regressions.
    let entry = narada_corpus::c5();
    let prog = entry.compile().unwrap();
    let mir = lower_program(&prog);

    bench_function("stage/trace_c5", || {
        let mut machine = narada_vm::Machine::with_defaults(&prog, &mir);
        let mut sink = narada_vm::VecSink::new();
        for t in &prog.tests {
            machine.run_test(t.id, &mut sink).unwrap();
        }
        sink.events.len()
    });

    let mut machine = narada_vm::Machine::with_defaults(&prog, &mir);
    let mut sink = narada_vm::VecSink::new();
    for t in &prog.tests {
        machine.run_test(t.id, &mut sink).unwrap();
    }
    let events = sink.events;
    bench_function("stage/analyze_c5", || {
        narada_core::analyze(&prog, &events).accesses.len()
    });

    let analysis = narada_core::analyze(&prog, &events);
    let opts = SynthesisOptions::default();
    bench_function("stage/pairs_c5", || {
        narada_core::generate_pairs(&prog, &analysis, &opts)
            .pairs
            .len()
    });
}

fn main() {
    bench_synthesis();
    bench_stages();
}
