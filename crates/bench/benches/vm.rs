//! Micro-benchmark for the MJ virtual machine itself: sequential
//! interpretation throughput (instructions/second), tracing overhead, and
//! concurrent scheduling overhead.

use narada_bench::harness::bench_function;
use narada_lang::lower::lower_program;
use narada_vm::{Machine, NullSink, RandomScheduler, Value, VecSink};

const HOT_LOOP: &str = r#"
    class Work {
        int acc;
        void spin(int n) {
            var i = 0;
            while (i < n) {
                this.acc = this.acc + i * 3 % 7;
                i = i + 1;
            }
        }
    }
    test seed {
        var w = new Work();
        w.spin(10000);
    }
"#;

fn bench_sequential() {
    let prog = narada_lang::compile(HOT_LOOP).unwrap();
    let mir = lower_program(&prog);

    bench_function("vm/sequential_untraced", || {
        let mut m = Machine::with_defaults(&prog, &mir);
        m.run_test(prog.tests[0].id, &mut NullSink).unwrap();
        m.heap.len()
    });

    bench_function("vm/sequential_traced", || {
        let mut m = Machine::with_defaults(&prog, &mir);
        let mut sink = VecSink::new();
        m.run_test(prog.tests[0].id, &mut sink).unwrap();
        sink.events.len()
    });
}

fn bench_concurrent() {
    let prog = narada_lang::compile(
        r#"
        class Work {
            int acc;
            sync void spin(int n) {
                var i = 0;
                while (i < n) {
                    this.acc = this.acc + 1;
                    i = i + 1;
                }
            }
        }
        test seed { var w = new Work(); w.spin(1); }
        "#,
    )
    .unwrap();
    let mir = lower_program(&prog);
    let spin = prog.methods.iter().find(|m| m.name == "spin").unwrap().id;
    let work = prog.class_by_name("Work").unwrap();

    bench_function("vm/concurrent_4_threads", || {
        let mut m = Machine::with_defaults(&prog, &mir);
        let obj = m.heap.alloc_instance(work);
        for _ in 0..4 {
            m.spawn_invoke(
                spin,
                Some(Value::Ref(obj)),
                vec![Value::Int(2000)],
                &mut NullSink,
            )
            .unwrap();
        }
        let mut sched = RandomScheduler::new(7);
        m.run_threads(&mut sched, &mut NullSink, 10_000_000)
    });
}

fn main() {
    bench_sequential();
    bench_concurrent();
}
