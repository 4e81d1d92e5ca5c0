//! Regenerates **Table 3 — Benchmark Information**: benchmark, version,
//! analyzed class, plus the MJ port's size for reference.

use narada_bench::render_table;

fn main() {
    let rows: Vec<Vec<String>> = narada_corpus::all()
        .iter()
        .map(|e| {
            let prog = e.compile().expect("corpus compiles");
            vec![
                e.id.to_string(),
                e.benchmark.to_string(),
                e.version.to_string(),
                e.class_name.to_string(),
                e.paper.loc.to_string(),
                e.loc().to_string(),
                e.method_count(&prog).to_string(),
            ]
        })
        .collect();
    println!("Table 3: Benchmark Information (paper LoC = original Java class)");
    print!(
        "{}",
        render_table(
            &[
                "Class",
                "Benchmark",
                "Version",
                "Class name",
                "LoC (paper)",
                "LoC (MJ port)",
                "Methods",
            ],
            &rows
        )
    );
}
