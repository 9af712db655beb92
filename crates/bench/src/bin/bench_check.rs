//! CI gate for the committed bench records: validates every file in
//! `silc_bench::schema::RECORDS` (`BENCH_tradeoff.json`, `BENCH_scale.json`,
//! `BENCH_latency.json`) against its recorder's current output schema and
//! fails on drift — a recorder whose fields changed without re-recording the
//! committed record, or a hand-edited record that no recorder would produce.
//!
//! When the CI smoke runs have already produced fresh outputs under
//! `target/`, those are validated too: that closes the loop end-to-end,
//! proving the **current binaries'** output still matches the schema the
//! committed files were checked against.
//!
//! ```text
//! cargo run -p silc-bench --release --bin bench_check -- [--dir PATH]
//!
//! FLAGS
//!   --dir PATH   repository root holding the BENCH_*.json files (default .)
//! ```
//!
//! Exit code 0 when every present file validates; 1 otherwise. The
//! committed records are mandatory — a missing one is a failure. The smoke
//! output of `BENCH_<name>.json`'s recorder is `target/bench_<name>_smoke.json`.

use silc_bench::schema::{parse, validate, Shape, RECORDS};
use std::path::{Path, PathBuf};

fn check_file(path: &Path, schema: &Shape) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let value = parse(&text)?;
    validate(&value, schema)
}

fn main() {
    let mut dir = PathBuf::from(".");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dir" => dir = PathBuf::from(it.next().expect("--dir PATH")),
            "--help" | "-h" => {
                println!("see the module docs at the top of bench_check.rs for usage");
                return;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let mut failures = 0usize;
    for &(record, schema) in RECORDS {
        let smoke =
            format!("target/{}_smoke.json", record.trim_end_matches(".json").to_lowercase());
        for (file, required) in [(record, true), (smoke.as_str(), false)] {
            let path = dir.join(file);
            if !path.exists() {
                if required {
                    eprintln!("FAIL {file}: missing (committed bench records are mandatory)");
                    failures += 1;
                } else {
                    println!("skip {file}: not present (smoke output, optional)");
                }
                continue;
            }
            match check_file(&path, schema) {
                Ok(()) => println!("  ok {file}"),
                Err(e) => {
                    eprintln!("FAIL {file}: {e}");
                    failures += 1;
                }
            }
        }
    }
    if failures > 0 {
        eprintln!(
            "bench schema drift: {failures} file(s) do not match the recorders' current output \
             schema. If a recorder's fields changed intentionally, update \
             crates/bench/src/schema.rs AND re-record the committed record."
        );
        std::process::exit(1);
    }
    println!("bench schemas are in sync");
}
