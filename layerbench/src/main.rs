//! The benchmark's command line.
//!
//! ```text
//! layerbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny] [--corrupt]
//!   --workload  core-native | campaign-tac | server-durable
//!   --seed      workload seed; every input derives from it
//!   --seconds   measurement time; sets how many units run (a slower
//!               build takes longer)
//!   --trace     1 records spans and prints the per-layer metrics instead
//!               of the end-to-end ones
//!   --tiny      tiny units (the benchmark's own tests)
//!   --corrupt   corrupt one expected output (the correctness gate must
//!               then report a failure)
//! ```
//!
//! Prints a diagnostics line (provenance, host probe, error rate, sample
//! counts, span summary) and, last, one JSON result line. Scratch files
//! (native caches, server state, rustc temporaries) live under
//! `.layerbench-work-<pid>/` in the working directory and are removed at exit.

use layerbench::{Options, Size};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("layerbench: {msg}");
    eprintln!(
        "usage: layerbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny] [--corrupt]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child-native-build") {
        let trace = args.get(2).map(String::as_str) == Some("1");
        return match layerbench::core_native::child_build(trace) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("layerbench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut size, mut corrupt) = (Size::Full, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--tiny" => size = Size::Tiny,
            "--corrupt" => corrupt = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let Some(v) = it.next() else {
                    return usage(&format!("missing value for {flag}"));
                };
                match flag.as_str() {
                    "--workload" => workload = Some(v.clone()),
                    "--seed" => match v.parse::<u64>() {
                        Ok(n) => seed = Some(n),
                        Err(_) => return usage(&format!("bad --seed {v}")),
                    },
                    "--seconds" => match v.parse::<f64>() {
                        Ok(s) if (0.0..=600.0).contains(&s) => seconds = Some(s),
                        _ => return usage(&format!("bad --seconds {v}")),
                    },
                    _ => match v.as_str() {
                        "0" => trace = Some(false),
                        "1" => trace = Some(true),
                        _ => return usage(&format!("bad --trace {v}")),
                    },
                }
            }
            other => return usage(&format!("unknown option {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let Ok(exe) = std::env::current_exe() else {
        return usage("cannot locate this executable");
    };

    let work = PathBuf::from(format!(".layerbench-work-{}", std::process::id()));
    let work = match std::fs::create_dir_all(&work).and_then(|()| work.canonicalize()) {
        Ok(w) => w,
        Err(e) => return usage(&format!("cannot create scratch directory: {e}")),
    };
    let tmp = work.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        return usage(&format!("cannot create scratch directory: {e}"));
    }
    // Before any thread starts: rustc and the native cache (this process
    // and its build children) write under the scratch directory only.
    std::env::set_var("TMPDIR", &tmp);
    std::env::set_var("KOIKA_NATIVE_CACHE", work.join("native"));

    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        size,
        corrupt,
        exe,
        work: work.clone(),
    };
    let result = layerbench::run(&opts);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(r) => {
            println!("{}", r.diag_line());
            println!("{}", r.result_line(trace));
            if r.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "layerbench: {} of {} operations failed{}",
                    r.failed,
                    r.attempted,
                    if r.consistent {
                        ""
                    } else {
                        "; units disagree on simulated statistics"
                    }
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("layerbench: {e}");
            ExitCode::FAILURE
        }
    }
}
