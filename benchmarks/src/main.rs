//! The repo benchmark: five control-loop workloads, eleven end-to-end
//! metrics, and a per-layer ledger from a separate traced run.
//!
//! ```text
//! capgpu-benchmarks --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! capgpu-benchmarks [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]
//! capgpu-benchmarks --check-repeat [--seed <n>] [--seconds <s>] [--quick]
//! capgpu-benchmarks --emit-spec
//! ```
//!
//! The first form is what the driver runs: one workload in this
//! process, the result object as the last line of standard output.
//! Without `--workload` every workload runs in a child process of its
//! own and a table is printed. See `README.md` beside `Cargo.toml`.

mod host;
mod layers;
mod quality;
mod report;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use report::Family;
use workloads::Args;

/// Command line, parsed.
struct Cli {
    workload: Option<String>,
    args: Args,
    check_repeat: bool,
}

fn parse_cli() -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        workload: None,
        args: Args {
            seed: 42,
            seconds: spec::RUN_SECONDS,
            traced: false,
            quick: false,
        },
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&cli.args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                cli.args.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "--quick" => cli.args.quick = true,
            "--check-repeat" => cli.check_repeat = true,
            "--emit-spec" => {
                print!("{}", spec::benchmark_json());
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(cli))
}

fn family(args: &Args) -> Family {
    if args.traced {
        Family::PerLayer
    } else {
        Family::EndToEnd
    }
}

/// A workload prints the digest of its reference pass on a line of its
/// own before the result line, for [`reference_mismatches`].
const DIGEST_PREFIX: &str = "reference-digest ";

/// Driver mode: one workload, in this process.
fn run_one(name: &str, args: &Args) -> Result<(), String> {
    if !spec::WORKLOADS.iter().any(|w| w.name == name) {
        return Err(format!("unknown workload `{name}`"));
    }
    let scratch = host::Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let threads = if name == "fleet_mixed" {
        workloads::fleet::threads()
    } else {
        1
    };
    let (secs, outcome) = host::timed(|| workloads::run(name, args, &scratch));
    let mut outcome = outcome?;
    if !args.traced {
        report::fill_inapplicable(&mut outcome, name, threads);
    }
    eprintln!(
        "{name}: seed {} seconds {} trace {}{} — {secs:.1} s wall, {} thread(s) of {} available",
        args.seed,
        args.seconds,
        u8::from(args.traced),
        if args.quick {
            " QUICK (not comparable)"
        } else {
            ""
        },
        threads,
        host::available_parallelism(),
    );
    for failure in &outcome.checks.failures {
        eprintln!("{name}: CHECK FAILED: {failure}");
    }
    println!("{DIGEST_PREFIX}{:016x}", outcome.reference_digest);
    println!("{}", report::result_line(&outcome, family(args)));
    Ok(())
}

/// A child run's result line, parsed back.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    reference_digest: String,
}

/// Parses the rigid result line `report::result_line` writes; the
/// caller fills in the digest.
fn parse_result_line(line: &str) -> Option<ChildResult> {
    let field = |key: &str| -> Option<&str> {
        let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[start..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let mut metrics = BTreeMap::new();
    let body = line.split("\"metrics\": {").nth(1)?;
    for chunk in body.split("\"unit\"") {
        let Some(value_at) = chunk.rfind("{\"value\": ") else {
            continue;
        };
        let value: f64 = chunk[value_at + 10..]
            .trim_end_matches([',', ' '])
            .parse()
            .ok()?;
        let head = &chunk[..value_at];
        let name_end = head.rfind("\": ")?;
        let name_start = head[..name_end].rfind('"')? + 1;
        metrics.insert(head[name_start..name_end].to_string(), value);
    }
    Some(ChildResult {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
        reference_digest: String::new(),
    })
}

/// Runs one workload in a child process and parses its last line.
fn run_child(name: &str, args: &Args) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{name} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{name} printed nothing"))?;
    let mut result =
        parse_result_line(line).ok_or(format!("{name}: unparseable result line: {line}"))?;
    result.reference_digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DIGEST_PREFIX))
        .ok_or(format!("{name} printed no reference digest"))?
        .to_string();
    Ok(result)
}

/// The simulated figures and digests of every workload's reference
/// pass, as committed with the benchmark: `<workload> <name> <value>`
/// per line. The passes run at a fixed seed and size, so any difference
/// means the code simulates something else than it did when the file
/// was written — which two runs of one build can never show.
const REFERENCE: &str = include_str!("../REFERENCE.txt");

/// Lines of [`REFERENCE`] an untraced full-size run of `name` does not
/// reproduce, each as `(line as run, line as committed)`.
fn reference_mismatches(name: &str, r: &ChildResult) -> Vec<(String, String)> {
    let committed = |key: &str| {
        REFERENCE
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} {key} ")))
            .unwrap_or("(absent)")
    };
    let mut current = vec![("digest", r.reference_digest.clone())];
    for m in spec::END_TO_END {
        if m.kind == spec::Kind::Simulated {
            current.push((m.name, r.metrics[m.name].to_string()));
        }
    }
    current
        .into_iter()
        .filter(|(key, value)| committed(key) != value)
        .map(|(key, value)| {
            (
                format!("{name} {key} {value}"),
                format!("{name} {key} {}", committed(key)),
            )
        })
        .collect()
}

/// Prints what differs from the committed reference; true when nothing
/// does. `--quick` and traced runs are not comparable and pass.
fn reference_holds(name: &str, r: &ChildResult, args: &Args) -> bool {
    if args.quick || args.traced {
        return true;
    }
    let mismatches = reference_mismatches(name, r);
    for (run, committed) in &mismatches {
        println!("  SIMULATION CHANGED: REFERENCE.txt has `{committed}`, this build gives `{run}`");
    }
    mismatches.is_empty()
}

fn print_result(name: &str, r: &ChildResult, args: &Args) {
    println!(
        "{name}: correct {} attempted {} failed {}",
        r.correct, r.attempted, r.failed
    );
    for (metric, unit) in family(args).declared() {
        if let Some(v) = r.metrics.get(metric) {
            // A bypassed layer reads 0; leave it out of the table.
            if args.traced && *v == 0.0 {
                continue;
            }
            let filled = spec::END_TO_END
                .iter()
                .any(|m| m.name == metric && !m.measured_on.contains(&name));
            println!(
                "  {metric:<42} {v:>18.6} {unit}{}",
                if filled {
                    "  (fill, not measured here)"
                } else {
                    ""
                }
            );
        }
    }
}

/// Every workload, each in its own process; a table on standard output.
fn run_all(args: &Args) -> Result<bool, String> {
    if args.quick {
        println!("QUICK run: about 1/20 of the periods, not comparable with full runs");
    }
    let mut all_correct = true;
    for w in spec::WORKLOADS {
        let r = run_child(w.name, args)?;
        all_correct &= r.correct;
        print_result(w.name, &r, args);
        all_correct &= reference_holds(w.name, &r, args);
    }
    Ok(all_correct)
}

/// Below this a `setup_s` difference is not a regression whatever its
/// share: two of the set-ups take well under a millisecond.
const SETUP_FLOOR_S: f64 = 0.002;

/// Two full sets back to back, order alternated per workload. Passes
/// when every host-time metric of the second set is within its bound
/// of the first (`setup_s`: or within [`SETUP_FLOOR_S`]), every
/// simulated metric agrees exactly, and both sets reproduce the
/// committed reference.
fn check_repeat(args: &Args) -> Result<bool, String> {
    let args = Args {
        traced: false,
        ..*args
    };
    let mut ok = true;
    println!(
        "{:<16} {:<28} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "set A", "set B", "spread", "bound"
    );
    for (i, w) in spec::WORKLOADS.iter().enumerate() {
        let first = run_child(w.name, &args)?;
        let second = run_child(w.name, &args)?;
        // Alternate which set ran first, so drift over the session does
        // not always favour the same set.
        let (a, b) = if i % 2 == 0 {
            (first, second)
        } else {
            (second, first)
        };
        ok &= a.correct && b.correct;
        for m in spec::END_TO_END {
            let (va, vb) = (a.metrics[m.name], b.metrics[m.name]);
            let spread = (va - vb).abs() / va.abs().max(f64::MIN_POSITIVE);
            let pass = match m.kind {
                spec::Kind::Simulated => va.to_bits() == vb.to_bits(),
                spec::Kind::Host => {
                    spread <= m.bound || (m.name == "setup_s" && (va - vb).abs() <= SETUP_FLOOR_S)
                }
            };
            ok &= pass;
            println!(
                "{:<16} {:<28} {:>16.4} {:>16.4} {:>8.2}% {:>7}  {}",
                w.name,
                m.name,
                va,
                vb,
                spread * 100.0,
                match m.kind {
                    spec::Kind::Simulated => "exact".to_string(),
                    spec::Kind::Host => format!("{:.0}%", m.bound * 100.0),
                },
                if pass { "ok" } else { "FAIL" }
            );
        }
        ok &= a.reference_digest == b.reference_digest;
        ok &= reference_holds(w.name, &a, &args) && reference_holds(w.name, &b, &args);
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(Some(cli)) => cli,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("capgpu-benchmarks: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &cli.workload {
        Some(name) => run_one(name, &cli.args).map(|()| true),
        None if cli.check_repeat => check_repeat(&cli.args),
        None => run_all(&cli.args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("capgpu-benchmarks: a check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("capgpu-benchmarks: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_has_a_line_for_every_simulated_cell_and_catches_a_change() {
        for w in spec::WORKLOADS {
            // A run that reproduces nothing: every key must come back,
            // and none of them as absent from the committed file.
            let mut r = ChildResult {
                correct: true,
                attempted: 1,
                failed: 0,
                metrics: BTreeMap::new(),
                reference_digest: "not-a-digest".into(),
            };
            for m in spec::END_TO_END {
                r.metrics.insert(m.name.to_string(), -1.0);
            }
            let mismatches = reference_mismatches(w.name, &r);
            let simulated = spec::END_TO_END
                .iter()
                .filter(|m| m.kind == spec::Kind::Simulated)
                .count();
            assert_eq!(mismatches.len(), simulated + 1, "{}", w.name);
            for (_, committed) in &mismatches {
                assert!(!committed.ends_with("(absent)"), "{committed}");
            }
        }
    }

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let mut o = report::Outcome {
            attempted: 1234,
            ..report::Outcome::default()
        };
        for (i, m) in spec::END_TO_END.iter().enumerate() {
            o.set(m.name, 0.125 + i as f64 * 1000.5);
        }
        o.checks.check(false, 7, || "x".into());
        let parsed = parse_result_line(&report::result_line(&o, Family::EndToEnd)).expect("parse");
        assert!(!parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1234, 7));
        assert_eq!(parsed.metrics.len(), spec::END_TO_END.len());
        for (i, m) in spec::END_TO_END.iter().enumerate() {
            assert_eq!(parsed.metrics[m.name], 0.125 + i as f64 * 1000.5);
        }
    }
}
