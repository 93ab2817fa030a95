//! The benchmark's command line, parsed through `refloat_bench::args` so a
//! malformed value is a typed [`UsageError`], never a silent default.
//!
//! ```text
//! perfbench --workload serve_hot|transient_seq
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every flag takes exactly one value and may appear once; an unknown flag, a
//! repeated flag or a stray positional argument is an error too.  `main` prints
//! the error and exits with status 2.

use std::fmt;

use refloat_bench::args::{parse_positive_f64, parse_u64, raw_value, UsageError};

/// The flags the benchmark accepts.
const FLAGS: [&str; 4] = ["--workload", "--seed", "--seconds", "--trace"];

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over the hot serving catalog on one 2-worker node.
    ServeHot,
    /// A warm-started, incrementally re-encoded FEM solve chain on 1 worker.
    TransientSeq,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::ServeHot, Workload::TransientSeq];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::TransientSeq => "transient_seq",
        }
    }
}

/// What the command line resolved to.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub workload: Workload,
    /// Seeds every generated input (job order, tenants, the chain).
    pub seed: u64,
    /// Wall seconds the measured phase aims to take.
    pub seconds: f64,
    /// `false`: end-to-end metrics from untraced runs.  `true`: the traced run,
    /// the layer replay and the per-layer metrics.
    pub trace: bool,
}

/// A command-line problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A known flag with a bad or missing value.
    Usage(UsageError),
    /// A flag the benchmark does not know.
    UnknownFlag(String),
    /// A flag given twice.
    RepeatedFlag(String),
    /// An argument that is neither a flag nor a flag's value.
    Stray(String),
    /// `--workload` is required.
    MissingWorkload,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(usage) => write!(f, "{usage}"),
            CliError::UnknownFlag(flag) => {
                write!(
                    f,
                    "unknown flag {flag:?}: expected one of {}",
                    FLAGS.join(", ")
                )
            }
            CliError::RepeatedFlag(flag) => write!(f, "{flag} given more than once"),
            CliError::Stray(arg) => write!(f, "unexpected argument {arg:?}"),
            CliError::MissingWorkload => write!(f, "--workload is required"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<UsageError> for CliError {
    fn from(usage: UsageError) -> Self {
        CliError::Usage(usage)
    }
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Options, CliError> {
    // Structure first: strict `--flag value` pairs over the known flags.
    let mut seen: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if !arg.starts_with("--") {
            return Err(CliError::Stray(arg.to_string()));
        }
        let Some(flag) = FLAGS.iter().copied().find(|f| *f == arg) else {
            return Err(CliError::UnknownFlag(arg.to_string()));
        };
        if seen.contains(&flag) {
            return Err(CliError::RepeatedFlag(flag.to_string()));
        }
        seen.push(flag);
        // A dangling flag is reported by the typed parsers below.
        i += 2;
    }

    let workload = match raw_value(args, "--workload")? {
        None => return Err(CliError::MissingWorkload),
        Some(name) => Workload::ALL.into_iter().find(|w| w.name() == name).ok_or(
            UsageError::UnknownValue {
                flag: "--workload".to_string(),
                value: name,
                allowed: "serve_hot, transient_seq",
            },
        )?,
    };
    let trace = match parse_u64(args, "--trace")? {
        None | Some(0) => false,
        Some(1) => true,
        Some(other) => {
            return Err(CliError::Usage(UsageError::UnknownValue {
                flag: "--trace".to_string(),
                value: other.to_string(),
                allowed: "0, 1",
            }))
        }
    };
    Ok(Options {
        workload,
        seed: parse_u64(args, "--seed")?.unwrap_or(1),
        seconds: parse_positive_f64(args, "--seconds")?.unwrap_or(10.0),
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_full_command_line_parses() {
        let o = parse(&args(&[
            "--workload",
            "transient_seq",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload, Workload::TransientSeq);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 12.0, true));
    }

    #[test]
    fn malformed_unknown_and_repeated_flags_are_errors() {
        for bad in [
            &["--workload", "serve_hot", "--seed", "ten"][..],
            &["--workload", "serve_hot", "--seed"],
            &["--workload", "serve_hot", "--seconds", "0"],
            &["--workload", "serve_hot", "--trace", "2"],
            &["--workload", "serve_cold"],
            &["--workload", "serve_hot", "--jobs", "5"],
            &["--workload", "serve_hot", "--seed", "1", "--seed", "2"],
            &["--workload", "serve_hot", "extra"],
            &["--seed", "1"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}
