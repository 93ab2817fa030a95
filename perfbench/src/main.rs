//! `perfbench` — the repository benchmark's command (see `README.md`).

use perfbench::cli;
use perfbench::output::result_line;
use perfbench::run::run;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match cli::parse(&args) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    let mut result = run(&options);
    for name in result.metrics.non_finite() {
        result.gate.fail(format!("metric {name} is not finite"));
    }
    for failure in &result.gate.failures {
        eprintln!("perfbench: FAILED: {failure}");
    }
    let correct = result.gate.ok();
    println!(
        "{}",
        result_line(correct, result.attempted, result.failed, &result.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
