//! Command-line entry of the serve benchmark.
//!
//! ```text
//! servebench --clarify PATH --workload NAME --seed N --seconds S --trace 0|1 [--self-test]
//! ```
//!
//! Prints diagnostics lines, then one JSON result object as the last
//! line of standard output. Exits non-zero without a result when the run
//! cannot be carried out.

use std::path::PathBuf;
use std::process::ExitCode;

use clarify_servebench::run::{self, Options};
use clarify_servebench::{gen, stats, trace};

struct Args {
    clarify: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut clarify = None;
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut self_test = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} takes a value"));
        match flag.as_str() {
            "--clarify" => clarify = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?,
            "--trace" => trace = value()? == "1",
            "--self-test" => self_test = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        clarify: clarify.ok_or("--clarify is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        self_test,
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if !args.clarify.is_file() {
        return Err(format!("no clarify binary at {}", args.clarify.display()));
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let ref_start = stats::host_ref_ms();
    let script = gen::script(&args.workload, args.seed, args.seconds)?;
    let opts = Options {
        clarify: args.clarify.clone(),
        threads,
        plant_every: if args.self_test { 5 } else { 0 },
    };
    let run = run::untraced(&script, args.seed, &opts)?;
    for (i, e) in run.report.bad_inserts.iter().take(5) {
        eprintln!("servebench: insert {i} flagged: {e}");
    }
    for (i, e) in run.report.bad_lints.iter().take(5) {
        eprintln!("servebench: lint {i} flagged: {e}");
    }
    let attempted = run.attempted();
    let failed = run.failed_turns().len();
    let mut correct = failed == 0 && run.data.frame_errors.is_empty();
    let metrics = if args.trace {
        let (layer_metrics, ok) = trace::traced(&run, threads, ref_start)?;
        correct &= ok;
        layer_metrics
    } else {
        run.metrics()
    };
    let ref_end = stats::host_ref_ms();
    println!("detail {}", run.detail());
    println!(
        "host {{\"host.ref_ms\": [{ref_start:?}, {ref_end:?}], \"host.steal_share\": {:?}, \"threads\": {threads}, \"workload\": \"{}\", \"seed\": {}}}",
        run.steal_share, args.workload, args.seed
    );
    if args.self_test {
        let planted = run.data.planted;
        let flagged = run.report.planted_flagged;
        println!("self-test: {planted} inserts got a wrong answer, the checker flagged {flagged}");
        println!(
            "{}",
            stats::result_line(correct, attempted, failed, &metrics)
        );
        return Ok(if planted > 0 && flagged == planted && failed > 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    println!(
        "{}",
        stats::result_line(correct, attempted, failed, &metrics)
    );
    Ok(ExitCode::SUCCESS)
}
