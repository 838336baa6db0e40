//! The `lint` command-line tool; see [`clarify_lint::cli`] for the flags
//! and exit codes.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    clarify_lint::cli::run(&args)
}
