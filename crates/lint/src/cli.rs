//! The lint command line, shared by the standalone `lint` binary and
//! `clarify lint`: run the symbolic linter over one or more configuration
//! files, or over a whole topology.
//!
//! ```text
//! lint [--format human|json|sarif] [--strict] [--threads N] [--no-suppress]
//!      [--trace-json PATH] [--stats] [--incremental PREV] [--save-cache PATH]
//!      <config-file>...
//! lint --topology <topology-file> [--format ...] [--strict] [--no-suppress]
//! ```
//!
//! Exit status: 0 when every file is clean (no warnings or errors; notes
//! are informational), 1 when any file has findings (or, with `--strict`,
//! any note), 2 on usage or parse errors.

use std::path::Path;
use std::process::ExitCode;

use crate::{
    apply_suppressions, lint_config, lint_config_incremental, render_sarif, render_sarif_network,
    CacheError, LintCache, NetworkLinter,
};
use clarify_netconfig::Config;
use clarify_netsim::TopologySpec;

const USAGE: &str = "\
usage:
  lint [--format human|json|sarif] [--strict] [--threads N] [--no-suppress]
       [--trace-json PATH] [--stats] [--incremental PREV] [--save-cache PATH]
       <config-file>...
  lint --topology <topology-file> [common options]

options:
  --format <F>         output format: human (default), json, or sarif
                       (SARIF 2.1.0, one log for the whole run)
  --json               shorthand for --format json
  --topology <FILE>    lint a whole topology: per-config checks plus the
                       cross-device checks L007-L011 (config paths resolve
                       relative to FILE's directory)
  --no-suppress        ignore inline '! lint-allow L0xx' suppressions
  --strict             treat notes as findings for the exit status
  --threads <N>        worker threads for the symbolic passes (default: the
                       CLARIFY_THREADS env var, else all available cores)
  --trace-json <PATH>  record internal metrics and write them to PATH as
                       JSON at exit
  --stats              record internal metrics and print a summary to
                       stderr at exit
  --incremental <PREV> re-lint against the cache PREV (written by
                       --save-cache on an earlier run): only objects the
                       edit touched are recomputed, cached findings are
                       spliced for the rest. Requires exactly one config
                       file. A stale or mismatched cache falls back to a
                       full recompute with a warning.
  --save-cache <PATH>  write the lint cache for this run to PATH, for a
                       later --incremental
";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
    Sarif,
}

/// Runs the lint command line over `args` (the arguments after the
/// program or subcommand name) and returns the exit status.
pub fn run(args: &[String]) -> ExitCode {
    let mut format = Format::Human;
    let mut strict = false;
    let mut stats = false;
    let mut no_suppress = false;
    let mut topology: Option<String> = None;
    let mut trace_json: Option<String> = None;
    let mut incremental: Option<String> = None;
    let mut save_cache: Option<String> = None;
    let mut paths: Vec<&str> = Vec::new();
    let mut args_iter = args.iter();
    while let Some(a) = args_iter.next() {
        match a.as_str() {
            "--json" => format = Format::Json,
            "--format" => {
                format = match args_iter.next().map(String::as_str) {
                    Some("human") => Format::Human,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    _ => {
                        eprintln!("error: --format takes human, json, or sarif\n\n{USAGE}");
                        return ExitCode::from(2);
                    }
                };
            }
            "--topology" => {
                let Some(path) = args_iter.next() else {
                    eprintln!("error: --topology takes a file path\n\n{USAGE}");
                    return ExitCode::from(2);
                };
                topology = Some(path.clone());
            }
            "--no-suppress" => no_suppress = true,
            "--strict" => strict = true,
            "--stats" => stats = true,
            "--trace-json" => {
                let Some(path) = args_iter.next() else {
                    eprintln!("error: --trace-json takes a file path\n\n{USAGE}");
                    return ExitCode::from(2);
                };
                trace_json = Some(path.clone());
            }
            "--incremental" => {
                let Some(path) = args_iter.next() else {
                    eprintln!("error: --incremental takes a cache file path\n\n{USAGE}");
                    return ExitCode::from(2);
                };
                incremental = Some(path.clone());
            }
            "--save-cache" => {
                let Some(path) = args_iter.next() else {
                    eprintln!("error: --save-cache takes a file path\n\n{USAGE}");
                    return ExitCode::from(2);
                };
                save_cache = Some(path.clone());
            }
            "--threads" => {
                let Some(n) = args_iter
                    .next()
                    .map(String::as_str)
                    .and_then(clarify_par::parse_threads)
                else {
                    eprintln!("error: --threads takes a positive integer\n\n{USAGE}");
                    return ExitCode::from(2);
                };
                clarify_par::set_threads(n);
            }
            "--help" | "-h" => {
                eprint!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown option '{flag}'\n\n{USAGE}");
                return ExitCode::from(2);
            }
            path => paths.push(path),
        }
    }
    if topology.is_some() {
        if !paths.is_empty() || incremental.is_some() || save_cache.is_some() {
            eprintln!("error: --topology takes no config files and no cache options\n\n{USAGE}");
            return ExitCode::from(2);
        }
    } else if paths.is_empty() {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }
    if incremental.is_some() && paths.len() != 1 {
        eprintln!("error: --incremental requires exactly one config file\n\n{USAGE}");
        return ExitCode::from(2);
    }
    if save_cache.is_some() && paths.len() != 1 {
        eprintln!("error: --save-cache requires exactly one config file\n\n{USAGE}");
        return ExitCode::from(2);
    }
    if trace_json.is_some() || stats {
        clarify_obs::install(clarify_obs::Registry::new());
    }

    let code = match &topology {
        Some(topo) => run_topology(topo, format, strict, no_suppress),
        None => run_files(
            format,
            strict,
            no_suppress,
            incremental.as_deref(),
            save_cache.as_deref(),
            &paths,
        ),
    };

    // Dump metrics on every exit path so failing runs still leave a trace.
    if trace_json.is_some() || stats {
        let snapshot = clarify_obs::global().snapshot();
        if let Some(path) = trace_json {
            if let Err(e) = std::fs::write(&path, snapshot.to_json()) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
        if stats {
            eprint!("{}", snapshot.render_human());
        }
    }
    code
}

/// Loads the `--incremental` cache. `Ok(None)` means the cache was stale
/// (already warned — the caller lints in full); `Err` is a usage error.
fn load_cache(path: &str) -> Result<Option<LintCache>, ExitCode> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return Err(ExitCode::from(2));
        }
    };
    match LintCache::from_json(&text) {
        Ok(cache) => Ok(Some(cache)),
        Err(CacheError::Stale(m)) => {
            eprintln!("warning: {path}: stale lint cache ({m}); falling back to full lint");
            Ok(None)
        }
        Err(CacheError::Corrupt(m)) => {
            eprintln!("error: {path}: corrupt lint cache: {m}");
            Err(ExitCode::from(2))
        }
    }
}

/// Lints a whole topology file: parse, instantiate (config paths resolve
/// relative to the topology file), run the network linter, render.
fn run_topology(topo: &str, format: Format, strict: bool, no_suppress: bool) -> ExitCode {
    let text = match std::fs::read_to_string(topo) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {topo}: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match TopologySpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {topo}: {e}");
            return ExitCode::from(2);
        }
    };
    let base = Path::new(topo).parent().unwrap_or_else(|| Path::new("."));
    let loaded = match spec
        .instantiate(&mut |p| std::fs::read_to_string(base.join(p)).map_err(|e| e.to_string()))
    {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {topo}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut linter = NetworkLinter::new(&loaded);
    if no_suppress {
        linter = linter.no_suppress();
    }
    let report = match linter.lint() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {topo}: {e}");
            return ExitCode::from(2);
        }
    };
    match format {
        Format::Human => print!("{}", report.render_human()),
        Format::Json => print!("{}", report.render_json()),
        Format::Sarif => print!("{}", render_sarif_network(&report)),
    }
    let clean = if strict {
        report
            .routers
            .iter()
            .all(|r| r.report.diagnostics.is_empty())
    } else {
        report.is_clean()
    };
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Lints every file; split out of [`run`] so the metrics dump there runs
/// on every return path.
fn run_files(
    format: Format,
    strict: bool,
    no_suppress: bool,
    incremental: Option<&str>,
    save_cache: Option<&str>,
    paths: &[&str],
) -> ExitCode {
    let prev = match incremental.map(load_cache).transpose() {
        Ok(p) => p.flatten(),
        Err(code) => return code,
    };
    let mut dirty = false;
    for &path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let (cfg, spans) = match Config::parse_with_spans(&text) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let result = match &prev {
            Some(cache) => {
                lint_config_incremental(&cfg, Some(&spans), cache).map(|(report, _)| report)
            }
            None => lint_config(&cfg, Some(&spans)),
        };
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        if let Some(out) = save_cache {
            let cache = LintCache::from_report(&cfg, &report);
            if let Err(e) = std::fs::write(out, cache.to_json()) {
                eprintln!("error: cannot write {out}: {e}");
                return ExitCode::from(2);
            }
        }
        let report = if no_suppress {
            report
        } else {
            apply_suppressions(report, &text)
        };
        match format {
            Format::Human => print!("{}", report.render_human(path)),
            Format::Json => print!("{}", report.render_json(path)),
            Format::Sarif => print!("{}", render_sarif(&report, path)),
        }
        let clean = if strict {
            report.diagnostics.is_empty()
        } else {
            report.is_clean()
        };
        dirty |= !clean;
    }
    if dirty {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
