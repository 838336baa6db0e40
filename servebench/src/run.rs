//! One benchmark run against a real daemon: repeated set-up, the timed
//! phase, the checker, and the end-to-end metrics.

use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::time::Instant;

use crate::check::{self, Report};
use crate::client::{Daemon, Local, Op, RunData, Runner};
use crate::gen::Script;
use crate::stats::{self, mean, median, percentile, Metric};

/// Daemon starts per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Run options.
#[derive(Clone, Debug)]
pub struct Options {
    /// The `clarify` binary.
    pub clarify: PathBuf,
    /// Daemon `--threads`.
    pub threads: usize,
    /// Plant a wrong answer on every n-th question (0 = never).
    pub plant_every: usize,
}

/// Everything an untraced run measured.
pub struct Untraced {
    /// The final daemon's conversation (warm-up and timed phase).
    pub data: RunData,
    /// What the checker found.
    pub report: Report,
    /// Each daemon start, spawn to end of warm-up, in seconds.
    pub setups: Vec<f64>,
    /// Wall time of the timed phase.
    pub timed_wall_s: f64,
    /// Daemon CPU time over the timed phase.
    pub cpu_ms: f64,
    /// Daemon `VmHWM` after the timed phase.
    pub peak_rss_mb: f64,
    /// Share of the machine's CPU time the hypervisor gave to other
    /// guests during the timed phase.
    pub steal_share: f64,
}

/// Runs `script` against fresh daemons: `SETUPS` set-ups, the last of
/// which carries on into the timed phase.
pub fn untraced(script: &Script, seed: u64, opts: &Options) -> Result<Untraced, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut last: Option<(Daemon, Runner)> = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let daemon = Daemon::spawn(&opts.clarify, opts.threads)?;
        let mut runner = Runner::new(daemon.connect()?);
        runner.ping()?;
        for action in &script.warmup {
            runner.act(action)?;
        }
        setups.push(start.elapsed().as_secs_f64());
        if !runner.data.frame_errors.is_empty() {
            return Err(format!(
                "warm-up turn failed: {:?}",
                runner.data.frame_errors[0]
            ));
        }
        if i + 1 < SETUPS {
            let (conn, _) = runner.into_conn();
            daemon.shutdown(conn)?;
        } else {
            last = Some((daemon, runner));
        }
    }
    let (daemon, mut runner) = last.expect("at least one set-up");
    runner.set_timed(true);
    runner.plant_every = opts.plant_every;
    let cpu_start = daemon.cpu_ms().unwrap_or(0.0);
    let ticks_start = stats::cpu_ticks();
    let start = Instant::now();
    for action in &script.timed {
        runner.act(action)?;
    }
    let timed_wall_s = start.elapsed().as_secs_f64();
    let steal_share = stats::steal_share(ticks_start, stats::cpu_ticks());
    let cpu_ms = daemon.cpu_ms().unwrap_or(0.0) - cpu_start;
    let peak_rss_mb = daemon.peak_rss_mb().unwrap_or(0.0);
    let (conn, data) = runner.into_conn();
    daemon.shutdown(conn)?;
    let report = check::check(&data, seed);
    Ok(Untraced {
        data,
        report,
        setups,
        timed_wall_s,
        cpu_ms,
        peak_rss_mb,
        steal_share,
    })
}

/// Runs the warm-up and the timed phase of `script` through the request
/// handler in this process (no daemon, no socket) and checks the outputs.
pub fn in_process(
    script: &Script,
    seed: u64,
    plant_every: usize,
) -> Result<(RunData, Report), String> {
    let mut runner = Runner::new(Local::new());
    runner.ping()?;
    for action in &script.warmup {
        runner.act(action)?;
    }
    runner.set_timed(true);
    runner.plant_every = plant_every;
    for action in &script.timed {
        runner.act(action)?;
    }
    let (_, data) = runner.into_conn();
    let report = check::check(&data, seed);
    Ok((data, report))
}

impl Untraced {
    /// Timed turns.
    pub fn attempted(&self) -> usize {
        self.data.log.iter().filter(|t| t.timed).count()
    }

    /// Indices (into the log) of timed turns that failed or were flagged.
    pub fn failed_turns(&self) -> Vec<usize> {
        let bad_inserts: HashSet<usize> = self.report.bad_inserts.iter().map(|(i, _)| *i).collect();
        let mut bad_turns: HashSet<usize> =
            self.data.frame_errors.iter().map(|(i, _)| *i).collect();
        bad_turns.extend(
            self.report
                .bad_lints
                .iter()
                .map(|(i, _)| self.data.lints[*i].turn),
        );
        self.data
            .log
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                t.timed
                    && (bad_turns.contains(i) || t.insert.is_some_and(|k| bad_inserts.contains(&k)))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Round trips (ms) of timed turns of kind `op`.
    pub fn rtts(&self, op: Op) -> Vec<f64> {
        self.data
            .log
            .iter()
            .filter(|t| t.timed && t.op == op)
            .map(|t| t.rtt_ns as f64 / 1e6)
            .collect()
    }

    /// Whole-insert times (ask + every answer), per timed insert, in ms.
    pub fn insert_ms(&self) -> Vec<f64> {
        let mut per: BTreeMap<usize, f64> = BTreeMap::new();
        for t in self.data.log.iter().filter(|t| t.timed) {
            if let Some(k) = t.insert {
                *per.entry(k).or_default() += t.rtt_ns as f64 / 1e6;
            }
        }
        per.into_values().collect()
    }

    /// Ask round trips grouped by size class.
    pub fn ask_by_class(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for t in self.data.log.iter().filter(|t| t.timed && t.op == Op::Ask) {
            if let Some(k) = t.insert {
                out.entry(self.data.inserts[k].spec.class)
                    .or_default()
                    .push(t.rtt_ns as f64 / 1e6);
            }
        }
        out
    }

    fn timed_inserts(&self) -> impl Iterator<Item = &crate::client::InsertRecord> {
        self.data.inserts.iter().filter(|r| r.timed)
    }

    /// Mean questions per timed insert (exact for a seed).
    pub fn questions_per_insert(&self) -> f64 {
        mean(
            &self
                .timed_inserts()
                .map(|r| r.questions as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean LLM calls per timed ask (exact for a seed).
    pub fn llm_calls_per_ask(&self) -> f64 {
        mean(
            &self
                .timed_inserts()
                .map(|r| r.llm_calls as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let p = |op: Op, q: f64| percentile(&self.rtts(op), q).map(|(v, _)| v).unwrap_or(0.0);
        let attempted = self.attempted();
        let failed = self.failed_turns().len();
        vec![
            Metric::new("setup_s", median(&self.setups), "s"),
            Metric::new("open_p50_ms", p(Op::Open, 0.5), "ms"),
            Metric::new("ask_p50_ms", p(Op::Ask, 0.5), "ms"),
            Metric::new("ask_p90_ms", p(Op::Ask, 0.9), "ms"),
            Metric::new("answer_p50_ms", p(Op::Answer, 0.5), "ms"),
            Metric::new("insert_p50_ms", median(&self.insert_ms()), "ms"),
            Metric::new("lint_p50_ms", p(Op::Lint, 0.5), "ms"),
            Metric::new("relint_p50_ms", p(Op::Relint, 0.5), "ms"),
            Metric::new("turns_per_s", attempted as f64 / self.timed_wall_s, "1/s"),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MB"),
            Metric::new(
                "ok_rate",
                (attempted - failed) as f64 / attempted.max(1) as f64,
                "ratio",
            ),
            Metric::new("questions_per_insert", self.questions_per_insert(), "count"),
            Metric::new("llm_calls_per_ask", self.llm_calls_per_ask(), "count"),
        ]
    }

    /// Sample counts behind each percentile, and per-class ask counts.
    pub fn detail(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (name, op, q) in [
            ("open_p50_ms", Op::Open, 0.5),
            ("ask_p50_ms", Op::Ask, 0.5),
            ("ask_p90_ms", Op::Ask, 0.9),
            ("answer_p50_ms", Op::Answer, 0.5),
            ("lint_p50_ms", Op::Lint, 0.5),
            ("relint_p50_ms", Op::Relint, 0.5),
        ] {
            let samples = self.rtts(op);
            let beyond = percentile(&samples, q).map(|(_, b)| b).unwrap_or(0);
            parts.push(format!(
                "\"{name}\": {{\"samples\": {}, \"beyond\": {beyond}}}",
                samples.len()
            ));
        }
        let inserts = self.insert_ms();
        parts.push(format!(
            "\"insert_p50_ms\": {{\"samples\": {}, \"beyond\": {}}}",
            inserts.len(),
            percentile(&inserts, 0.5).map(|(_, b)| b).unwrap_or(0)
        ));
        let classes: Vec<String> = self
            .ask_by_class()
            .iter()
            .map(|(c, v)| {
                format!(
                    "\"{c}\": {{\"asks\": {}, \"ask_p50_ms\": {:?}}}",
                    v.len(),
                    median(v)
                )
            })
            .collect();
        format!(
            "{{\"percentiles\": {{{}}}, \"ask_classes\": {{{}}}, \"setup_s_each\": {:?}, \"timed_wall_s\": {:?}, \"probes\": {}, \"lints_checked\": {}, \"planted\": {}, \"planted_flagged\": {}}}",
            parts.join(", "),
            classes.join(", "),
            self.setups,
            self.timed_wall_s,
            self.report.probes,
            self.report.lints_checked,
            self.data.planted,
            self.report.planted_flagged
        )
    }
}
