//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! Drives the real `privtree-serve` binary as a child process over
//! loopback. The benchmark builds the releases, the queries and the
//! expected answers itself from `--seed`; the server receives only the
//! generated release files and requests, and every reply is compared
//! bit for bit with the library's answer.
//!
//! ```text
//! perfbench --server PATH --workload serve-small|serve-bulk|publish-churn
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics untraced; per-layer
//! metrics, plus the traced run's own end-to-end numbers as `traced.*`
//! and the serve-bulk lane's numbers as `bulk.*`, with `--trace 1`).
//! The line before it records the environment.

mod layers;
mod load;
mod net;
mod server;
mod stats;
mod workloads;

use std::path::PathBuf;

use stats::{quote, result_line};
use workloads::{Bench, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --server PATH --workload serve-small|serve-bulk|publish-churn \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<(Bench, String), String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let server = server.ok_or(format!("--server is required\n{USAGE}"))?;
    Ok((
        Bench {
            server,
            seed,
            seconds,
            trace,
        },
        workload,
    ))
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn fs_type(path: &std::path::Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    info.lines()
        .filter_map(|l| {
            let fields: Vec<&str> = l.split_whitespace().collect();
            let mount = *fields.get(4)?;
            let dash = fields.iter().position(|f| *f == "-")?;
            let fstype = *fields.get(dash + 1)?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map(|(_, t)| t)
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let (bench, workload) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match workloads::run(&bench, &workload) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    };
    let mut env: Vec<(String, String)> = vec![
        ("workload".into(), workload.clone()),
        ("seed".into(), bench.seed.to_string()),
        ("seconds".into(), bench.seconds.to_string()),
        ("trace".into(), (bench.trace as u8).to_string()),
        (
            "git_rev".into(),
            std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
        ),
        ("nproc".into(), server::pool_workers().to_string()),
        ("cpu".into(), cpu_model()),
        ("catalog_fs".into(), fs_type(std::path::Path::new("."))),
        (
            "PRIVTREE_POOL_WORKERS".into(),
            server::pool_workers().to_string(),
        ),
        ("PRIVTREE_TELEMETRY".into(), "1".into()),
        (
            "small_open_rate_per_s".into(),
            workloads::SMALL_OPEN_RATE.to_string(),
        ),
        (
            "churn_read_rate_per_s".into(),
            workloads::CHURN_READ_RATE.to_string(),
        ),
        (
            "churn_swap_period_ms".into(),
            workloads::CHURN_SWAP_PERIOD_MS.to_string(),
        ),
    ];
    env.extend(outcome.notes.iter().cloned());
    if let Some(why) = &outcome.invalid {
        env.push(("invalid".into(), why.clone()));
        eprintln!("perfbench: {workload}: run invalid: {why}");
    }
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    println!("{{\"env\": {{{}}}}}", env_json.join(", "));
    let f = &outcome.failures;
    if f.total() > 0 {
        eprintln!(
            "perfbench: {workload}: failed operations: wrong={} err={} refused={} timeout={}",
            f.wrong, f.err, f.refused, f.timeout
        );
    }
    // `correct` judges the server's answers; a run whose generator fell
    // behind is marked invalid in the environment line instead, as a
    // host stall slows the server and the generator alike
    let correct = f.wrong == 0;
    println!(
        "{}",
        result_line(correct, outcome.attempted, f.total(), &outcome.metrics)
    );
}
