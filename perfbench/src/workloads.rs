//! The three workloads and the run that drives each one.
//!
//! Every workload follows the same shape: take its points, draw its
//! queries and release noise from the seed, build the reference
//! releases in process (the source of every expected reply), then run
//! rounds. Each round sets a fresh server up — build, encode, catalog
//! publish, spawn, first correct reply — and drives it through a slice
//! of every phase of the workload.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use privtree_datagen::spatial::gowalla_like;
use privtree_datagen::workload::{range_queries, QuerySize};
use privtree_dp::budget::Epsilon;
use privtree_dp::rng::{derive_seed, seeded};
use privtree_engine::wire::{encode_answer_frame_into, encode_query_frame, WireClient};
use privtree_engine::ReleaseStore;
use privtree_eval::error::{average_relative_error, smoothing_factor};
use privtree_spatial::dataset::PointSet;
use privtree_spatial::geom::Rect;
use privtree_spatial::index::GridIndex;
use privtree_spatial::quadtree::SplitConfig;
use privtree_spatial::query::RangeQuery;
use privtree_spatial::sharded::ShardHandle;
use privtree_spatial::synopsis::privtree_synopsis;
use privtree_spatial::GridRoutedSynopsis;
use privtree_store::{encode_release, Catalog, ReleaseFormat};

use crate::layers::{self, LayerInput};
use crate::load::{self, Phase, Publisher};
use crate::net::{scrape_stats, Conn, Failures, Proto, Request};
use crate::server::{Server, WorkDir};
use crate::stats::{median, quantile, Metrics};

/// Privacy budget of every release (the paper's default ε = 1).
const EPSILON: f64 = 1.0;
/// The point sets are fixed stand-ins for the paper's Gowalla data set,
/// as its data sets are fixed: `--seed` draws the PrivTree noise and
/// the query stream. Drawing the points from it too made throughput on
/// serve-bulk differ by 18% between seeds, as cluster layouts differ.
const DATA_SEED: u64 = 1;
/// Points behind serve-small.
const SMALL_POINTS: usize = 100_000;
/// Points behind publish-churn: a quarter of them per strip puts each
/// strip's node count (~7.5k) midway between the node counts at which
/// the default grid resolution steps (4,096 and 16,384), so the release
/// size does not jump between seeds.
const CHURN_POINTS: usize = 200_000;
/// Points behind serve-bulk: the grid reaches 512 × 512 cells, larger
/// than L2, so the Morton gate opens.
const BULK_POINTS: usize = 1_000_000;
/// Strip keys publish-churn splits its points into.
const STRIPS: usize = 4;

/// serve-small open-loop offered rate, requests/s: half of the
/// 1-connection closed-loop capacity for 16-query wire requests
/// (11.4k requests/s measured on a 2-core Xeon).
pub const SMALL_OPEN_RATE: f64 = 5_700.0;
/// publish-churn reader rate, `batch 16` requests/s: half of the
/// 1-connection text capacity (7.9k requests/s, same machine). Lower
/// rates read slower and less steadily: at 1k, 2k and 4k requests/s
/// the p50 was 353, 250 and 206 us, as an idle reactor pays the host's
/// wake-up latency on every request.
pub const CHURN_READ_RATE: f64 = 4_000.0;
/// publish-churn publish cadence: one journaled `swap` every this many
/// milliseconds. Back to back a swap took 8 ms (125/s) on the same
/// machine; half that rate on top of the readers would saturate the
/// reactor thread that runs both, so the cadence is 10/s.
pub const CHURN_SWAP_PERIOD_MS: u64 = 100;
/// An open-loop run in which over 1% of sends left later than this
/// stalled in the client, not the server, and is invalid.
pub const MAX_SEND_LAG_P99_US: f64 = 10_000.0;

/// Queries (the head of the stream) behind `query_rel_error`: exact
/// counts of large queries over a million points are the slowest part
/// of a run's preparation.
const ERROR_QUERIES: usize = 4096;
/// Queries the traced run's in-process timings run over: the whole
/// stream of the small-query workloads, 4 requests of serve-bulk's.
const TIMED_QUERIES: usize = 16_384;
/// Rounds per run: one set-up each, then a slice of every phase.
const ROUNDS: usize = 16;
/// Closed-loop warm-up before each measured slice.
const CLOSED_WARMUP: Duration = Duration::from_millis(100);

/// One release key: the points it is built from and their region.
struct Part {
    key: String,
    region: Rect,
    points: PointSet,
    seed: u64,
}

/// A built release and what each build stage took.
pub struct Release {
    pub engine: GridRoutedSynopsis,
    pub core_s: f64,
    pub freeze_s: f64,
    pub grid_s: f64,
}

impl Release {
    pub fn handle(&self) -> ShardHandle {
        ShardHandle::from_release(
            self.engine.frozen().clone(),
            Some(self.engine.grid().clone()),
        )
    }

    fn build_s(&self) -> f64 {
        self.core_s + self.freeze_s + self.grid_s
    }
}

/// The serving precompute the paper's Table 4 times, plus the grid:
/// `privtree_synopsis` → `freeze` → `GridRoutedSynopsis::build`, on
/// `part`'s points with noise drawn from `seed`.
fn build_release(part: &Part, seed: u64) -> Result<Release, String> {
    let eps = Epsilon::new(EPSILON).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let synopsis = privtree_synopsis(
        &part.points,
        part.region,
        SplitConfig::full(2),
        eps,
        &mut seeded(seed),
    )
    .map_err(|e| e.to_string())?;
    let core_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let frozen = synopsis.freeze();
    let freeze_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let engine = GridRoutedSynopsis::build(frozen).map_err(|e| e.to_string())?;
    let grid_s = t.elapsed().as_secs_f64();
    Ok(Release {
        engine,
        core_s,
        freeze_s,
        grid_s,
    })
}

/// Every part's release, with its own noise seed.
fn build_all(parts: &[Part]) -> Result<Vec<Release>, String> {
    parts.iter().map(|p| build_release(p, p.seed)).collect()
}

#[derive(Clone, Copy)]
enum PhaseKind {
    /// Closed loop on this many connections.
    Closed(usize),
    /// Open loop on one connection at this many requests/s; with
    /// `true`, the cadence publisher swaps on a second one meanwhile.
    Open(f64, bool),
    /// Swaps back to back on one connection, no readers.
    Publish,
    /// Release builds back to back in process, server idle: more
    /// `build_s` samples, spread over more of the run than the set-ups.
    Build,
}

/// A phase and the share of `--seconds` it measures.
struct PhaseSpec {
    kind: PhaseKind,
    share: f64,
}

const fn phase(kind: PhaseKind, share: f64) -> PhaseSpec {
    PhaseSpec { kind, share }
}

/// A workload: its releases, traffic and server flags.
struct Spec {
    parts: Vec<Part>,
    /// The noise seed of the epoch release each `swap` publishes in
    /// turn, for the first part's key. Epoch files ship no grid, so the
    /// server builds one.
    epoch_seeds: Vec<u64>,
    proto: Proto,
    batches: Vec<Vec<RangeQuery>>,
    flags: Vec<String>,
    phases: Vec<PhaseSpec>,
    publish_period: Duration,
    /// Closed-loop throughput is measured per window of this many
    /// replies (about 0.1-0.4 s) and reported as the median window, so
    /// a short stall of a shared machine moves it less than a
    /// whole-phase average would.
    qps_window: usize,
    /// All points, for the exact counts behind `query_rel_error`.
    points: PointSet,
}

fn single_part(points: &PointSet, seed: u64) -> Part {
    Part {
        key: "main".into(),
        region: Rect::unit(2),
        points: points.clone(),
        seed: derive_seed(seed, 1),
    }
}

fn batches_of(queries: Vec<RangeQuery>, size: usize) -> Vec<Vec<RangeQuery>> {
    queries.chunks(size).map(|c| c.to_vec()).collect()
}

fn serve_small(seed: u64) -> Spec {
    let points = gowalla_like(SMALL_POINTS, DATA_SEED);
    let main = single_part(&points, seed);
    let queries = range_queries(
        &Rect::unit(2),
        QuerySize::Small,
        512 * 16,
        derive_seed(seed, 2),
    );
    Spec {
        epoch_seeds: vec![main.seed],
        parts: vec![main],
        proto: Proto::Wire,
        batches: batches_of(queries, 16),
        flags: vec![],
        phases: vec![
            phase(PhaseKind::Build, 0.1),
            phase(PhaseKind::Closed(2), 0.35),
            phase(PhaseKind::Open(SMALL_OPEN_RATE, false), 0.35),
            phase(PhaseKind::Publish, 0.2),
        ],
        publish_period: Duration::ZERO,
        qps_window: 1600,
        points,
    }
}

fn serve_bulk(seed: u64) -> Spec {
    let points = gowalla_like(BULK_POINTS, DATA_SEED);
    let main = single_part(&points, seed);
    let per = 24 * 2048;
    let medium = range_queries(&Rect::unit(2), QuerySize::Medium, per, derive_seed(seed, 2));
    let large = range_queries(&Rect::unit(2), QuerySize::Large, per, derive_seed(seed, 3));
    let mixed: Vec<RangeQuery> = medium
        .into_iter()
        .zip(large)
        .flat_map(|(m, l)| [m, l])
        .collect();
    Spec {
        epoch_seeds: vec![main.seed],
        parts: vec![main],
        proto: Proto::Wire,
        batches: batches_of(mixed, 4096),
        flags: vec![],
        phases: vec![
            phase(PhaseKind::Build, 0.2),
            phase(PhaseKind::Closed(2), 0.55),
            phase(PhaseKind::Publish, 0.25),
        ],
        publish_period: Duration::ZERO,
        qps_window: 10,
        points,
    }
}

fn publish_churn(seed: u64) -> Spec {
    let points = gowalla_like(CHURN_POINTS, DATA_SEED);
    // strip boundaries at x-quantiles: equal point counts keep every
    // strip's node count, and so its grid resolution, the same across
    // seeds
    let mut xs: Vec<f64> = points.iter().map(|p| p[0]).collect();
    xs.sort_by(f64::total_cmp);
    let mut cuts: Vec<f64> = (1..STRIPS).map(|i| xs[i * xs.len() / STRIPS]).collect();
    cuts.insert(0, 0.0);
    cuts.push(1.0);
    let mut strips: Vec<PointSet> = (0..STRIPS).map(|_| PointSet::new(2)).collect();
    for p in points.iter() {
        let s = cuts[1..STRIPS].iter().filter(|&&c| p[0] >= c).count();
        strips[s].push(p);
    }
    let region = |i: usize| Rect::new(&[cuts[i], 0.0], &[cuts[i + 1], 1.0]);
    let part = |i: usize, stream: u64| Part {
        key: format!("strip{i}"),
        region: region(i),
        points: strips[i].clone(),
        seed: derive_seed(seed, stream),
    };
    let parts: Vec<Part> = (0..STRIPS).map(|i| part(i, 10 + i as u64)).collect();
    // strip0 alternates between epoch B and its initial release A
    let epoch_seeds = vec![derive_seed(seed, 20), parts[0].seed];
    let queries = range_queries(
        &Rect::unit(2),
        QuerySize::Small,
        512 * 16,
        derive_seed(seed, 2),
    );
    Spec {
        parts,
        epoch_seeds,
        proto: Proto::Text,
        batches: batches_of(queries, 16),
        flags: ["--journal", "--fsync", "always", "--keep-generations", "2"]
            .map(String::from)
            .to_vec(),
        phases: vec![
            phase(PhaseKind::Build, 0.1),
            phase(PhaseKind::Open(CHURN_READ_RATE, true), 0.55),
            phase(PhaseKind::Closed(1), 0.35),
        ],
        publish_period: Duration::from_millis(CHURN_SWAP_PERIOD_MS),
        qps_window: 400,
        points,
    }
}

/// The run's settings.
pub struct Bench {
    pub server: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failures: Failures,
    pub metrics: Metrics,
    /// Why the run is invalid, if it is.
    pub invalid: Option<String>,
    /// Settings and sample counts, recorded next to the result.
    pub notes: Vec<(String, String)>,
}

/// The gated workloads, and `serve-bulk`: it is too unsteady on a
/// shared 2-core machine to gate, so it is left out of
/// `BENCHMARK.json` and runs as the bulk lane of every traced run.
pub const WORKLOADS: [&str; 3] = ["serve-small", "publish-churn", "serve-bulk"];

/// Share of `--seconds` the bulk lane of a traced run measures.
const BULK_LANE_SHARE: f64 = 0.5;
/// What a traced run reports from its bulk lane, each as `bulk.<name>`
/// (`traced.<e2e>` as `bulk.<e2e>`): the serve-bulk end-to-end numbers
/// and the layers the 1M-point release exercises most.
const BULK_LANE_METRICS: [&str; 28] = [
    "traced.setup_s",
    "traced.build_s",
    "traced.answer_qps",
    "traced.request_p50_us",
    "traced.publish_p50_ms",
    "traced.release_bytes",
    "traced.rss_mb",
    "traced.query_rel_error",
    "client.request_p99_us",
    "core.build_s",
    "core.nodes",
    "spatial.freeze_s",
    "spatial.grid_build_s",
    "spatial.grid_cells",
    "spatial.grid_bytes",
    "spatial.frozen_ns_per_query",
    "spatial.grid_ns_per_query",
    "spatial.grid_morton_ns_per_query",
    "runtime.pool_w1_ns_per_query",
    "runtime.pool_w2_ns_per_query",
    "reactor.stage_us.dispatch.mean",
    "reactor.request_us.mean",
    "engine.reactor_ns_per_query",
    "engine.store_swap_us.mean",
    "engine.swap_ms",
    "store.encode_ms",
    "store.import_ms",
    "store.open_mapped_us",
];

pub fn run(bench: &Bench, workload: &str) -> Result<Outcome, String> {
    let spec = match workload {
        "serve-small" => serve_small(bench.seed),
        "publish-churn" => publish_churn(bench.seed),
        "serve-bulk" => serve_bulk(bench.seed),
        other => return Err(format!("unknown workload {other}")),
    };
    let mut outcome = drive(bench, &spec, &WorkDir::new(workload)?)?;
    if bench.trace && workload != "serve-bulk" {
        let lane = Bench {
            server: bench.server.clone(),
            seconds: bench.seconds * BULK_LANE_SHARE,
            ..*bench
        };
        let bulk = drive(&lane, &serve_bulk(bench.seed), &WorkDir::new("serve-bulk")?)?;
        outcome.attempted += bulk.attempted;
        outcome.failures.add(&bulk.failures);
        for name in BULK_LANE_METRICS {
            let (_, value, unit) = bulk
                .metrics
                .0
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or(format!("bulk lane reported no {name}"))?;
            let name = name.strip_prefix("traced.").unwrap_or(name);
            outcome.metrics.put(format!("bulk.{name}"), *value, unit);
        }
        outcome.invalid = outcome.invalid.or(bulk.invalid);
        let notes = bulk
            .notes
            .into_iter()
            .map(|(k, v)| (format!("bulk.{k}"), v));
        outcome.notes.extend(notes);
    }
    Ok(outcome)
}

fn render_text_request(batch: &[RangeQuery]) -> Vec<u8> {
    use std::fmt::Write;
    let mut s = format!("batch {}\n", batch.len());
    for q in batch {
        let (lo, hi) = (q.rect.lo(), q.rect.hi());
        let _ = writeln!(s, "{},{} {},{}", lo[0], lo[1], hi[0], hi[1]);
    }
    s.into_bytes()
}

fn render_reply(proto: Proto, answers: &[f64]) -> Vec<u8> {
    match proto {
        Proto::Wire => {
            let mut out = Vec::with_capacity(12 + answers.len() * 8);
            encode_answer_frame_into(&mut out, answers, false);
            out
        }
        Proto::Text => {
            use std::fmt::Write;
            let mut s = String::with_capacity(answers.len() * 26);
            for a in answers {
                let _ = writeln!(s, "{a:.17e}");
            }
            s.into_bytes()
        }
    }
}

/// One prepared request per batch; a reply from any of `stores` (the
/// epochs a swap can leave serving) is accepted.
fn prepare(proto: Proto, batches: &[Vec<RangeQuery>], stores: &[ReleaseStore]) -> Vec<Request> {
    batches
        .iter()
        .map(|batch| {
            let mut accepted: Vec<Vec<u8>> = Vec::new();
            for store in stores {
                let answers = store.snapshot().synopsis().answer_batch_sequential(batch);
                let reply = render_reply(proto, &answers);
                if !accepted.contains(&reply) {
                    accepted.push(reply);
                }
            }
            Request {
                bytes: match proto {
                    Proto::Wire => encode_query_frame(batch, 2, false),
                    Proto::Text => render_text_request(batch),
                },
                accepted,
                queries: batch.len(),
                lines: batch.len(),
            }
        })
        .collect()
}

/// One timed set-up: from the points in memory to the first correct
/// reply of a freshly spawned server.
struct Setup {
    server: Server,
    setup_s: f64,
    releases: Vec<Release>,
    release_bytes: u64,
    catalog: PathBuf,
}

fn set_up(
    bench: &Bench,
    spec: &Spec,
    work: &WorkDir,
    round: usize,
    probe: &Request,
) -> Result<Setup, String> {
    let dir = work.path(&format!("catalog{round}"));
    let t0 = Instant::now();
    let releases = build_all(&spec.parts)?;
    let mut catalog = Catalog::open_or_create(&dir).map_err(|e| e.to_string())?;
    let mut release_bytes = 0;
    for (part, release) in spec.parts.iter().zip(&releases) {
        let bytes = encode_release(release.engine.frozen(), Some(release.engine.grid()));
        let entry = catalog
            .import(&part.key, &bytes, ReleaseFormat::Binary)
            .map_err(|e| e.to_string())?;
        release_bytes += std::fs::metadata(dir.join(&entry.file))
            .map_err(|e| e.to_string())?
            .len();
    }
    drop(catalog);
    let mut flags = vec![
        "--catalog".to_string(),
        dir.display().to_string(),
        "--grids".to_string(),
    ];
    flags.extend(spec.flags.iter().cloned());
    let server = Server::spawn(&bench.server, &flags)?;
    let mut conn = Conn::connect(server.addr, spec.proto).map_err(|e| format!("connect: {e}"))?;
    let reply = conn
        .call(&probe.bytes, probe.lines)
        .map_err(|e| format!("first request: {e}"))?;
    probe
        .check(spec.proto, &reply)
        .map_err(|f| format!("first reply failed: {f:?}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    Ok(Setup {
        server,
        setup_s,
        releases,
        release_bytes,
        catalog: dir,
    })
}

/// Parse a `metrics` exposition into `name{labels} -> value`.
fn parse_exposition(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

fn drive(bench: &Bench, spec: &Spec, work: &WorkDir) -> Result<Outcome, String> {
    let mut notes: Vec<(String, String)> = Vec::new();
    // the reference: the same seeded builds, in process
    let reference = build_all(&spec.parts)?;
    let swapped = &spec.parts[0];
    // epochs other than the initial release, which `reference` holds
    let other_epochs: Vec<(u64, Release)> = spec
        .epoch_seeds
        .iter()
        .filter(|&&seed| seed != swapped.seed)
        .map(|&seed| Ok((seed, build_release(swapped, seed)?)))
        .collect::<Result<_, String>>()?;
    // one store per epoch the swapped key can serve; a reply from any
    // of them is accepted
    let stores = std::iter::once(&reference[0])
        .chain(other_epochs.iter().map(|(_, r)| r))
        .map(|first| {
            let handles = spec
                .parts
                .iter()
                .zip(&reference)
                .enumerate()
                .map(|(i, (p, r))| {
                    (
                        p.key.clone(),
                        if i == 0 { first.handle() } else { r.handle() },
                    )
                });
            ReleaseStore::open_gridded(handles).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let reqs = prepare(spec.proto, &spec.batches, &stores);

    let mut swaps = Vec::new();
    let mut epoch_files = Vec::new();
    for (i, &seed) in spec.epoch_seeds.iter().enumerate() {
        let release = other_epochs
            .iter()
            .find(|(s, _)| *s == seed)
            .map_or(&reference[0], |(_, r)| r);
        let path = work.path(&format!("epoch{i}.ptbin"));
        std::fs::write(&path, encode_release(release.engine.frozen(), None))
            .map_err(|e| e.to_string())?;
        swaps.push(format!("swap {} {}\n", swapped.key, path.display()).into_bytes());
        epoch_files.push(path);
    }

    // utility guard: served answers (checked equal to the library's)
    // against exact counts
    let all: Vec<RangeQuery> = spec
        .batches
        .iter()
        .flatten()
        .copied()
        .take(ERROR_QUERIES)
        .collect();
    let served = stores[0]
        .snapshot()
        .synopsis()
        .answer_batch_sequential(&all);
    let index = GridIndex::build(&spec.points, &Rect::unit(2));
    let exact: Vec<f64> = all
        .iter()
        .map(|q| index.count(&spec.points, &q.rect) as f64)
        .collect();
    let rel_error = average_relative_error(&served, &exact, smoothing_factor(spec.points.len()));

    // rounds: each one sets a fresh catalog and server up, then runs a
    // slice of every phase on it, so each metric's samples span the run
    let mut samples = Samples::default();
    let mut attempted = 0u64;
    let mut failures = Failures::default();
    let mut layer_rounds: Vec<Metrics> = Vec::new();
    let mut io_written = 0u64;
    let publisher = Publisher {
        swaps: &swaps,
        period: spec.publish_period,
    };
    for round in 0..ROUNDS {
        let setup = set_up(bench, spec, work, round, &reqs[round % reqs.len()])?;
        attempted += 1;
        samples.setup_s.push(setup.setup_s);
        samples.add_build(&setup.releases);
        let server = &setup.server;
        let scrape = || -> Result<HashMap<String, f64>, String> {
            WireClient::connect(server.addr)
                .and_then(|mut c| c.metrics())
                .map(|t| parse_exposition(&t))
                .map_err(|e| format!("metrics scrape: {e}"))
        };
        let before = if bench.trace { Some(scrape()?) } else { None };
        let io_before = server.write_bytes();
        let mut publishes = 0;
        for p in &spec.phases {
            let measure = Duration::from_secs_f64(bench.seconds * p.share / ROUNDS as f64);
            let phase = match p.kind {
                PhaseKind::Closed(conns) => load::closed_loop(
                    server.addr,
                    spec.proto,
                    &reqs,
                    conns,
                    CLOSED_WARMUP,
                    measure,
                ),
                PhaseKind::Open(rate, swaps) => load::open_loop(
                    server.addr,
                    spec.proto,
                    &reqs,
                    rate,
                    measure,
                    swaps.then_some(&publisher),
                ),
                PhaseKind::Publish => load::publish_loop(server.addr, &swaps, measure),
                PhaseKind::Build => {
                    let t = Instant::now();
                    while t.elapsed() < measure {
                        samples.add_build(&build_all(&spec.parts)?);
                    }
                    continue;
                }
            };
            attempted += phase.attempted;
            failures.add(&phase.failures);
            publishes += phase.publish_ms.len();
            samples.add_phase(p.kind, phase, spec.qps_window);
        }
        samples.rss_mb.push(server.vm_hwm_mb());
        io_written += server.write_bytes().saturating_sub(io_before);
        if let Some(before) = before {
            // the server's own count of publishes must match the acks
            let stats = scrape_stats(server.addr).map_err(|e| format!("stats scrape: {e}"))?;
            let served = stats
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("publishes="))
                .and_then(|v| v.parse::<usize>().ok());
            if served != Some(publishes + 1) {
                return Err(format!(
                    "stats reports {served:?} publishes after {publishes} acked swaps"
                ));
            }
            let after = scrape()?;
            layer_rounds.push(layers::from_exposition(
                &before,
                &after,
                spec.proto,
                publishes.max(1) as f64,
            ));
        }
        setup.server.stop();
        let _ = std::fs::remove_dir_all(&setup.catalog);
        if round + 1 == ROUNDS {
            samples.release_bytes = setup.release_bytes;
        }
    }

    let lag_p99 = quantile(&samples.send_lag_us, 0.99);
    let invalid = (lag_p99 > MAX_SEND_LAG_P99_US).then(|| {
        format!(
            "open-loop generator ran late: send lag p99 {lag_p99:.0} us > {MAX_SEND_LAG_P99_US} us"
        )
    });
    let open_loop = spec
        .phases
        .iter()
        .any(|p| matches!(p.kind, PhaseKind::Open(..)));
    let (latency, p99s) = if open_loop {
        (&samples.open_latency_us, &samples.open_p99_us)
    } else {
        (&samples.closed_latency_us, &samples.closed_p99_us)
    };
    notes.push(("rounds".into(), ROUNDS.to_string()));
    notes.push(("latency_samples".into(), latency.len().to_string()));
    notes.push(("p99_rounds".into(), p99s.len().to_string()));
    notes.push(("gen_send_lag_p99_us".into(), format!("{lag_p99:.1}")));
    notes.push((
        "publish_samples".into(),
        samples.publish_ms.len().to_string(),
    ));
    notes.push(("build_samples".into(), samples.build_s.len().to_string()));
    notes.push(("qps_windows".into(), samples.qps_windows.len().to_string()));
    notes.push(("server_flags".into(), spec.flags.join(" ")));

    let mut e2e = Metrics::default();
    e2e.put("setup_s", median(&samples.setup_s), "s");
    e2e.put("build_s", median(&samples.build_s), "s");
    e2e.put("answer_qps", median(&samples.qps_windows), "1/s");
    e2e.put("request_p50_us", median(latency), "us");
    e2e.put("publish_p50_ms", median(&samples.publish_ms), "ms");
    e2e.put("release_bytes", samples.release_bytes as f64, "bytes");
    e2e.put("rss_mb", median(&samples.rss_mb), "MB");
    e2e.put("query_rel_error", rel_error, "ratio");

    let metrics = if bench.trace {
        let mut m = Metrics::default();
        m.extend(Metrics::median_of(&layer_rounds));
        let publishes = samples.publish_ms.len().max(1) as f64;
        m.put(
            "disk.write_bytes_per_publish",
            io_written as f64 / publishes,
            "bytes",
        );
        let timed = timed_batches(&spec.batches);
        let input = LayerInput {
            parts: spec
                .parts
                .iter()
                .zip(&reference)
                .map(|(p, r)| (p.key.as_str(), r))
                .collect(),
            stages: samples.stages.clone(),
            batches: timed,
            store: &stores[0],
            swap_key: &swapped.key,
            epoch_files: &epoch_files,
            text_requests: timed.iter().flat_map(|b| render_text_request(b)).collect(),
            work: work.0.clone(),
        };
        m.extend(layers::in_process(&input)?);
        let snapshot_ns = m.get("engine.snapshot_ns_per_query").unwrap_or(0.0);
        let codec_ns = match spec.proto {
            Proto::Wire => m.get("engine.wire_codec_ns_per_query").unwrap_or(0.0) + snapshot_ns,
            Proto::Text => m.get("engine.text_ns_per_query").unwrap_or(0.0),
        };
        let qps = e2e.get("answer_qps").unwrap_or(0.0);
        m.put(
            "engine.reactor_ns_per_query",
            if qps > 0.0 { 1e9 / qps - codec_ns } else { 0.0 },
            "ns",
        );
        m.put("ops.failed.wrong", failures.wrong as f64, "count");
        m.put("ops.failed.err", failures.err as f64, "count");
        m.put("ops.failed.refused", failures.refused as f64, "count");
        m.put("ops.failed.timeout", failures.timeout as f64, "count");
        m.put("gen.send_lag_p99_us", lag_p99, "us");
        // too unsteady on a shared 2-core machine to gate (see README)
        m.put("client.request_p99_us", median(p99s), "us");
        for (name, value, unit) in e2e.0 {
            m.put(format!("traced.{name}"), value, unit);
        }
        m
    } else {
        e2e
    };
    Ok(Outcome {
        attempted,
        failures,
        metrics,
        invalid,
        notes,
    })
}

/// Every sample a run collects, pooled across its rounds.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    /// Per build: core, freeze and grid stage seconds.
    stages: [Vec<f64>; 3],
    qps_windows: Vec<f64>,
    open_latency_us: Vec<f64>,
    closed_latency_us: Vec<f64>,
    /// One p99 per round's open-loop (or closed-loop) slice.
    open_p99_us: Vec<f64>,
    closed_p99_us: Vec<f64>,
    send_lag_us: Vec<f64>,
    publish_ms: Vec<f64>,
    rss_mb: Vec<f64>,
    release_bytes: u64,
}

impl Samples {
    fn add_build(&mut self, releases: &[Release]) {
        self.build_s
            .push(releases.iter().map(Release::build_s).sum());
        self.stages[0].push(releases.iter().map(|r| r.core_s).sum());
        self.stages[1].push(releases.iter().map(|r| r.freeze_s).sum());
        self.stages[2].push(releases.iter().map(|r| r.grid_s).sum());
    }

    fn add_phase(&mut self, kind: PhaseKind, phase: Phase, qps_window: usize) {
        match kind {
            PhaseKind::Closed(_) => {
                self.qps_windows
                    .extend(load::windowed_qps(&phase, qps_window));
                self.closed_p99_us.push(quantile(&phase.latency_us, 0.99));
                self.closed_latency_us.extend(&phase.latency_us);
            }
            PhaseKind::Open(..) => {
                self.open_p99_us.push(quantile(&phase.latency_us, 0.99));
                self.open_latency_us.extend(&phase.latency_us);
                self.send_lag_us.extend(&phase.send_lag_us);
            }
            PhaseKind::Publish | PhaseKind::Build => {}
        }
        self.publish_ms.extend(&phase.publish_ms);
    }
}

/// The head of the request stream, at most [`TIMED_QUERIES`] queries
/// (one batch at least), that the traced run times in process.
fn timed_batches(batches: &[Vec<RangeQuery>]) -> &[Vec<RangeQuery>] {
    let mut queries = 0;
    let n = batches
        .iter()
        .take_while(|b| {
            queries += b.len();
            queries <= TIMED_QUERIES
        })
        .count();
    &batches[..n.max(1)]
}
