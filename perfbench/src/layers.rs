//! Per-layer numbers for the traced run: each layer's public functions
//! timed in process on the workload's own releases and request stream
//! (`Instant` around an `#[inline(never)]` loop), plus the live
//! server's telemetry read at the phase boundaries.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use privtree_engine::serve::{load_release, serve_lines, ServeContext};
use privtree_engine::wire::{
    decode_answer_payload, decode_query_payload, encode_answer_frame_into, encode_query_frame,
};
use privtree_engine::ReleaseStore;
use privtree_runtime::telemetry::render_key;
use privtree_runtime::WorkerPool;
use privtree_spatial::query::{RangeCountSynopsis, RangeQuery};
use privtree_store::frame::FRAME_HEADER_LEN;
use privtree_store::{encode_release, Catalog, FsyncPolicy, ReleaseFormat};

use crate::net::Proto;
use crate::stats::{median, Metrics};
use crate::workloads::Release;

/// What the in-process timings run on.
pub struct LayerInput<'a> {
    /// Release keys and the reference releases behind them.
    pub parts: Vec<(&'a str, &'a Release)>,
    /// Per set-up sums of each build stage: core, freeze, grid.
    pub stages: [Vec<f64>; 3],
    pub batches: &'a [Vec<RangeQuery>],
    pub store: &'a ReleaseStore,
    pub swap_key: &'a str,
    pub epoch_files: &'a [PathBuf],
    /// The request stream as text-protocol `batch` commands.
    pub text_requests: Vec<u8>,
    pub work: PathBuf,
}

/// Shortest total time that one timing pass must cover.
const MIN_PASS_S: f64 = 0.05;
/// Timing passes per measurement; the median is reported.
const PASSES: usize = 5;

/// Run `f` over every batch, returning the seconds taken.
#[inline(never)]
fn pass(batches: &[Vec<RangeQuery>], f: &mut dyn FnMut(&[RangeQuery]) -> Vec<f64>) -> f64 {
    let t = Instant::now();
    for b in batches {
        black_box(f(black_box(b)));
    }
    t.elapsed().as_secs_f64()
}

/// Median ns/query of `f` over the request stream, each pass repeating
/// the stream until it covers [`MIN_PASS_S`].
fn ns_per_query(batches: &[Vec<RangeQuery>], mut f: impl FnMut(&[RangeQuery]) -> Vec<f64>) -> f64 {
    let queries: usize = batches.iter().map(Vec::len).sum();
    // one untimed pass fills caches and lazy state
    pass(batches, &mut f);
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let (mut secs, mut reps) = (0.0, 0);
            while secs < MIN_PASS_S {
                secs += pass(batches, &mut f);
                reps += 1;
            }
            secs * 1e9 / (reps * queries) as f64
        })
        .collect();
    median(&samples)
}

/// Median seconds of `reps` runs of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn sum_over_parts(input: &LayerInput, f: impl Fn(&Release) -> f64) -> f64 {
    input.parts.iter().map(|(_, r)| f(r)).sum()
}

pub fn in_process(input: &LayerInput) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let batches = input.batches;
    m.put("core.build_s", median(&input.stages[0]), "s");
    m.put(
        "core.nodes",
        sum_over_parts(input, |r| r.engine.frozen().node_count() as f64),
        "count",
    );
    m.put("spatial.freeze_s", median(&input.stages[1]), "s");
    m.put("spatial.grid_build_s", median(&input.stages[2]), "s");
    m.put(
        "spatial.grid_cells",
        sum_over_parts(input, |r| r.engine.grid().cells() as f64),
        "count",
    );
    m.put(
        "spatial.grid_bytes",
        sum_over_parts(input, |r| r.engine.grid().memory_bytes() as f64),
        "bytes",
    );

    // read paths, summed over the release keys (every query visits each)
    let per_part = |f: &dyn Fn(&Release, &[RangeQuery]) -> Vec<f64>| -> f64 {
        input
            .parts
            .iter()
            .map(|(_, r)| ns_per_query(batches, |b| f(r, b)))
            .sum()
    };
    m.put(
        "spatial.frozen_ns_per_query",
        per_part(&|r, b| r.engine.frozen().answer_batch_sequential(b)),
        "ns",
    );
    m.put(
        "spatial.grid_ns_per_query",
        per_part(&|r, b| r.engine.answer_batch_sequential(b)),
        "ns",
    );
    m.put(
        "spatial.grid_morton_ns_per_query",
        per_part(&|r, b| r.engine.answer_batch_morton(b)),
        "ns",
    );
    for workers in [1, 2] {
        let pool = WorkerPool::new(workers);
        m.put(
            format!("runtime.pool_w{workers}_ns_per_query"),
            per_part(&|r, b| r.engine.answer_batch_with_pool(b, &pool)),
            "ns",
        );
    }
    m.put(
        "engine.snapshot_ns_per_query",
        ns_per_query(batches, |b| {
            input.store.snapshot().synopsis().answer_batch(b)
        }),
        "ns",
    );

    // codecs: the wire round trip of each request and its answers, and
    // the text protocol loop over the whole stream without a socket
    let answers: Vec<Vec<f64>> = batches
        .iter()
        .map(|b| input.store.snapshot().synopsis().answer_batch_sequential(b))
        .collect();
    let mut k = 0;
    m.put(
        "engine.wire_codec_ns_per_query",
        ns_per_query(batches, |b| {
            let frame = encode_query_frame(b, 2, false);
            let decoded = decode_query_payload(&frame[FRAME_HEADER_LEN..], 2).expect("valid frame");
            black_box(decoded);
            let mut out = Vec::new();
            encode_answer_frame_into(&mut out, &answers[k % answers.len()], false);
            k += 1;
            decode_answer_payload(&out[FRAME_HEADER_LEN..]).expect("valid answers")
        }),
        "ns",
    );
    let ctx = ServeContext::new(gridded_store(input)?);
    let queries: usize = batches.iter().map(Vec::len).sum();
    serve_lines(&ctx, &input.text_requests[..], std::io::sink()).map_err(|e| e.to_string())?;
    let text_s = time_median(PASSES, || {
        serve_lines(&ctx, &input.text_requests[..], std::io::sink()).expect("in-memory stream");
    });
    m.put(
        "engine.text_ns_per_query",
        text_s * 1e9 / queries as f64,
        "ns",
    );

    // the publish path, stage by stage
    let epoch = &input.epoch_files[0];
    let epoch_path = epoch.display().to_string();
    m.put(
        "engine.load_release_ms",
        time_median(PASSES, || {
            black_box(load_release(&epoch_path).expect("epoch file loads"));
        }) * 1e3,
        "ms",
    );
    // a swap on a gridded store: routing arena plus the epoch's grid
    let swap_store = gridded_store(input)?;
    let swap_samples: Vec<f64> = (0..PASSES)
        .map(|turn| {
            let path = input.epoch_files[turn % input.epoch_files.len()]
                .display()
                .to_string();
            let handle = load_release(&path).expect("epoch file loads");
            let t = Instant::now();
            swap_store.swap(input.swap_key, handle).expect("swap");
            t.elapsed().as_secs_f64()
        })
        .collect();
    m.put("engine.swap_ms", median(&swap_samples) * 1e3, "ms");

    let (_, swapped) = input
        .parts
        .iter()
        .find(|(key, _)| *key == input.swap_key)
        .expect("the swap key is a part");
    let bytes = encode_release(swapped.engine.frozen(), Some(swapped.engine.grid()));
    m.put(
        "store.encode_ms",
        time_median(PASSES, || {
            for (_, r) in &input.parts {
                black_box(encode_release(r.engine.frozen(), Some(r.engine.grid())));
            }
        }) * 1e3,
        "ms",
    );
    m.put(
        "store.import_ms",
        import_ms(&input.work.join("layer-plain"), &bytes, None)?,
        "ms",
    );
    m.put(
        "store.import_journaled_ms",
        import_ms(
            &input.work.join("layer-journal"),
            &bytes,
            Some(FsyncPolicy::Always),
        )?,
        "ms",
    );
    let dir = input.work.join("layer-mapped");
    let mut catalog = Catalog::open_or_create(&dir).map_err(|e| e.to_string())?;
    catalog
        .import(input.swap_key, &bytes, ReleaseFormat::Binary)
        .map_err(|e| e.to_string())?;
    m.put(
        "store.open_mapped_us",
        time_median(PASSES * 4, || {
            black_box(catalog.load_mapped(input.swap_key).expect("mapped open"));
        }) * 1e6,
        "us",
    );
    Ok(m)
}

/// A fresh gridded store over the workload's releases.
fn gridded_store(input: &LayerInput) -> Result<ReleaseStore, String> {
    ReleaseStore::open_gridded(
        input
            .parts
            .iter()
            .map(|(key, r)| (key.to_string(), r.handle())),
    )
    .map_err(|e| e.to_string())
}

/// Median milliseconds of `Catalog::import` of `bytes` (a fresh
/// generation each time), journaled under `policy` when given.
fn import_ms(dir: &Path, bytes: &[u8], policy: Option<FsyncPolicy>) -> Result<f64, String> {
    let mut catalog = Catalog::open_or_create(dir).map_err(|e| e.to_string())?;
    if let Some(policy) = policy {
        catalog.enable_journal(policy).map_err(|e| e.to_string())?;
    }
    let mut failed = None;
    let secs = time_median(PASSES, || {
        if let Err(e) = catalog.import("layer", bytes, ReleaseFormat::Binary) {
            failed = Some(e.to_string());
        }
    });
    match failed {
        Some(e) => Err(e),
        None => Ok(secs * 1e3),
    }
}

/// Value of an exposition key, 0 when the server never registered it.
fn at(map: &HashMap<String, f64>, key: &str) -> f64 {
    map.get(key).copied().unwrap_or(0.0)
}

/// Per-layer numbers from the `metrics` scrapes before and after a
/// round's phases. Each histogram timing is reported twice: `.p50` as
/// the server exposes it at the round's end (a log-bucket upper bound,
/// ±25%, so it hides changes smaller than a bucket), and `.mean` over
/// the round's phases, Δ`_sum` / Δ`_count`, which shows them.
pub fn from_exposition(
    before: &HashMap<String, f64>,
    after: &HashMap<String, f64>,
    proto: Proto,
    publishes: f64,
) -> Metrics {
    let delta = |key: &str| at(after, key) - at(before, key);
    let mut m = Metrics::default();
    let mut histogram = |metric: &str, name: &str, labels: &[(String, String)]| {
        let count = delta(&render_key(&format!("{name}_count"), labels, None));
        let sum = delta(&render_key(&format!("{name}_sum"), labels, None));
        m.put(
            format!("{metric}.mean"),
            if count > 0.0 { sum / count } else { 0.0 },
            "us",
        );
        m.put(
            format!("{metric}.p50"),
            at(after, &render_key(name, labels, Some("0.5"))),
            "us",
        );
    };
    for stage in ["decode", "coalesce", "dispatch", "scatter", "flush"] {
        histogram(
            &format!("reactor.stage_us.{stage}"),
            "reactor_stage_us",
            &[("stage".into(), stage.into())],
        );
    }
    let proto = [(
        "proto".to_string(),
        match proto {
            Proto::Wire => "wire",
            Proto::Text => "text",
        }
        .to_string(),
    )];
    histogram("reactor.request_us", "request_us", &proto);
    histogram("store.journal_append_us", "journal_append_us", &[]);
    histogram("store.journal_fsync_us", "journal_fsync_us", &[]);
    histogram("engine.store_swap_us", "store_swap_us", &[]);
    m.put(
        "reactor.request_us.p99",
        at(after, &render_key("request_us", &proto, Some("0.99"))),
        "us",
    );
    let dispatches = delta("coalesced_dispatches_total");
    m.put(
        "runtime.coalesce.spans_per_dispatch",
        if dispatches > 0.0 {
            delta("coalesced_spans_total") / dispatches
        } else {
            0.0
        },
        "ratio",
    );
    m.put(
        "disk.fsyncs_per_publish",
        delta("journal_fsyncs_total") / publishes,
        "count",
    );
    m.put("reactor.shed", at(after, "conns_shed_total"), "count");
    m.put("reactor.evicted", at(after, "conns_evicted_total"), "count");
    m.put("reactor.resyncs", at(after, "line_resyncs_total"), "count");
    m
}
