//! The traced run: every layer measured from the outside, on the
//! workload's own inputs and shapes. Each probe is a span around calls to
//! a crate's public functions; nothing is traced inside the program.
//!
//! Every workload reports every layer metric. The training layers run on
//! the workload's ratings with its training configuration (`serve-topk`
//! trains briefly on its seen-item ratings); the serving layers run on the
//! workload's model (the trained factors for `train-*`, the generated
//! checkpoint for `serve-topk`).

use crate::outcome::Outcome;
use crate::serve::{self, ServeInputs};
use crate::spec::{Spec, Workload, CAPACITY, MAX_BATCH, OPEN_RATE, SERVE_SHARDS, TOPK};
use crate::stats::{median, percentile, Summary};
use crate::trace::{self, Tracer};
use crate::train::{self, TrainInputs};
use hcc_comm::{Frame, Precision as Wire, RpcKind, Transport};
use hcc_mf::{HccReport, ShardedServer, TrainingMeta};
use hcc_partition::{ShardRouter, WorkerClass};
use hcc_serve::{AdmissionConfig, AdmissionPipeline, Precision, ServeEngine, ServedModel};
use hcc_sgd::{FactorMatrix, HogwildConfig, Schedule, SharedFactors};
use hcc_sparse::TileGrid;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Repetitions of each timed probe call; probes report the median.
const REPS: usize = 3;
/// Length of each traced open-loop phase.
const OPEN_PHASE: Duration = Duration::from_millis(1500);

/// Times `REPS` spanned calls of `f` under `parent`; returns the median
/// seconds and the last result.
fn probe<R>(
    tr: &Tracer,
    name: &'static str,
    parent: usize,
    mut f: impl FnMut() -> R,
) -> (Option<Summary>, R) {
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let (r, secs) = tr.span(name, Some(parent), |_| f());
        times.push(secs);
        last = Some(r);
    }
    (median(&times), last.expect("REPS > 0"))
}

fn scaled(s: Option<Summary>, by: f64) -> Option<Summary> {
    s.map(|s| Summary {
        value: s.value * by,
        ..s
    })
}

fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The slowest worker's phases and the sync of each epoch, as medians over
/// epochs, plus the share of epoch wall time that none of them covers.
fn epoch_breakdown(r: &HccReport, out: &mut Outcome) -> [f64; 4] {
    let (mut pull, mut comp, mut push, mut sync) = (vec![], vec![], vec![], vec![]);
    let (mut residual, mut wall) = (0.0, 0.0);
    for (e, stats) in r.worker_stats.iter().enumerate() {
        let Some(w) = stats.iter().max_by_key(|s| s.total()) else {
            continue;
        };
        let s = r.sync_times.get(e).map_or(0.0, Duration::as_secs_f64);
        let t = r.epoch_times.get(e).map_or(0.0, Duration::as_secs_f64);
        pull.push(w.pull.as_secs_f64());
        comp.push(w.compute.as_secs_f64());
        push.push(w.push.as_secs_f64());
        sync.push(s);
        residual += (t - w.total().as_secs_f64() - s).max(0.0);
        wall += t;
    }
    let m = |v: &[f64]| median(v);
    let vals = [m(&pull), m(&comp), m(&push), m(&sync)];
    out.metric("epoch.pull_s", "s", vals[0]);
    out.metric("epoch.comp_s", "s", vals[1]);
    out.metric("epoch.push_s", "s", vals[2]);
    out.metric("epoch.sync_s", "s", vals[3]);
    out.metric(
        "epoch.residual_frac",
        "fraction",
        (wall > 0.0).then_some(Summary {
            value: residual / wall,
            samples: r.epoch_times.len(),
        }),
    );
    vals.map(|v| v.map_or(0.0, |s| s.value))
}

/// The workload's parameter-server transport over a `n × k` region:
/// shared memory, or a two-shard server over TCP with row deltas.
fn transport(spec: &Spec) -> Result<Arc<dyn Transport>, String> {
    let (n, k) = (spec.items as usize, spec.k);
    if !spec.wire {
        return Ok(Arc::new(hcc_comm::CommShared::new(
            2,
            n * k,
            n * k,
            Wire::Fp32,
        )));
    }
    let router = ShardRouter::uniform(n, 2);
    let mut inners: Vec<Arc<dyn Transport>> = Vec::new();
    for s in 0..2 {
        let cfg = hcc_comm::SocketConfig {
            delta_push: true,
            ..hcc_comm::SocketConfig::default()
        };
        let sock = hcc_comm::CommSocket::with_config_tcp(
            2,
            router.range(s).len() * k,
            ShardedServer::shard_push_len(&router, s, k),
            Wire::Fp32,
            cfg,
        )
        .map_err(|e| format!("tcp shard {s}: {e}"))?;
        inners.push(Arc::new(sock));
    }
    Ok(Arc::new(ShardedServer::new(
        router,
        k,
        n * k,
        Wire::Fp32,
        inners,
    )))
}

/// Training-side layers: tile grid, sweep, kernel, planner, transport,
/// wire codecs, merge and the supervision costs.
fn training_layers(
    tr: &Tracer,
    root: usize,
    spec: &Spec,
    inputs: &TrainInputs,
    report: &HccReport,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let (m, n, k) = (spec.users as usize, spec.items as usize, spec.k);
    // One worker's shard: the first half of the ratings, which the
    // generator writes user by user, so a contiguous row range.
    let entries = inputs.train.entries();
    let shard = &entries[..entries.len() / 2];

    let (t, grid) = probe(tr, "sparse.tile_build", root, || {
        TileGrid::with_default_budget(shard, m, n, k)
    });
    out.metric("sparse.tile_build_s", "s", t);

    // Fresh factors, as at the start of training.
    let p = SharedFactors::from_matrix(&FactorMatrix::random(m, k, 1));
    let q = SharedFactors::from_matrix(&FactorMatrix::random(n, k, 2));
    let q_before = q.snapshot();
    let hw = HogwildConfig {
        threads: 1,
        learning_rate: spec.lr,
        lambda_p: 0.01,
        lambda_q: 0.01,
        schedule: Schedule::Tiled,
    };
    let (t, _) = probe(tr, "sgd.hogwild_epoch_tiled", root, || {
        hcc_sgd::hogwild_epoch_tiled(&grid, &p, &q, &hw)
    });
    out.metric(
        "sgd.sweep_updates_per_s",
        "1/s",
        t.map(|s| Summary {
            value: shard.len() as f64 / s.value,
            ..s
        }),
    );
    let q_after = q.snapshot();

    // The kernel alone: 64 rows stay in L1, so memory latency is left to
    // the sweep.
    const DOTS: usize = 1 << 22;
    const HOT: usize = 64;
    let (t, _) = probe(tr, "sgd.simd_dot", root, || {
        let mut acc = 0f32;
        for i in 0..DOTS {
            let a = q_after.row(i % HOT.min(n));
            let b = q_after.row((i / HOT + 1) % HOT.min(n));
            acc += hcc_sgd::simd::dot(black_box(a), black_box(b));
        }
        black_box(acc)
    });
    out.metric("sgd.dot_ns", "ns", scaled(t, 1e9 / DOTS as f64));

    // Planner inputs: the traced run's last measured per-worker compute
    // times, partition and sync.
    let times: Vec<f64> = report
        .worker_stats
        .last()
        .map(|w| {
            w.iter()
                .map(|s| s.compute.as_secs_f64().max(1e-6))
                .collect()
        })
        .unwrap_or_default();
    let x = report
        .final_partition()
        .map(<[f64]>::to_vec)
        .unwrap_or_default();
    let sync = report.sync_times.last().map_or(0.0, Duration::as_secs_f64);
    if times.len() == 2 && x.len() == 2 {
        const PLANS: usize = 10_000;
        let classes = [WorkerClass::Cpu, WorkerClass::Cpu];
        let (t, _) = probe(tr, "partition.plan", root, || {
            for _ in 0..PLANS {
                black_box(hcc_partition::dp0(black_box(&times)));
                black_box(hcc_partition::dp1_step(&x, &times, &classes, 0.05));
                black_box(hcc_partition::dp2(&x, &times, sync));
            }
        });
        out.metric("partition.plan_us", "us", scaled(t, 1e6 / PLANS as f64));
    } else {
        out.problem(format!(
            "planner probe: {} worker times, partition of {}",
            times.len(),
            x.len()
        ));
    }

    // Transport: one worker's pull, push and the server's collect, over
    // the workload's region (Q only).
    let wire = transport(spec)?;
    let mut buf = vec![0f32; n * k];
    let (mut pulls, mut pushes, mut collects) = (vec![], vec![], vec![]);
    let mut collected_ok = true;
    for _ in 0..REPS {
        wire.publish(q_before.as_slice());
        pulls.push(
            tr.span("comm.pull", Some(root), |_| wire.pull(0, &mut buf))
                .1,
        );
        pushes.push(
            tr.span("comm.push", Some(root), |_| {
                wire.push(0, q_after.as_slice())
            })
            .1,
        );
        let (r, secs) = tr.span("comm.collect", Some(root), |_| {
            wire.collect_timeout(0, &mut buf, Duration::from_secs(30))
        });
        collects.push(secs);
        collected_ok &= r.is_ok() && bitwise_eq(&buf, q_after.as_slice());
    }
    drop(wire);
    if !collected_ok {
        out.problem("comm: collected region differs from the pushed one");
    }
    out.metric("comm.pull_s", "s", median(&pulls));
    out.metric("comm.push_s", "s", median(&pushes));
    out.metric("comm.collect_s", "s", median(&collects));
    let epochs = report.epoch_times.len().max(1);
    out.value(
        "comm.wire_mb_per_epoch",
        "MiB",
        report.wire_bytes as f64 / epochs as f64 / (1 << 20) as f64,
        epochs,
    );

    let (_, delta) = probe(tr, "comm.encode_delta", root, || {
        hcc_comm::encode_delta(q_before.as_slice(), q_after.as_slice(), k)
    });
    out.value(
        "comm.delta_ratio",
        "ratio",
        delta.len() as f64 / (n * k) as f64,
        1,
    );
    let mut dst = q_before.as_slice().to_vec();
    let (t, applied) = probe(tr, "comm.apply_delta", root, || {
        dst.copy_from_slice(q_before.as_slice());
        hcc_comm::apply_delta(&delta, k, &mut dst)
    });
    if applied.is_err() || !bitwise_eq(&dst, q_after.as_slice()) {
        out.problem("comm: applying the delta did not reproduce the region");
    }
    out.metric("comm.delta_apply_s", "s", t);

    let frame = Frame {
        kind: RpcKind::Push,
        precision: Wire::Fp32,
        worker: 0,
        epoch: 1,
        chunk: 0,
        payload: q_after.as_slice().to_vec(),
    };
    let (t, decoded) = probe(tr, "comm.frame_codec", root, || {
        Frame::decode(&frame.encode())
    });
    if !matches!(&decoded, Ok(f) if *f == frame) {
        out.problem("comm: frame did not survive encode + decode");
    }
    out.metric("comm.frame_codec_s", "s", t);
    let bytes = frame.encode();
    let (t, _) = probe(tr, "comm.crc32", root, || {
        hcc_comm::crc32(black_box(&bytes))
    });
    out.metric(
        "comm.crc32_gbps",
        "GB/s",
        t.map(|s| Summary {
            value: bytes.len() as f64 / s.value / 1e9,
            ..s
        }),
    );

    let mut acc = vec![0f32; n * k];
    let (t, _) = probe(tr, "core.merge_weighted", root, || {
        hcc_mf::server::merge_weighted(&mut acc, q_after.as_slice(), 0.5)
    });
    out.metric("core.merge_s", "s", t);

    let ckpt = scratch.join("probe.ckpt");
    let (t, saved) = probe(tr, "core.save_checkpoint", root, || {
        hcc_mf::save_checkpoint(&ckpt, &report.p, &report.q, &TrainingMeta::default())
    });
    if let Err(e) = saved {
        out.problem(format!("save_checkpoint: {e}"));
    }
    out.metric("core.checkpoint_s", "s", t);
    let (t, _) = probe(tr, "core.rmse", root, || {
        hcc_sgd::rmse(entries, &report.p, &report.q)
    });
    out.metric("core.eval_s", "s", t);
    let (t, _) = probe(tr, "core.snapshot", root, || {
        black_box((report.p.clone(), report.q.clone()))
    });
    out.metric("core.snapshot_s", "s", t);
    Ok(())
}

/// What the serving layers hand back to the caller.
struct ServeFigures {
    late_p99_us: Option<f64>,
    open_p50_plain_us: Option<f64>,
    open_p50_traced_us: Option<f64>,
    queue_wait_us: Option<f64>,
    topk_us: Option<f64>,
}

/// Serving layers: checkpoint load, model build, single and batched
/// top-k, and the admission queue under an open loop.
fn serving_layers(
    tr: &Tracer,
    root: usize,
    seed: u64,
    si: &ServeInputs,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<ServeFigures, String> {
    let ckpt = scratch.join("probe-model.ckpt");
    hcc_mf::save_model(&ckpt, &si.p, &si.q).map_err(|e| format!("save_model: {e}"))?;
    let (t, loaded) = probe(tr, "serve.load_model", root, || hcc_mf::load_model(&ckpt));
    let (p, q) = loaded.map_err(|e| format!("load_model: {e}"))?;
    out.metric("serve.load_s", "s", t);
    let (t, model) = probe(tr, "serve.build_with", root, || {
        ServedModel::build_with(
            p.clone(),
            q.clone(),
            Some(&si.seen),
            SERVE_SHARDS,
            Precision::F32,
            true,
        )
    });
    let model = model.map_err(|e| format!("build_with: {e}"))?;
    out.metric("serve.build_s", "s", t);

    let engine = Arc::new(ServeEngine::new(model));
    let users = si.query_users(seed, 4096);
    let mut single = Vec::with_capacity(1024);
    let mut bad = 0u64;
    for &u in &users[..1024] {
        let (ans, secs) = tr.span("serve.top_k", Some(root), |_| engine.top_k(u, TOPK));
        single.push(secs * 1e6);
        bad += u64::from(!matches!(ans, Ok(a) if a.len() == si.expected_len(u)));
    }
    let topk = percentile(&single, 50.0);
    out.metric("serve.topk_us", "us", topk);
    let mut batched = Vec::new();
    for chunk in users[1024..2048].chunks(MAX_BATCH) {
        let (ans, secs) = tr.span("serve.top_k_batch", Some(root), |_| {
            engine.top_k_batch(chunk, TOPK)
        });
        batched.push(secs * 1e6 / chunk.len() as f64);
        bad += u64::from(!matches!(ans, Ok(a) if a.len() == chunk.len()));
    }
    out.metric("serve.batch_us_per_query", "us", median(&batched));
    out.value(
        "serve.scan_frac",
        "fraction",
        engine.stats().scan_frac,
        2048,
    );
    out.phase("engine_calls", 1024 + batched.len() as u64, bad);

    // The open loop runs below the measured single-thread capacity, so
    // nothing sheds on slower models (trained factors prune less).
    let topk_us = topk.map(|s| s.value);
    let rate = topk_us.map_or(OPEN_RATE, |us| OPEN_RATE.min(0.25e6 / us.max(1e-3)));
    out.note("probe_open_rate_qps", format!("{rate:.0}"));
    let pipe = AdmissionPipeline::new(
        Arc::clone(&engine),
        AdmissionConfig {
            capacity: CAPACITY,
            max_batch: MAX_BATCH,
        },
    );
    let plain = serve::open_loop(&pipe, si, &users, rate, OPEN_PHASE, None);
    let (traced, _) = tr.span("serve.open_loop", Some(root), |id| {
        serve::open_loop(&pipe, si, &users, rate, OPEN_PHASE, Some((tr, id)))
    });
    let (checked, wrong) = serve::oracle_check(&pipe, si, seed);
    let shed = pipe.stats().shed;
    drop(pipe);
    out.phase(
        "open_loop",
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    );
    out.phase("oracle_check", checked, wrong);
    let attempted = (plain.attempted + traced.attempted).max(1);
    out.value(
        "serve.shed_frac",
        "fraction",
        shed as f64 / attempted as f64,
        attempted as usize,
    );
    let p50 = percentile(&plain.latency_us, 50.0);
    out.metric("serve.p99_us", "us", percentile(&plain.latency_us, 99.0));
    let queue_wait = match (p50, topk) {
        (Some(a), Some(b)) => Some(Summary {
            value: a.value - b.value,
            samples: a.samples,
        }),
        _ => None,
    };
    out.metric("serve.queue_wait_us", "us", queue_wait);
    let late = percentile(&plain.late_us, 99.0);
    out.metric("gen.late_p99_us", "us", late);
    Ok(ServeFigures {
        late_p99_us: late.map(|s| s.value),
        open_p50_plain_us: p50.map(|s| s.value),
        open_p50_traced_us: percentile(&traced.latency_us, 50.0).map(|s| s.value),
        queue_wait_us: queue_wait.map(|s| s.value),
        topk_us,
    })
}

/// The traced run. Writes `spans.jsonl` to `out_dir` and returns the
/// generator's p99 lateness for the host fingerprint.
pub fn run(
    workload: Workload,
    seed: u64,
    input: &Path,
    scratch: &Path,
    out_dir: &Path,
    run_id: &str,
    out: &mut Outcome,
) -> Result<Option<f64>, String> {
    let spec = workload.spec();
    let tr = Tracer::new();
    let inputs = TrainInputs::load(input, &spec, seed)?;
    let cfg = train::config(&spec, seed, scratch)?;

    // The training call, once plain and once inside a span: the span's
    // cost over the plain call is the tracing overhead on train-*.
    let plain = train::call(&cfg, &inputs)?;
    let (traced, traced_s) = tr.span("core.train", None, |_| train::call(&cfg, &inputs));
    let traced = traced?;
    let failed = [&plain, &traced]
        .iter()
        .filter(|c| !c.problems.is_empty())
        .count();
    for p in plain.problems.iter().chain(&traced.problems) {
        out.problem(format!("train: {p}"));
    }
    out.phase("train_calls", 2, failed as u64);
    out.value(
        "train.test_rmse",
        "rmse",
        traced.test_rmse,
        inputs.test.len(),
    );
    out.note("init_rmse", format!("{:.4}", inputs.init_rmse));
    out.note("mean_predictor_rmse", format!("{:.4}", inputs.mean_rmse));
    let phases = epoch_breakdown(&traced.report, out);

    let (layers, _) = tr.span("layers.train", None, |root| {
        training_layers(&tr, root, &spec, &inputs, &traced.report, scratch, out)
    });
    layers?;

    let si = if workload.trains() {
        let report = traced.report;
        ServeInputs::new(report.p, report.q, inputs.train)
    } else {
        drop(inputs);
        ServeInputs::load(input)?
    };
    let (figs, _) = tr.span("layers.serve", None, |root| {
        serving_layers(&tr, root, seed, &si, scratch, out)
    });
    let figs = figs?;

    let overhead = if workload.trains() {
        Some(traced_s / plain.train_s - 1.0)
    } else {
        figs.open_p50_traced_us
            .zip(figs.open_p50_plain_us)
            .map(|(t, p)| t / p - 1.0)
    };
    match overhead {
        Some(v) => out.value("trace.overhead_frac", "fraction", v, 2),
        None => out.problem("trace.overhead_frac: no open-loop p50"),
    }

    // Which layer dominates: the epoch phase with the largest share on
    // train-*, the admission handoff against the scan on serve-topk.
    let dominant = if workload.trains() {
        let names = ["pull", "compute", "push", "sync"];
        let (i, _) = phases
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("four phases");
        let epoch = phases.iter().sum::<f64>().max(f64::MIN_POSITIVE);
        format!(
            "epoch {} ({:.0}% of the slowest worker's phases + sync; pull+push {:.0}%)",
            names[i],
            100.0 * phases[i] / epoch,
            100.0 * (phases[0] + phases[2]) / epoch
        )
    } else {
        match (figs.queue_wait_us, figs.topk_us) {
            (Some(w), Some(s)) if w > s => {
                format!("admission handoff ({w:.1} us queue wait vs {s:.1} us scan)")
            }
            (Some(w), Some(s)) => format!("scan ({s:.1} us vs {w:.1} us queue wait)"),
            _ => "unknown".into(),
        }
    };
    out.note("dominant", dominant);

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let spans_path = out_dir.join("spans.jsonl");
    tr.write_jsonl(&spans_path, workload.name(), run_id)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    for (name, t) in trace::self_times(&tr.spans()) {
        out.note(
            &format!("self_time.{name}"),
            format!(
                "{:.6} s self / {:.6} s total over {} spans",
                t.self_s, t.total_s, t.count
            ),
        );
    }
    Ok(figs.late_p99_us)
}
