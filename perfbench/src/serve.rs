//! `serve-batch` and `serve-open`: load on one `mo_serve::Server` over
//! the detected machine, from at most two load threads.
//!
//! * `serve-batch` is a closed loop: two clients each keep 16 jobs
//!   outstanding, on a mix of kernels small enough (footprint ≤ L1) for
//!   CGC⇒SB batching to engage.
//! * `serve-open` is an open loop: one generator submits on a fixed
//!   schedule and a second thread collects, on a mix of jobs too large
//!   to batch and anchored at L2. Latency counts from each job's due
//!   time.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use mo_algorithms::real::registry::{run_kernel, Kernel};
use mo_core::rt::HwHierarchy;
use mo_serve::{JobSpec, MetricsSnapshot, Outcome, Rejected, ServeConfig, Server, Ticket};

use crate::jobs::{class_seeds, job_list, Job};
use crate::kernels::width_one;
use crate::report::{
    report_rt, rt_delta, rt_fields, trace_metrics, windows, with_peak_rss, Pass, Report,
};
use crate::stats::{class_percentile, percentile};
use crate::trace::{Layer, Tracer};
use crate::Args;

/// Footprints at most L1: every class batches.
const BATCH_MIX: [(Kernel, usize); 6] = [
    (Kernel::Sort, 1024),
    (Kernel::Fft, 1024),
    (Kernel::Scan, 2048),
    (Kernel::SpmDv, 256),
    (Kernel::Transpose, 32),
    (Kernel::Matmul, 32),
];
const BATCH_CLIENTS: usize = 2;
const BATCH_WINDOW: usize = 16;
const BATCH_JOBS_PER_SECOND: u64 = 50_000;
const BATCH_WARMUP_JOBS: usize = 4_000;

/// Footprints above L1 and within L2: no class batches.
const OPEN_MIX: [(Kernel, usize); 4] = [
    (Kernel::Sort, 8192),
    (Kernel::Fft, 4096),
    (Kernel::Scan, 16384),
    (Kernel::Matmul, 64),
];
const OPEN_RATE: u64 = 1_500;
const OPEN_WARMUP_JOBS: usize = 300;
/// Windows per second of `--seconds`: metrics are medians over windows.
const WINDOWS_PER_SECOND: u64 = 2;
/// Expected jobs per class in a window, at least: enough that a
/// window's p90 always leaves ten samples above it.
const WINDOW_CLASS_JOBS: u64 = 250;

/// One job's end-to-end record, kept for every job of a pass. It is
/// 16 bytes, so the benchmark's own memory stays small beside the
/// server's.
#[derive(Debug, Clone, Copy, Default)]
struct Rec {
    /// End-to-end latency in ms (closed loop: from submit; open loop:
    /// from the job's due time).
    lat_ms: f32,
    /// Completion time in seconds since the pass started.
    end_s: f32,
    /// Open loop: how late the generator called `submit`, in ms.
    late_ms: f32,
    class: u8,
    /// The ticket resolved to `Done`.
    done: bool,
    /// ... with the reference checksum.
    ok: bool,
}

/// What a traced pass records for each job besides its [`Rec`].
#[derive(Debug, Clone, Copy, Default)]
struct Detail {
    /// Open loop: from the start of `submit` to the return of `wait`.
    from_submit: Duration,
    submit: Duration,
    queued: Duration,
    service: Duration,
    batch: usize,
}

/// Shared, read-only description of a serving workload.
struct Load<'a> {
    mix: &'a [(Kernel, usize)],
    seeds: Vec<Vec<u64>>,
    refs: Vec<Vec<u64>>,
}

impl Load<'_> {
    fn spec(&self, job: Job) -> JobSpec {
        let (kernel, n) = self.mix[usize::from(job.class)];
        JobSpec::new(
            kernel,
            n,
            self.seeds[usize::from(job.class)][usize::from(job.seed_ix)],
        )
    }

    fn resolve(
        &self,
        rec: &mut Rec,
        detail: Option<&mut Detail>,
        job: Job,
        ticket: Ticket,
        tr: &mut Tracer,
        id: u64,
    ) {
        let span = tr.open("Ticket::wait", Layer::Serve, id);
        let outcome = ticket.wait();
        tr.close(span);
        if let Outcome::Done(d) = outcome {
            rec.done = true;
            // Warm-up jobs run before the references exist.
            rec.ok = self.refs.is_empty()
                || d.checksum == self.refs[usize::from(job.class)][usize::from(job.seed_ix)];
            if let Some(detail) = detail {
                detail.queued = d.queued;
                detail.service = d.service;
                detail.batch = d.batch_size;
            }
        }
    }
}

/// Per-job records of one load thread; `detail` is empty when untraced.
#[derive(Default)]
struct Log {
    recs: Vec<Rec>,
    detail: Vec<Detail>,
}

impl Log {
    fn new(jobs: &[Job], traced: bool) -> Self {
        Self {
            recs: jobs
                .iter()
                .map(|j| Rec {
                    class: j.class,
                    ..Rec::default()
                })
                .collect(),
            detail: vec![Detail::default(); if traced { jobs.len() } else { 0 }],
        }
    }
}

fn submit(srv: &Server, spec: JobSpec, tr: &mut Tracer, id: u64) -> Result<Ticket, Rejected> {
    let span = tr.open("Server::submit", Layer::Serve, id);
    let t = srv.submit(spec);
    tr.close(span);
    t
}

/// A closed-loop client keeping `window` jobs of `jobs` outstanding.
fn closed_client(
    srv: &Server,
    load: &Load<'_>,
    jobs: &[Job],
    window: usize,
    tr: &mut Tracer,
    id0: u64,
    epoch: Instant,
) -> Log {
    let root = tr.open("client", Layer::Bench, id0);
    let mut log = Log::new(jobs, tr.on());
    let mut inflight: VecDeque<(usize, Instant, Ticket)> = VecDeque::with_capacity(window);
    let finish = |(i, t0, ticket): (usize, Instant, Ticket), log: &mut Log, tr: &mut Tracer| {
        let rec = &mut log.recs[i];
        load.resolve(
            rec,
            log.detail.get_mut(i),
            jobs[i],
            ticket,
            tr,
            id0 + i as u64,
        );
        let now = Instant::now();
        rec.lat_ms = ms(now - t0) as f32;
        rec.end_s = (now - epoch).as_secs_f32();
    };
    for (i, &job) in jobs.iter().enumerate() {
        if inflight.len() == window {
            let head = inflight.pop_front().expect("window is full");
            finish(head, &mut log, tr);
        }
        let t0 = Instant::now();
        let res = submit(srv, load.spec(job), tr, id0 + i as u64);
        if let Some(d) = log.detail.get_mut(i) {
            d.submit = t0.elapsed();
        }
        if let Ok(ticket) = res {
            inflight.push_back((i, t0, ticket));
        }
    }
    while let Some(head) = inflight.pop_front() {
        finish(head, &mut log, tr);
    }
    tr.close(root);
    log
}

/// Sleep until `t`. The timer's overshoot shows as generator lateness;
/// spinning instead would take a core from the server under test.
fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        thread::sleep(t - now);
    }
}

/// The open loop: this thread collects while one generator thread
/// submits job `i` at `start + i / rate`.
fn open_loop(
    srv: &Server,
    load: &Load<'_>,
    jobs: &[Job],
    traced: bool,
    epoch: Instant,
) -> (Log, Duration, Vec<Vec<crate::trace::Span>>) {
    let period = Duration::from_secs_f64(1.0 / OPEN_RATE as f64);
    let start = Instant::now() + Duration::from_millis(1);
    type Sent = (usize, Instant, Instant, Duration, Result<Ticket, Rejected>);
    let (tx, rx) = mpsc::channel::<Sent>();
    thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut tr = Tracer::new(traced, 1, epoch);
            let root = tr.open("generator", Layer::Bench, 0);
            for (i, &job) in jobs.iter().enumerate() {
                let due = start + period * i as u32;
                sleep_until(due);
                let t0 = Instant::now();
                let res = submit(srv, load.spec(job), &mut tr, i as u64);
                let sent = (i, due, t0, t0.elapsed(), res);
                if tx.send(sent).is_err() {
                    break;
                }
            }
            tr.close(root);
            tr.into_spans()
        });
        let mut tr = Tracer::new(traced, 0, epoch);
        let root = tr.open("collector", Layer::Bench, 0);
        let mut log = Log::new(jobs, traced);
        let mut last = start;
        for (i, due, t0, submit_time, res) in rx {
            let rec = &mut log.recs[i];
            rec.late_ms = ms(t0.saturating_duration_since(due)) as f32;
            if let Ok(ticket) = res {
                load.resolve(
                    rec,
                    log.detail.get_mut(i),
                    jobs[i],
                    ticket,
                    &mut tr,
                    i as u64,
                );
            }
            last = Instant::now();
            rec.end_s = (last - start).as_secs_f32();
            rec.lat_ms = ms(last - due) as f32;
            if let Some(d) = log.detail.get_mut(i) {
                d.submit = submit_time;
                d.from_submit = last - t0;
            }
        }
        tr.close(root);
        let gen_spans = generator.join().expect("generator thread panicked");
        (log, last - start, vec![tr.into_spans(), gen_spans])
    })
}

/// `f` of each completed job, one population per job class; `of` holds
/// one entry per record.
fn by_class<T>(recs: &[Rec], of: &[T], classes: usize, f: impl Fn(&T) -> f64) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); classes];
    for (r, x) in recs.iter().zip(of).filter(|(r, _)| r.done) {
        out[usize::from(r.class)].push(f(x));
    }
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn shed_total(m: &MetricsSnapshot) -> u64 {
    m.kernels
        .iter()
        .map(|k| k.shed_queue_full + k.shed_deadline + k.shed_too_large + k.shed_not_certified)
        .sum()
}

struct PassLog {
    pass: Pass,
    log: Log,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

fn pass(
    srv: &Server,
    load: &Load<'_>,
    jobs: &[Job],
    open: bool,
    traced: bool,
    windows_n: usize,
) -> Result<PassLog, String> {
    let before = srv.metrics();
    let epoch = Instant::now();
    let ((log, wall, spans), peak_rss_mb) = with_peak_rss(|| {
        if open {
            open_loop(srv, load, jobs, traced, epoch)
        } else {
            let per = jobs.len().div_ceil(BATCH_CLIENTS);
            let out: Vec<(Log, Vec<crate::trace::Span>)> = thread::scope(|scope| {
                let clients: Vec<_> = jobs
                    .chunks(per)
                    .enumerate()
                    .map(|(c, chunk)| {
                        scope.spawn(move || {
                            let mut tr = Tracer::new(traced, c as u32, epoch);
                            let log = closed_client(
                                srv,
                                load,
                                chunk,
                                BATCH_WINDOW,
                                &mut tr,
                                (c * per) as u64,
                                epoch,
                            );
                            (log, tr.into_spans())
                        })
                    })
                    .collect();
                clients
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            let wall = epoch.elapsed();
            let mut all = Log::default();
            let mut spans = Vec::new();
            for (log, s) in out {
                all.recs.extend(log.recs);
                all.detail.extend(log.detail);
                spans.push(s);
            }
            (all, wall, spans)
        }
    })?;
    let after = srv.metrics();
    let recs = &log.recs;
    let done = recs.iter().filter(|r| r.done).map(|r| {
        (
            f64::from(r.end_s),
            usize::from(r.class),
            f64::from(r.lat_ms),
        )
    });
    let pass = Pass {
        attempted: jobs.len() as u64,
        completed: recs.iter().filter(|r| r.done).count() as u64,
        verified: recs.iter().filter(|r| r.ok).count() as u64,
        wall_s: wall.as_secs_f64(),
        lat_ms: by_class(recs, recs, load.mix.len(), |r| f64::from(r.lat_ms)),
        windows: windows(done, load.mix.len(), wall.as_secs_f64(), windows_n),
        spans,
        peak_rss_mb,
    };
    Ok(PassLog {
        pass,
        log,
        before,
        after,
    })
}

pub fn run(args: &Args, report: &mut Report, open: bool) -> Result<Pass, String> {
    let (mix, count, warm): (&[(Kernel, usize)], u64, usize) = if open {
        (&OPEN_MIX, OPEN_RATE * args.seconds, OPEN_WARMUP_JOBS)
    } else {
        (
            &BATCH_MIX,
            BATCH_JOBS_PER_SECOND * args.seconds,
            BATCH_WARMUP_JOBS,
        )
    };
    let windows_n = (WINDOWS_PER_SECOND * args.seconds)
        .min(count / (WINDOW_CLASS_JOBS * mix.len() as u64))
        .max(1) as usize;
    let mut setup_s = Vec::new();
    let mut state: Option<(Server, Load<'_>, Vec<Job>)> = None;
    for _ in 0..crate::SETUPS {
        if let Some((srv, _, _)) = state.take() {
            srv.drain();
        }
        let t0 = Instant::now();
        let load = Load {
            mix,
            seeds: class_seeds(args.seed, mix.len()),
            refs: Vec::new(),
        };
        let jobs = job_list(args.seed, mix.len(), count as usize);
        let srv = Server::start(HwHierarchy::detect(), ServeConfig::default());
        // Warm up back-to-back, so that set-up is the server's work and
        // not an arrival schedule: the closed loop at its window, the
        // open loop one lone job at a time, as it mostly arrives.
        let window = if open { 1 } else { BATCH_WINDOW };
        let mut off = Tracer::new(false, 0, t0);
        closed_client(&srv, &load, &jobs[..warm], window, &mut off, 0, t0);
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some((srv, load, jobs));
    }
    let (srv, mut load, jobs) = state.expect("at least one set-up");

    // Reference checksums, untimed: every (class, seed) on a width-1 pool.
    let w1 = width_one(srv.hierarchy());
    load.refs = mix
        .iter()
        .zip(&load.seeds)
        .map(|(&(k, n), seeds)| seeds.iter().map(|&s| run_kernel(&w1, k, n, s)).collect())
        .collect();

    let plain = pass(&srv, &load, &jobs, open, false, windows_n)?;
    report.end_to_end(&plain.pass, &setup_s)?;
    if open {
        let late: Vec<f64> = plain
            .log
            .recs
            .iter()
            .map(|r| f64::from(r.late_ms))
            .collect();
        report.note(format!(
            "generator lateness: p50 {:.4} ms, p90 {:.4} ms, max {:.4} ms over {} jobs at {OPEN_RATE}/s",
            percentile(&late, 0.5)?,
            percentile(&late, 0.9)?,
            late.iter().copied().fold(0.0, f64::max),
            late.len()
        ));
    }
    if !args.trace {
        srv.drain();
        return Ok(plain.pass);
    }

    let traced = pass(&srv, &load, &jobs, open, true, windows_n)?;
    layer_metrics(report, &traced, mix.len(), open)?;
    trace_metrics(report, &plain.pass, &traced.pass);
    srv.drain();
    let mut total = traced.pass;
    total.attempted += plain.pass.attempted;
    total.verified += plain.pass.verified;
    Ok(total)
}

fn layer_metrics(
    report: &mut Report,
    log: &PassLog,
    classes: usize,
    open: bool,
) -> Result<(), String> {
    let (recs, detail) = (&log.log.recs, &log.log.detail);
    let done = log.pass.completed;
    let per_class = |f: &dyn Fn(&Detail) -> f64| by_class(recs, detail, classes, f);
    let base = format!("per-class percentile, geometric mean over {classes} classes");
    report.layer(
        "serve.submit_us",
        class_percentile(&per_class(&|d| d.submit.as_secs_f64() * 1e6), 0.5)?,
        format!("p50 of the Server::submit call, {base}"),
    );
    let queued = per_class(&|d| ms(d.queued));
    report.layer(
        "serve.queue_wait_p50_ms",
        class_percentile(&queued, 0.5)?,
        format!("Done.queued, {base}"),
    );
    report.layer(
        "serve.queue_wait_p90_ms",
        class_percentile(&queued, 0.9)?,
        format!("Done.queued, {base}"),
    );
    report.layer(
        "serve.service_ms",
        class_percentile(&per_class(&|d| ms(d.service)), 0.5)?,
        format!("p50 of Done.service, {base}"),
    );
    let done_detail = || recs.iter().zip(detail).filter(|(r, _)| r.done);
    let batch_sum: usize = done_detail().map(|(_, d)| d.batch).sum();
    let batched = done_detail().filter(|(_, d)| d.batch >= 2).count();
    report.layer(
        "serve.batch_size_mean",
        batch_sum as f64 / done as f64,
        format!("mean Done.batch_size over {done} jobs"),
    );
    report.layer(
        "serve.batched_share",
        batched as f64 / done as f64,
        format!("{batched} jobs in batches of 2 or more / {done} jobs"),
    );
    report.layer(
        "serve.shed_total",
        (shed_total(&log.after) - shed_total(&log.before)) as f64,
        "MetricsSnapshot shed counters over the traced pass",
    );
    // Tickets are collected in submission order. In the closed loop a
    // ticket is waited on only when its client needs the slot, so the
    // time after queued + service is the client's, not the respond
    // path's; handoff is measured in the open loop only, where the
    // collector waits on each job as soon as it is sent.
    if open {
        report.layer(
            "serve.handoff_ms",
            class_percentile(
                &per_class(&|d| ms(d.from_submit) - ms(d.queued) - ms(d.service)),
                0.5,
            )?,
            format!("p50 of submit-to-wait-return minus queued minus service, {base}"),
        );
        let late: Vec<f64> = recs.iter().map(|r| f64::from(r.late_ms)).collect();
        report.layer(
            "serve.gen_lateness_p90_ms",
            percentile(&late, 0.9)?,
            format!(
                "p90 of submit start minus due time over {} jobs",
                late.len()
            ),
        );
    }
    report_rt(
        report,
        rt_delta(rt_fields(&log.after.rt), rt_fields(&log.before.rt)),
        log.pass.attempted,
        "MetricsSnapshot.rt delta over the traced pass",
    );
    Ok(())
}
