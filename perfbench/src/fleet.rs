//! `fleet`: a two-worker `LocalFleet` (real loopback TCP, one control
//! connection per worker). A round is one distributed sort, one
//! distributed N-GEP and four routed single-shard jobs; every output is
//! checked against the `NoMachine` simulator or a width-1 registry run.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

use mo_algorithms::real::registry::{run_kernel, Kernel};
use mo_core::rt::HwHierarchy;
use mo_dist::{level_table, DistOutcome, LocalFleet, Msg, Router};
use no_framework::algs::{ngep, sort};
use no_framework::NoMachine;

use crate::jobs::{class_seeds, round_seeds};
use crate::kernels::width_one;
use crate::report::{round_windows, trace_metrics, with_peak_rss, Pass, Report, MIN_ROUNDS};
use crate::stats::{class_percentile, percentile};
use crate::trace::{Layer, Tracer};
use crate::Args;

const WORKERS: usize = 2;
const SORT_N: usize = 1024;
const NGEP_N: usize = 32;
const NGEP_KAPPA: usize = 4;
/// The routed jobs of each round, one per class.
const SUBMIT_MIX: [(Kernel, usize); 4] = [
    (Kernel::Sort, 1024),
    (Kernel::Fft, 1024),
    (Kernel::Scan, 2048),
    (Kernel::Matmul, 32),
];
/// Rounds per second of `--seconds` (a round takes about 45 ms).
const ROUNDS_PER_SECOND: u64 = 18;
const WARMUP_ROUNDS: usize = 2;

/// What the simulator says a distributed run must produce. The traffic
/// signature is kept as a hash: the full one runs to megabytes a slot.
struct Expect {
    output: Vec<u64>,
    supersteps: usize,
    signature: u64,
}

fn signature_hash(sig: &[Vec<Msg>]) -> u64 {
    let mut h = DefaultHasher::new();
    sig.hash(&mut h);
    h.finish()
}

impl Expect {
    fn sort(seed: u64) -> Self {
        let input = mo_dist::data::sort_input(SORT_N, seed);
        let mut sim = NoMachine::new(SORT_N);
        sort::sort_program(&mut sim, &input);
        let output = (0..SORT_N).map(|pe| sim.mem(pe)[0]).collect();
        Self::from_sim(&sim, output)
    }

    fn ngep(seed: u64) -> Self {
        let (n, kappa) = (NGEP_N, NGEP_KAPPA);
        let input = mo_dist::data::ngep_input(n, seed);
        let nb = n / kappa;
        let mut sim = NoMachine::new(nb * nb);
        ngep::ngep_program_on(
            &mut sim,
            &input,
            n,
            kappa,
            mo_dist::data::fw_update,
            ngep::UpdateSet::All,
            ngep::DOrder::DStar,
        );
        let mut output = vec![0u64; n * n];
        for bi in 0..nb {
            for bj in 0..nb {
                let block = sim.mem(ngep::morton(bi, bj));
                for i in 0..kappa {
                    for j in 0..kappa {
                        output[(bi * kappa + i) * n + bj * kappa + j] = block[i * kappa + j];
                    }
                }
            }
        }
        Self::from_sim(&sim, output)
    }

    fn from_sim(sim: &NoMachine, output: Vec<u64>) -> Self {
        Self {
            output,
            supersteps: sim.supersteps(),
            signature: signature_hash(&sim.traffic_signature()),
        }
    }

    fn matches(&self, got: &DistOutcome) -> bool {
        got.output == self.output
            && got.supersteps == self.supersteps
            && signature_hash(&got.signature) == self.signature
            && got.socket_words_per_level == got.recv_words_per_level
    }
}

/// References for every seed slot, computed once, untimed.
struct Refs {
    sort: Vec<Expect>,
    ngep: Vec<Expect>,
    /// Routed-job checksums per class and seed slot.
    submit: Vec<Vec<u64>>,
}

struct Plan {
    /// Input seed of each slot for the distributed kernels.
    dist_seeds: Vec<u64>,
    /// Input seeds per routed-job class.
    submit_seeds: Vec<Vec<u64>>,
    /// Seed slot of each round.
    rounds: Vec<usize>,
}

impl Plan {
    fn new(seed: u64, rounds: usize) -> Self {
        let mut seeds = class_seeds(seed, 1 + SUBMIT_MIX.len());
        let dist_seeds = seeds.remove(0);
        Self {
            dist_seeds,
            submit_seeds: seeds,
            rounds: round_seeds(seed, rounds),
        }
    }
}

/// Measurements of one round.
#[derive(Debug, Default, Clone)]
struct RoundRec {
    ok: bool,
    round_ms: f64,
    sort_ms: f64,
    ngep_ms: f64,
    submit_ms: [f64; 4],
    supersteps: usize,
    socket_words: u64,
    h_relation: u64,
}

fn dist_call(
    tr: &mut Tracer,
    name: &'static str,
    id: u64,
    f: impl FnOnce() -> std::io::Result<DistOutcome>,
) -> Result<(DistOutcome, f64), String> {
    let span = tr.open(name, Layer::Dist, id);
    let t0 = Instant::now();
    let out = f().map_err(|e| format!("{name}: {e}"));
    let dt = t0.elapsed().as_secs_f64() * 1e3;
    tr.close(span);
    Ok((out?, dt))
}

fn round(
    router: &Router,
    plan: &Plan,
    refs: Option<&Refs>,
    r: usize,
    tr: &mut Tracer,
) -> Result<RoundRec, String> {
    let slot = plan.rounds[r];
    let seed = plan.dist_seeds[slot];
    let id = r as u64;
    let span = tr.open("round", Layer::Bench, id);
    let t0 = Instant::now();
    let (sort_out, sort_ms) =
        dist_call(tr, "Router::run_sort", id, || router.run_sort(SORT_N, seed))?;
    let (ngep_out, ngep_ms) = dist_call(tr, "Router::run_ngep", id, || {
        router.run_ngep(NGEP_N, NGEP_KAPPA, seed)
    })?;
    let mut rec = RoundRec {
        sort_ms,
        ngep_ms,
        ..RoundRec::default()
    };
    let mut sums = [0u64; 4];
    let mut submits_ok = true;
    for (c, &(kernel, n)) in SUBMIT_MIX.iter().enumerate() {
        let s = plan.submit_seeds[c][slot];
        let span = tr.open("Router::submit", Layer::Dist, id);
        let c0 = Instant::now();
        let res = router.submit(kernel.name(), n as u64, s);
        rec.submit_ms[c] = c0.elapsed().as_secs_f64() * 1e3;
        tr.close(span);
        match res {
            Ok((_, Ok(sum))) => sums[c] = sum,
            Ok((_, Err(_))) => submits_ok = false,
            Err(e) => return Err(format!("Router::submit: {e}")),
        }
    }
    rec.round_ms = t0.elapsed().as_secs_f64() * 1e3;
    tr.close(span);
    rec.ok = submits_ok
        && refs.is_none_or(|refs| {
            refs.sort[slot].matches(&sort_out)
                && refs.ngep[slot].matches(&ngep_out)
                && (0..SUBMIT_MIX.len()).all(|c| sums[c] == refs.submit[c][slot])
        });
    let nb = NGEP_N / NGEP_KAPPA;
    for (out, pes) in [(&sort_out, SORT_N), (&ngep_out, nb * nb)] {
        rec.supersteps += out.supersteps;
        rec.socket_words += out.socket_words_per_level.iter().sum::<u64>();
        rec.h_relation += level_table(out, pes, WORKERS)
            .iter()
            .map(|row| row.h_relation)
            .sum::<u64>();
    }
    Ok(rec)
}

struct PassLog {
    pass: Pass,
    recs: Vec<RoundRec>,
}

fn pass(router: &Router, plan: &Plan, refs: &Refs, traced: bool) -> Result<PassLog, String> {
    let mut tr = Tracer::new(traced, 0, Instant::now());
    let (recs, peak_rss_mb) = with_peak_rss(|| {
        (0..plan.rounds.len())
            .map(|r| round(router, plan, Some(refs), r, &mut tr))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let recs = recs?;
    let round_ms: Vec<f64> = recs.iter().map(|r| r.round_ms).collect();
    let n = recs.len() as u64;
    Ok(PassLog {
        pass: Pass {
            attempted: n,
            completed: n,
            verified: recs.iter().filter(|r| r.ok).count() as u64,
            wall_s: round_ms.iter().sum::<f64>() / 1e3,
            windows: round_windows(&round_ms),
            lat_ms: vec![round_ms],
            spans: vec![tr.into_spans()],
            peak_rss_mb,
        },
        recs,
    })
}

pub fn run(args: &Args, report: &mut Report) -> Result<Pass, String> {
    let n_rounds = (ROUNDS_PER_SECOND * args.seconds).max(MIN_ROUNDS) as usize;
    let mut setup_s = Vec::new();
    let mut state: Option<(LocalFleet, Plan)> = None;
    for _ in 0..crate::SETUPS {
        if let Some((fleet, _)) = state.take() {
            fleet
                .shutdown()
                .map_err(|e| format!("fleet shutdown: {e}"))?;
        }
        let t0 = Instant::now();
        let plan = Plan::new(args.seed, n_rounds);
        let fleet = LocalFleet::spawn(WORKERS).map_err(|e| format!("fleet spawn: {e}"))?;
        let mut off = Tracer::new(false, 0, t0);
        for r in 0..WARMUP_ROUNDS {
            round(fleet.router(), &plan, None, r, &mut off)?;
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some((fleet, plan));
    }
    let (fleet, plan) = state.expect("at least one set-up");

    let w1 = width_one(&HwHierarchy::detect());
    let refs = Refs {
        sort: plan.dist_seeds.iter().map(|&s| Expect::sort(s)).collect(),
        ngep: plan.dist_seeds.iter().map(|&s| Expect::ngep(s)).collect(),
        submit: SUBMIT_MIX
            .iter()
            .zip(&plan.submit_seeds)
            .map(|(&(k, n), seeds)| seeds.iter().map(|&s| run_kernel(&w1, k, n, s)).collect())
            .collect(),
    };

    let router = fleet.router();
    let plain = pass(router, &plan, &refs, false)?;
    report.end_to_end(&plain.pass, &setup_s)?;
    let total = if args.trace {
        let traced = pass(router, &plan, &refs, true)?;
        layer_metrics(report, &traced)?;
        trace_metrics(report, &plain.pass, &traced.pass);
        let mut total = traced.pass;
        total.attempted += plain.pass.attempted;
        total.verified += plain.pass.verified;
        total
    } else {
        plain.pass
    };
    fleet
        .shutdown()
        .map_err(|e| format!("fleet shutdown: {e}"))?;
    Ok(total)
}

fn layer_metrics(report: &mut Report, log: &PassLog) -> Result<(), String> {
    let recs = &log.recs;
    let n = recs.len();
    let col = |f: &dyn Fn(&RoundRec) -> f64| -> Vec<f64> { recs.iter().map(f).collect() };
    report.layer(
        "dist.sort_ms",
        percentile(&col(&|r| r.sort_ms), 0.5)?,
        format!("p50 of Router::run_sort({SORT_N}) over {n} calls"),
    );
    report.layer(
        "dist.ngep_ms",
        percentile(&col(&|r| r.ngep_ms), 0.5)?,
        format!("p50 of Router::run_ngep({NGEP_N}, kappa {NGEP_KAPPA}) over {n} calls"),
    );
    let submit: Vec<Vec<f64>> = (0..SUBMIT_MIX.len())
        .map(|c| col(&|r| r.submit_ms[c]))
        .collect();
    report.layer(
        "dist.submit_ms",
        class_percentile(&submit, 0.5)?,
        format!(
            "p50 of Router::submit per kernel class, geometric mean over {} classes",
            SUBMIT_MIX.len()
        ),
    );
    let steps = recs[0].supersteps;
    if recs.iter().any(|r| r.supersteps != steps) {
        return Err("superstep count varies between rounds".into());
    }
    report.layer(
        "dist.supersteps",
        steps as f64,
        "sort + ngep supersteps per round (exact)",
    );
    let words: u64 = recs.iter().map(|r| r.socket_words).sum();
    let h: u64 = recs.iter().map(|r| r.h_relation).sum();
    report.layer(
        "dist.socket_words",
        words as f64 / n as f64,
        format!("socket words per round, {words} over {n} rounds"),
    );
    report.layer(
        "dist.superstep_us",
        percentile(
            &col(&|r| (r.sort_ms + r.ngep_ms) * 1e3 / r.supersteps as f64),
            0.5,
        )?,
        "p50 over rounds of (sort + ngep call time) / supersteps",
    );
    report.layer(
        "dist.words_over_analytic",
        words as f64 / h as f64,
        format!(
            "{words} socket words / {h} words of the summed per-level h-relation charge H(n,p,B=1)"
        ),
    );
    Ok(())
}
