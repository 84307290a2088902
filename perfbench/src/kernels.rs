//! `kernels-large`: one caller runs rounds of the seven `par_*` kernels
//! on a warmed pool over the detected machine, on working sets larger
//! than L2. The serving and fleet layers do no work here.

use std::time::Instant;

use mo_algorithms::gep::floyd_warshall_reference;
use mo_algorithms::real::{
    par_fft_with_scratch, par_floyd_warshall, par_matmul, par_prefix_sum, par_sort_with_scratch,
    par_spmdv, par_transpose, C64,
};
use mo_baselines::matmul::naive_matmul;
use mo_core::rt::{HwHierarchy, HwLevel, SbPool};

use crate::jobs::Rng;
use crate::report::{
    report_rt, round_windows, rt_fields, trace_metrics, with_peak_rss, Pass, Report, KERNELS,
    MIN_ROUNDS,
};
use crate::stats::{median, percentile};
use crate::trace::{Layer, Tracer};
use crate::Args;

const MATMUL_N: usize = 256;
const SORT_N: usize = 1 << 20;
const FFT_N: usize = 1 << 18;
const TRANSPOSE_N: usize = 1024;
const SPMDV_ROWS: usize = 200_000;
const SPMDV_DEG: usize = 8;
const PREFIX_N: usize = 1 << 22;
const FW_N: usize = 256;

/// Rounds per second of `--seconds` (a round takes about 75 ms on a
/// 2-core host).
const ROUNDS_PER_SECOND: u64 = 12;
/// Paired width-1/pool samples per kernel for `pool_speedup`.
const SPEEDUP_PAIRS: usize = 5;

const SPAN_NAMES: [&str; 7] = [
    "par_matmul",
    "par_sort_with_scratch",
    "par_fft_with_scratch",
    "par_transpose",
    "par_spmdv",
    "par_prefix_sum",
    "par_floyd_warshall",
];

/// Generated inputs, fixed by the seed.
struct Data {
    a: Vec<f64>,
    b: Vec<f64>,
    keys: Vec<u64>,
    signal: Vec<C64>,
    tr_in: Vec<f64>,
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    x: Vec<f64>,
    words: Vec<u64>,
    dist: Vec<f64>,
}

impl Data {
    fn generate(seed: u64) -> Self {
        let mut r = Rng::new(seed, 10);
        let f64s = |r: &mut Rng, n: usize| -> Vec<f64> { (0..n).map(|_| r.unit()).collect() };
        let a = f64s(&mut r, MATMUL_N * MATMUL_N);
        let b = f64s(&mut r, MATMUL_N * MATMUL_N);
        let keys = (0..SORT_N).map(|_| r.next_u64()).collect();
        let signal = (0..FFT_N).map(|_| (r.unit(), r.unit())).collect();
        let tr_in = f64s(&mut r, TRANSPOSE_N * TRANSPOSE_N);
        let mut row_ptr = Vec::with_capacity(SPMDV_ROWS + 1);
        row_ptr.push(0);
        let nnz = SPMDV_ROWS * SPMDV_DEG;
        let cols: Vec<usize> = (0..nnz).map(|_| r.below(SPMDV_ROWS)).collect();
        for i in 1..=SPMDV_ROWS {
            row_ptr.push(i * SPMDV_DEG);
        }
        let vals = f64s(&mut r, nnz);
        let x = f64s(&mut r, SPMDV_ROWS);
        let words = (0..PREFIX_N).map(|_| r.next_u64()).collect();
        // A sparse digraph: about 1/8 of the arcs present, weights 1..=100.
        let dist = (0..FW_N * FW_N)
            .map(|i| {
                if i / FW_N == i % FW_N {
                    0.0
                } else if r.below(8) == 0 {
                    1.0 + r.below(100) as f64
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        Self {
            a,
            b,
            keys,
            signal,
            tr_in,
            row_ptr,
            cols,
            vals,
            x,
            words,
            dist,
        }
    }
}

/// Work buffers: reset from [`Data`] before each round, outside the
/// timed region, and compared with the references after it.
struct Work {
    c: Vec<f64>,
    keys: Vec<u64>,
    keys_scratch: Vec<u64>,
    signal: Vec<C64>,
    signal_scratch: Vec<C64>,
    tr_out: Vec<f64>,
    y: Vec<f64>,
    words: Vec<u64>,
    dist: Vec<f64>,
}

impl Work {
    fn new(d: &Data) -> Self {
        Self {
            c: vec![0.0; MATMUL_N * MATMUL_N],
            keys: d.keys.clone(),
            keys_scratch: Vec::new(),
            signal: d.signal.clone(),
            signal_scratch: Vec::new(),
            tr_out: vec![0.0; TRANSPOSE_N * TRANSPOSE_N],
            y: vec![0.0; SPMDV_ROWS],
            words: d.words.clone(),
            dist: d.dist.clone(),
        }
    }

    fn reset(&mut self, d: &Data, k: usize) {
        match k {
            0 => self.c.fill(0.0),
            1 => self.keys.copy_from_slice(&d.keys),
            2 => self.signal.copy_from_slice(&d.signal),
            3 => self.tr_out.fill(0.0),
            4 => self.y.fill(0.0),
            5 => self.words.copy_from_slice(&d.words),
            _ => self.dist.copy_from_slice(&d.dist),
        }
    }

    fn call(&mut self, d: &Data, pool: &SbPool, k: usize) {
        match k {
            0 => par_matmul(pool, &mut self.c, &d.a, &d.b, MATMUL_N),
            1 => par_sort_with_scratch(pool, &mut self.keys, &mut self.keys_scratch),
            2 => par_fft_with_scratch(pool, &mut self.signal, &mut self.signal_scratch),
            3 => par_transpose(pool, &d.tr_in, &mut self.tr_out, TRANSPOSE_N),
            4 => par_spmdv(pool, &d.row_ptr, &d.cols, &d.vals, &d.x, &mut self.y),
            5 => par_prefix_sum(pool, &mut self.words),
            _ => par_floyd_warshall(pool, &mut self.dist, FW_N),
        }
    }

    /// A hash of kernel `k`'s output bits.
    fn hash(&self, k: usize) -> u64 {
        let floats = |v: &[f64]| hash_words(v.iter().map(|x| x.to_bits()));
        match k {
            0 => floats(&self.c),
            1 => hash_words(self.keys.iter().copied()),
            2 => hash_words(
                self.signal
                    .iter()
                    .flat_map(|c| [c.0.to_bits(), c.1.to_bits()]),
            ),
            3 => floats(&self.tr_out),
            4 => floats(&self.y),
            5 => hash_words(self.words.iter().copied()),
            _ => floats(&self.dist),
        }
    }

    /// Whether kernel `k`'s output equals the reference's. Every kernel
    /// must match bit for bit except the FFT, whose width-1 plan is the
    /// iterative transform and may round differently.
    fn matches(&self, r: &Refs, k: usize) -> bool {
        if k != 2 {
            return self.hash(k) == r.hashes[k];
        }
        let tol = 1e-9 * FFT_N as f64;
        self.signal
            .iter()
            .zip(&r.fft)
            .all(|(p, q)| (p.0 - q.0).abs() <= tol && (p.1 - q.1).abs() <= tol)
    }
}

/// What each round's outputs must be, from the width-1 pool: a hash of
/// every exact output, and the FFT's output itself.
struct Refs {
    hashes: [u64; 7],
    fft: Vec<C64>,
}

/// FNV-1a over 64-bit words: enough to tell two outputs apart, at about
/// the speed of a scan, and without a second copy of every output.
fn hash_words(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0100_0000_01b3)
    })
}

fn bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A pool over the detected levels with every fanout 1: the same caches
/// and one core, the base of `pool_speedup`.
pub fn width_one(hier: &HwHierarchy) -> SbPool {
    let levels = hier
        .levels()
        .iter()
        .map(|l| HwLevel {
            capacity: l.capacity,
            fanout: 1,
        })
        .collect();
    SbPool::new(HwHierarchy::new(levels))
}

struct Setup {
    data: Data,
    pool: SbPool,
    work: Work,
}

fn setup(seed: u64) -> Setup {
    let data = Data::generate(seed);
    let pool = SbPool::new(HwHierarchy::detect());
    pool.warm();
    let mut work = Work::new(&data);
    for k in 0..KERNELS.len() {
        work.reset(&data, k);
        work.call(&data, &pool, k);
    }
    Setup { data, pool, work }
}

struct RoundLog {
    pass: Pass,
    call_ms: Vec<Vec<f64>>,
    rt: [u64; 6],
}

fn rounds(s: &mut Setup, refs: &Refs, rounds: u64, traced: bool) -> Result<RoundLog, String> {
    let mut tr = Tracer::new(traced, 0, Instant::now());
    let mut call_ms = vec![Vec::new(); KERNELS.len()];
    let mut round_ms = Vec::new();
    let mut rt = [0u64; 6];
    let (mut wall, mut verified) = (0.0, 0u64);
    let ((), peak_rss_mb) = with_peak_rss(|| {
        for r in 0..rounds {
            for k in 0..KERNELS.len() {
                s.work.reset(&s.data, k);
            }
            let span = tr.open("round", Layer::Bench, r);
            let t0 = Instant::now();
            for (k, name) in SPAN_NAMES.iter().enumerate() {
                let call = tr.open(name, Layer::Algos, r);
                let c0 = Instant::now();
                s.work.call(&s.data, &s.pool, k);
                call_ms[k].push(c0.elapsed().as_secs_f64() * 1e3);
                tr.close(call);
                // Each `par_*` call resets the pool's counters on entry, so
                // what it leaves behind is its own (last phase's) count.
                for (t, v) in rt.iter_mut().zip(rt_fields(&s.pool.stats())) {
                    *t += v;
                }
            }
            let dt = t0.elapsed().as_secs_f64();
            tr.close(span);
            wall += dt;
            round_ms.push(dt * 1e3);
            verified += (0..KERNELS.len()).all(|k| s.work.matches(refs, k)) as u64;
        }
    })?;
    Ok(RoundLog {
        pass: Pass {
            attempted: rounds,
            completed: rounds,
            verified,
            wall_s: wall,
            windows: round_windows(&round_ms),
            lat_ms: vec![round_ms],
            spans: vec![tr.into_spans()],
            peak_rss_mb,
        },
        call_ms,
        rt,
    })
}

/// Whether each width-1 output equals a plain serial computation of the
/// same result, in [`KERNELS`] order.
fn independent_checks(d: &Data, r: &Work) -> [bool; 7] {
    let n = MATMUL_N;
    let mut c = vec![0.0; n * n];
    naive_matmul(&mut c, &d.a, &d.b, n);
    let mut keys = d.keys.clone();
    keys.sort_unstable();
    let t = TRANSPOSE_N;
    let transposed = (0..t * t).all(|i| r.tr_out[(i % t) * t + i / t] == d.tr_in[i]);
    let y: Vec<f64> = (0..SPMDV_ROWS)
        .map(|row| {
            (d.row_ptr[row]..d.row_ptr[row + 1])
                .fold(0.0, |acc, k| acc + d.vals[k] * d.x[d.cols[k]])
        })
        .collect();
    let mut acc = 0u64;
    let scan: Vec<u64> = d
        .words
        .iter()
        .map(|&v| {
            let out = acc;
            acc = acc.wrapping_add(v);
            out
        })
        .collect();
    [
        bits(&c, &r.c),
        keys == r.keys,
        true,
        transposed,
        bits(&y, &r.y),
        scan == r.words,
        bits(&floyd_warshall_reference(&d.dist, FW_N), &r.dist),
    ]
}

/// Computed (not measured) operation count and compulsory bytes moved
/// of one call of each kernel.
fn computed_cost() -> [(f64, f64); 7] {
    let lg = |n: usize| n.trailing_zeros() as f64;
    let (m, s, f, t) = (
        MATMUL_N as f64,
        SORT_N as f64,
        FFT_N as f64,
        TRANSPOSE_N as f64,
    );
    let nnz = (SPMDV_ROWS * SPMDV_DEG) as f64;
    let rows = SPMDV_ROWS as f64;
    let (p, w) = (PREFIX_N as f64, FW_N as f64);
    [
        (2.0 * m * m * m, 4.0 * m * m * 8.0),
        (s * lg(SORT_N), 2.0 * s * 8.0),
        (5.0 * f * lg(FFT_N), 2.0 * f * 16.0),
        (t * t, 2.0 * t * t * 8.0),
        (2.0 * nnz, nnz * 16.0 + 3.0 * rows * 8.0),
        (p, 3.0 * p * 8.0),
        (2.0 * w * w * w, 2.0 * w * w * 8.0),
    ]
}

pub fn run(args: &Args, report: &mut Report) -> Result<Pass, String> {
    let n_rounds = (ROUNDS_PER_SECOND * args.seconds).max(MIN_ROUNDS);
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..crate::SETUPS {
        drop(s.take());
        let t0 = Instant::now();
        s = Some(setup(args.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut s = s.expect("at least one set-up");

    // References, untimed: the width-1 pool's outputs, each first checked
    // against an independent serial computation (the FFT's width-1 plan
    // is the iterative transform, independent of the pool's recursion).
    let w1 = width_one(s.pool.hierarchy());
    let mut out = Work::new(&s.data);
    for k in 0..KERNELS.len() {
        out.reset(&s.data, k);
        out.call(&s.data, &w1, k);
    }
    for (k, ok) in independent_checks(&s.data, &out).into_iter().enumerate() {
        if !ok {
            return Err(format!(
                "width-1 {} differs from its serial reference",
                SPAN_NAMES[k]
            ));
        }
    }
    let refs = Refs {
        hashes: std::array::from_fn(|k| out.hash(k)),
        fft: std::mem::take(&mut out.signal),
    };
    drop(out);

    let plain = rounds(&mut s, &refs, n_rounds, false)?;
    report.end_to_end(&plain.pass, &setup_s)?;
    if !args.trace {
        return Ok(plain.pass);
    }

    let traced = rounds(&mut s, &refs, n_rounds, true)?;
    for ((k, name), (ops, bytes)) in KERNELS.iter().enumerate().zip(computed_cost()) {
        let ms = percentile(&traced.call_ms[k], 0.5)?;
        report.layer(
            &format!("kernel.{name}.call_ms"),
            ms,
            format!("p50 of {} calls", traced.call_ms[k].len()),
        );
        report.note(format!(
            "computed {name}: {ops:.3e} ops, {bytes:.3e} compulsory bytes, {:.2} Gop/s at p50",
            ops / ms / 1e6
        ));
    }
    speedups(&mut s, &w1, report);
    report_rt(
        report,
        traced.rt,
        n_rounds,
        "each par_* call's counters after it returns (prefix_sum and floyd_warshall: last pool.run only)",
    );
    trace_metrics(report, &plain.pass, &traced.pass);
    let mut pass = traced.pass;
    pass.attempted += plain.pass.attempted;
    pass.verified += plain.pass.verified;
    Ok(pass)
}

/// `kernel.<k>.pool_speedup`: median over alternating pairs of the
/// width-1 call time divided by the pool call time on the same input.
fn speedups(s: &mut Setup, w1: &SbPool, report: &mut Report) {
    for (k, name) in KERNELS.iter().enumerate() {
        let (mut one, mut many, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..SPEEDUP_PAIRS {
            let mut time = |pool: &SbPool| {
                s.work.reset(&s.data, k);
                let t0 = Instant::now();
                s.work.call(&s.data, pool, k);
                t0.elapsed().as_secs_f64() * 1e3
            };
            let (a, b) = if i % 2 == 0 {
                let a = time(w1);
                (a, time(&s.pool))
            } else {
                let b = time(&s.pool);
                (time(w1), b)
            };
            one.push(a);
            many.push(b);
            ratio.push(a / b);
        }
        report.layer(
            &format!("kernel.{name}.pool_speedup"),
            median(&ratio),
            format!(
                "width-1 pool {:.3} ms / {}-core pool {:.3} ms, median of {SPEEDUP_PAIRS} pairs",
                median(&one),
                s.pool.hierarchy().cores(),
                median(&many)
            ),
        );
    }
}
