//! Metric naming, the end-to-end metric rules shared by every workload,
//! the host stamp, and the output: a human-readable table, a stamped
//! result record, and the one-line JSON result.

use std::fmt::Write as _;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use mo_core::certify::json::{self, Json};
use mo_core::rt::RtStats;

use crate::stats::{class_percentile, quartiles};

/// The end-to-end metrics, printed for every workload from its
/// untraced pass.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_jobs_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Fewest rounds a round-based workload runs: enough for p90 to leave
/// [`crate::stats::MIN_BEYOND`] rounds above it.
pub const MIN_ROUNDS: u64 = 100;

/// The kernels of `kernels-large`, in round order.
pub const KERNELS: [&str; 7] = [
    "matmul",
    "sort",
    "fft",
    "transpose",
    "spmdv",
    "prefix_sum",
    "floyd_warshall",
];

/// Every per-layer metric, printed by each traced run. A workload that
/// does not measure a metric (it bypasses the layer, or another workload
/// measures it) reports it as 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for k in KERNELS {
        v.push((format!("kernel.{k}.call_ms"), "ms"));
        v.push((format!("kernel.{k}.pool_speedup"), "x"));
    }
    for (name, unit) in [
        ("rt.parallel_forks_per_job", "count"),
        ("rt.denied_forks_per_job", "count"),
        ("rt.steals_per_job", "count"),
        ("rt.failed_steals_per_job", "count"),
        ("rt.parks_per_job", "count"),
        ("rt.injector_pops_per_job", "count"),
        ("rt.steal_success_ratio", "ratio"),
        ("serve.submit_us", "us"),
        ("serve.queue_wait_p50_ms", "ms"),
        ("serve.queue_wait_p90_ms", "ms"),
        ("serve.service_ms", "ms"),
        ("serve.handoff_ms", "ms"),
        ("serve.batch_size_mean", "count"),
        ("serve.batched_share", "ratio"),
        ("serve.shed_total", "count"),
        ("serve.gen_lateness_p90_ms", "ms"),
        ("dist.sort_ms", "ms"),
        ("dist.ngep_ms", "ms"),
        ("dist.submit_ms", "ms"),
        ("dist.supersteps", "count"),
        ("dist.socket_words", "count"),
        ("dist.superstep_us", "us"),
        ("dist.words_over_analytic", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        v.push((name.to_string(), unit));
    }
    for layer in crate::trace::Layer::ALL {
        v.push((format!("trace.self_ms_per_job.{}", layer.name()), "ms"));
    }
    v
}

/// What one pass over a workload's fixed job list produced.
#[derive(Debug)]
pub struct Pass {
    /// Jobs in the list.
    pub attempted: u64,
    /// Jobs that returned a result.
    pub completed: u64,
    /// Jobs whose result matched its reference.
    pub verified: u64,
    /// Wall time of the job list in seconds.
    pub wall_s: f64,
    /// Latency samples in milliseconds, one population per job class
    /// (a round-based workload has a single class: the round).
    pub lat_ms: Vec<Vec<f64>>,
    /// The run cut into time windows; throughput and, where each
    /// window holds enough jobs, latency are medians over windows.
    pub windows: Vec<Window>,
    /// Spans recorded per load thread (empty when untraced).
    pub spans: Vec<Vec<crate::trace::Span>>,
    /// Median over the pass's windows of each window's VmHWM.
    pub peak_rss_mb: f64,
}

/// One time window of a pass.
#[derive(Debug)]
pub struct Window {
    pub jobs: u64,
    pub secs: f64,
    /// Latency samples in milliseconds per job class.
    pub lat_ms: Vec<Vec<f64>>,
}

/// Windows of a round-based pass.
pub const ROUND_WINDOWS: usize = 10;

/// Cut a round-based pass into [`ROUND_WINDOWS`] runs of consecutive
/// rounds, without latency populations.
pub fn round_windows(round_ms: &[f64]) -> Vec<Window> {
    round_ms
        .chunks(round_ms.len().div_ceil(ROUND_WINDOWS))
        .map(|c| Window {
            jobs: c.len() as u64,
            secs: c.iter().sum::<f64>() / 1e3,
            lat_ms: Vec::new(),
        })
        .collect()
}

/// Cut `wall_s` into `n` equal windows and file each job (completion
/// time in seconds, class, latency in ms) under the window it completed
/// in.
pub fn windows(
    jobs: impl Iterator<Item = (f64, usize, f64)>,
    classes: usize,
    wall_s: f64,
    n: usize,
) -> Vec<Window> {
    let width = wall_s / n as f64;
    let mut out: Vec<Window> = (0..n)
        .map(|_| Window {
            jobs: 0,
            secs: width,
            lat_ms: vec![Vec::new(); classes],
        })
        .collect();
    for (end, class, lat) in jobs {
        let w = ((end / width) as usize).min(n - 1);
        out[w].jobs += 1;
        out[w].lat_ms[class].push(lat);
    }
    out
}

impl Pass {
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.wall_s
    }
}

/// A metric ready to print, with the base of any ratio.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub base: String,
}

#[derive(Debug, Default)]
pub struct Report {
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Report {
    fn push(list: &mut Vec<Metric>, name: &str, value: f64, base: String) {
        let unit = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(per_layer())
            .find(|(n, _)| n == name)
            .map(|(_, u)| u)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        list.push(Metric {
            name: name.to_string(),
            value,
            unit,
            base,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, base: impl Into<String>) {
        Self::push(&mut self.layer, name, value, base.into());
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The six end-to-end metrics of an untraced pass.
    pub fn end_to_end(&mut self, pass: &Pass, setup_s: &[f64]) -> Result<(), String> {
        let samples: usize = pass.lat_ms.iter().map(Vec::len).sum();
        let setup = crate::stats::median(setup_s);
        let median_over = |f: &dyn Fn(&Window) -> Result<f64, String>| -> Result<f64, String> {
            let v = pass
                .windows
                .iter()
                .map(f)
                .collect::<Result<Vec<f64>, String>>()?;
            Ok(crate::stats::median(&v))
        };
        let throughput = median_over(&|w| Ok(w.jobs as f64 / w.secs))?;
        // Round-based windows hold too few rounds for a p90 each; their
        // percentiles come from the whole run.
        let (p50, p90, how) = if pass.windows.iter().all(|w| !w.lat_ms.is_empty()) {
            (
                median_over(&|w| class_percentile(&w.lat_ms, 0.5))?,
                median_over(&|w| class_percentile(&w.lat_ms, 0.9))?,
                format!(
                    "median over {} windows of {samples} samples in {} classes",
                    pass.windows.len(),
                    pass.lat_ms.len()
                ),
            )
        } else {
            (
                class_percentile(&pass.lat_ms, 0.5)?,
                class_percentile(&pass.lat_ms, 0.9)?,
                format!("{samples} samples in {} classes", pass.lat_ms.len()),
            )
        };
        let rows = [
            (
                "throughput_jobs_s",
                throughput,
                format!(
                    "median over {} windows; whole run {} jobs / {:.3} s",
                    pass.windows.len(),
                    pass.completed,
                    pass.wall_s
                ),
            ),
            ("latency_p50_ms", p50, how),
            ("latency_p90_ms", p90, String::new()),
            (
                "success_rate",
                pass.verified as f64 / pass.attempted as f64,
                format!("{} verified / {} attempted", pass.verified, pass.attempted),
            ),
            (
                "setup_s",
                setup,
                format!("median of {} set-ups: {setup_s:.4?}", setup_s.len()),
            ),
            (
                "peak_rss_mb",
                pass.peak_rss_mb,
                format!("median over the timed pass of VmHWM per {RSS_WINDOW:?} window"),
            ),
        ];
        for (name, value, base) in rows {
            Self::push(&mut self.e2e, name, value, base);
        }
        let thr: Vec<String> = pass
            .windows
            .iter()
            .map(|w| format!("{:.1}", w.jobs as f64 / w.secs))
            .collect();
        self.note(format!("window throughputs: {}", thr.join(" ")));
        for (c, lat) in pass.lat_ms.iter().enumerate() {
            if let Some([q1, q2, q3]) = quartiles(lat) {
                self.note(format!(
                    "latency class {c}: n={} q1={q1:.4} median={q2:.4} q3={q3:.4} ms",
                    lat.len()
                ));
            }
        }
        Ok(())
    }
}

/// Reset this process's VmHWM to its current resident set.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

/// Window of the peak resident set sampler.
pub const RSS_WINDOW: Duration = Duration::from_millis(500);

/// Run `f` (a timed pass) beside a sampler thread that reads and resets
/// VmHWM every [`RSS_WINDOW`], and return `f`'s result with the median
/// of the windows' peaks in MB. Set-up and reference temporaries freed
/// before the pass do not count, and neither does one rare coincidence
/// of transient allocations.
pub fn with_peak_rss<R>(f: impl FnOnce() -> R) -> Result<(R, f64), String> {
    reset_peak_rss()?;
    let (stop, stopped) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let sampler = scope.spawn(move || {
            let mut peaks = Vec::new();
            loop {
                let last = !matches!(
                    stopped.recv_timeout(RSS_WINDOW),
                    Err(RecvTimeoutError::Timeout)
                );
                peaks.push(peak_rss_mb());
                let _ = reset_peak_rss();
                if last {
                    return crate::stats::median(&peaks);
                }
            }
        });
        let out = f();
        drop(stop);
        Ok((out, sampler.join().expect("RSS sampler panicked")))
    })
}

/// Peak resident set of this process (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn int(v: impl Into<u64>) -> Json {
    Json::Num(v.into() as f64)
}

/// Cores and cache levels of the host, as the pool sees them.
pub fn host_stamp() -> Json {
    let h = mo_core::rt::HwHierarchy::detect();
    let levels = h
        .levels()
        .iter()
        .map(|l| {
            obj(vec![
                ("words", int(l.capacity as u64)),
                ("fanout", int(l.fanout as u64)),
            ])
        })
        .collect();
    obj(vec![
        ("cores", int(h.cores() as u64)),
        ("levels", Json::Arr(levels)),
    ])
}

fn metrics_json(list: &[Metric]) -> Json {
    Json::Obj(
        list.iter()
            .map(|m| {
                // A ratio over an empty base is reported as 0, not NaN.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    m.name.clone(),
                    obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn pretty(j: &Json) -> String {
    let mut s = String::new();
    json::write(j, &mut s, 0);
    s
}

/// `j` on one line (no string this report writes holds a newline).
fn one_line(j: &Json) -> String {
    pretty(j).lines().map(str::trim).collect()
}

/// What a run prints and records.
pub struct Output<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub jobs: u64,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Report {
    /// The metrics of this run, in declaration order: end-to-end ones
    /// untraced, every per-layer one traced.
    fn selected(&mut self, traced: bool) -> Vec<Metric> {
        if !traced {
            return std::mem::take(&mut self.e2e);
        }
        let mut got = std::mem::take(&mut self.layer);
        per_layer()
            .into_iter()
            .map(
                |(name, unit)| match got.iter().position(|m| m.name == name) {
                    Some(i) => got.swap_remove(i),
                    None => Metric {
                        name,
                        value: 0.0,
                        unit,
                        base: "not measured by this workload".into(),
                    },
                },
            )
            .collect()
    }

    /// Print the human report, write the stamped record under
    /// `out_dir`, and print the JSON result as the last line.
    pub fn finish(mut self, out: &Output<'_>, out_dir: &std::path::Path) -> std::io::Result<()> {
        let metrics = self.selected(out.traced);
        let stamp = obj(vec![
            ("host", host_stamp()),
            ("workload", Json::Str(out.workload.to_string())),
            ("seed", Json::Str(out.seed.to_string())),
            ("seconds", int(out.seconds)),
            ("traced", Json::Bool(out.traced)),
            ("jobs", int(out.jobs)),
            ("attempted", int(out.attempted)),
            ("failed", int(out.failed)),
        ]);
        let mut text = String::new();
        let _ = writeln!(text, "record: {}", one_line(&stamp));
        for n in &self.notes {
            let _ = writeln!(text, "  {n}");
        }
        for m in &metrics {
            let _ = writeln!(
                text,
                "  {:<34} {:>16.6} {:<6} {}",
                m.name, m.value, m.unit, m.base
            );
        }
        print!("{text}");
        let metrics = metrics_json(&metrics);
        let record = obj(vec![
            ("stamp", stamp),
            ("correct", Json::Bool(out.correct)),
            ("metrics", metrics.clone()),
        ]);
        std::fs::create_dir_all(out_dir)?;
        std::fs::write(
            out_dir.join(format!(
                "{}-seed{}-trace{}.json",
                out.workload, out.seed, out.traced as u8
            )),
            pretty(&record) + "\n",
        )?;
        println!("{}", result_line(out, metrics));
        Ok(())
    }
}

/// The RtStats fields reported per job, in `rt.*` order.
pub fn rt_fields(s: &RtStats) -> [u64; 6] {
    [
        s.parallel_forks,
        s.denied_forks,
        s.steals,
        s.failed_steals,
        s.parks,
        s.injector_pops,
    ]
}

/// Counter increments from `before` to `after`, field by field.
pub fn rt_delta(after: [u64; 6], before: [u64; 6]) -> [u64; 6] {
    std::array::from_fn(|i| after[i] - before[i])
}

/// Report `rt.*` from counter totals over `jobs` jobs.
pub fn report_rt(report: &mut Report, totals: [u64; 6], jobs: u64, base: &str) {
    let names = [
        "rt.parallel_forks_per_job",
        "rt.denied_forks_per_job",
        "rt.steals_per_job",
        "rt.failed_steals_per_job",
        "rt.parks_per_job",
        "rt.injector_pops_per_job",
    ];
    for (name, v) in names.iter().zip(totals) {
        report.layer(
            name,
            v as f64 / jobs as f64,
            format!("{v} / {jobs} jobs; {base}"),
        );
    }
    let (steals, failed) = (totals[2], totals[3]);
    let ratio = if steals + failed == 0 {
        0.0
    } else {
        steals as f64 / (steals + failed) as f64
    };
    report.layer(
        "rt.steal_success_ratio",
        ratio,
        format!("{steals} steals / {} attempts", steals + failed),
    );
}

/// `trace.*`: overhead against the untraced pass and per-layer self time.
pub fn trace_metrics(report: &mut Report, plain: &Pass, traced: &Pass) {
    report.layer(
        "trace.overhead_ratio",
        traced.throughput() / plain.throughput(),
        format!(
            "traced {:.2} / untraced {:.2} jobs/s",
            traced.throughput(),
            plain.throughput()
        ),
    );
    let mut total = [0u64; 4];
    for spans in &traced.spans {
        for (t, v) in total.iter_mut().zip(crate::trace::self_ns(spans)) {
            *t += v;
        }
    }
    let spans: usize = traced.spans.iter().map(Vec::len).sum();
    for (layer, ns) in crate::trace::Layer::ALL.iter().zip(total) {
        report.layer(
            &format!("trace.self_ms_per_job.{}", layer.name()),
            ns as f64 / 1e6 / traced.completed as f64,
            format!(
                "{:.3} ms self over {} jobs, {spans} spans",
                ns as f64 / 1e6,
                traced.completed
            ),
        );
    }
}

/// The last line of a run's output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_line(out: &Output<'_>, metrics: Json) -> String {
    one_line(&obj(vec![
        ("correct", Json::Bool(out.correct)),
        ("attempted", int(out.attempted)),
        ("failed", int(out.failed)),
        ("metrics", metrics),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mo_core::certify::json;

    /// The metric lists here and in BENCHMARK.json must agree name for
    /// name and unit for unit.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|a| a.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layer);
    }

    #[test]
    fn untraced_runs_print_end_to_end_and_traced_runs_every_layer_metric() {
        let mut r = Report::default();
        r.layer("rt.steals_per_job", 2.5, "");
        let traced = r.selected(true);
        assert_eq!(traced.len(), per_layer().len());
        let steals = traced
            .iter()
            .find(|m| m.name == "rt.steals_per_job")
            .unwrap();
        assert_eq!(steals.value, 2.5);
        let pass = Pass {
            attempted: 100,
            completed: 100,
            verified: 100,
            wall_s: 2.0,
            lat_ms: vec![(1..=100).map(f64::from).collect()],
            windows: round_windows(&[20.0; 100]),
            spans: Vec::new(),
            peak_rss_mb: 12.5,
        };
        r.end_to_end(&pass, &[0.5, 0.7, 0.6]).unwrap();
        let e2e = r.selected(false);
        let names: Vec<&str> = e2e.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n));
        assert_eq!(e2e[0].value, 50.0);
        assert_eq!(e2e[2].value, 90.0);
        assert_eq!(e2e[4].value, 0.6);
        assert_eq!(e2e[5].value, 12.5);

        let out = Output {
            workload: "fleet",
            seed: 3,
            seconds: 1,
            traced: false,
            jobs: 100,
            attempted: 100,
            failed: 0,
            correct: true,
        };
        let line = result_line(&out, metrics_json(&e2e));
        assert!(!line.contains('\n'));
        let Json::Obj(fields) = json::parse(&line).unwrap() else {
            panic!("result is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = fields[3].1.get("latency_p90_ms").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(90.0));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }
}
