//! Result bookkeeping: named metrics with units and sample counts, output
//! checks counted against attempts, summary statistics, the machine record
//! and peak resident memory.

use serde::Content;
use std::time::Duration;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many measurements the value summarizes.
    pub samples: usize,
}

/// Everything one benchmark run reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    notes: Vec<(String, String)>,
}

impl Report {
    /// Records a metric. A non-finite value is a failed output check (JSON
    /// cannot carry it), reported as 0.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.op(value.is_finite(), || {
            format!("metric {name} is not finite: {value}")
        });
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Counts one attempted operation (a step, a launch, an update, an
    /// output check); `ok == false` counts it as failed and keeps `what`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 32 {
                self.failures.push(what());
            }
        }
    }

    /// A free-form fact recorded beside the metrics (machine, sizes).
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// The human-readable table, then the one-line JSON result the
    /// benchmark contract reads (it must be the last line on stdout).
    pub fn print(&self) {
        for (k, v) in &self.notes {
            println!("# {k}: {v}");
        }
        for f in &self.failures {
            println!("# FAILED: {f}");
        }
        println!(
            "# ops attempted {} failed {} (failed_frac {:.6})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for m in &self.metrics {
            println!(
                "# {:<34} {:>16.6} {:<9} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Content::Map(vec![
                        ("value".into(), Content::F64(m.value)),
                        ("unit".into(), Content::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        let line = Content::Map(vec![
            ("correct".into(), Content::Bool(self.failed == 0)),
            ("attempted".into(), Content::U64(self.attempted.max(1))),
            ("failed".into(), Content::U64(self.failed)),
            ("metrics".into(), Content::Map(metrics)),
        ]);
        println!("{}", render(&line));
    }

    /// The full record (metrics with sample counts, notes, failures) as a
    /// JSON document for the run's artifact file.
    pub fn artifact_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                Content::Map(vec![
                    ("name".into(), Content::Str(m.name.into())),
                    ("value".into(), Content::F64(m.value)),
                    ("unit".into(), Content::Str(m.unit.into())),
                    ("samples".into(), Content::U64(m.samples as u64)),
                ])
            })
            .collect();
        let doc = Content::Map(vec![
            (
                "notes".into(),
                Content::Map(
                    self.notes
                        .iter()
                        .map(|(k, v)| (k.clone(), Content::Str(v.clone())))
                        .collect(),
                ),
            ),
            ("attempted".into(), Content::U64(self.attempted)),
            ("failed".into(), Content::U64(self.failed)),
            (
                "failures".into(),
                Content::Seq(
                    self.failures
                        .iter()
                        .map(|f| Content::Str(f.clone()))
                        .collect(),
                ),
            ),
            ("metrics".into(), Content::Seq(metrics)),
        ]);
        render(&doc)
    }
}

fn render(c: &Content) -> String {
    serde_json::to_string(&ContentRef(c)).expect("a Content tree always renders")
}

/// Serializes a ready-made `Content` tree.
struct ContentRef<'a>(&'a Content);

impl serde::Serialize for ContentRef<'_> {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` ∈ [0, 1] of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail quantile the benchmark reports as "p90": the 90th percentile
/// when at least ten samples lie beyond it, else the highest quantile that
/// still has ten samples beyond it — never below the median.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.9)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the bits of every parameter: a cheap bit-exact witness of a
/// trainer's model state.
pub fn param_fingerprint(model: &mut snip_nn::Model) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    model.visit_params_mut(&mut |p| {
        for v in p.value().as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    });
    h
}

/// Peak resident set of this process plus `workers` rank workers, MiB.
/// Worker peaks come from `getrusage(RUSAGE_CHILDREN)`, which reports the
/// largest reaped child; ranks run the same config, so each is charged that
/// peak.
pub fn peak_rss_mb(workers: usize) -> f64 {
    let own_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    let child_kb = if workers > 0 {
        children_max_rss_kb()
    } else {
        0.0
    };
    (own_kb + workers as f64 * child_kb) / 1024.0
}

fn children_max_rss_kb() -> f64 {
    rusage(RUSAGE_CHILDREN).map_or(0.0, |u| u.maxrss as f64)
}

/// CPU seconds (user + system) this process has used, and its reaped
/// children have used, so far. Unlike wall time, CPU time leaves out time
/// the hypervisor stole from a shared host.
pub fn cpu_seconds() -> (f64, f64) {
    let secs =
        |u: Rusage| (u.utime[0] + u.stime[0]) as f64 + (u.utime[1] + u.stime[1]) as f64 * 1e-6;
    (
        rusage(RUSAGE_SELF).map_or(0.0, secs),
        rusage(RUSAGE_CHILDREN).map_or(0.0, secs),
    )
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

/// `struct rusage` on 64-bit Linux: two `timeval`s (seconds,
/// microseconds), then 14 longs of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Clone, Copy)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

fn rusage(who: i32) -> Option<Rusage> {
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable struct with the C layout of
    // `struct rusage` on 64-bit Linux; getrusage writes only within it.
    let rc = unsafe { getrusage(who, &mut usage) };
    (rc == 0).then_some(usage)
}

/// A point in time on three clocks: wall, the host's CPU accounting
/// (busy and stolen jiffies over all CPUs, from `/proc/stat`), and this
/// process's CPU time.
pub struct Stamp {
    wall: std::time::Instant,
    busy: u64,
    steal: u64,
    cpu: (f64, f64),
}

fn proc_stat_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let v: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    let get = |i: usize| v.get(i).copied().unwrap_or(0);
    (get(0) + get(1) + get(2) + get(5) + get(6), get(7))
}

impl Stamp {
    pub fn now() -> Self {
        let (busy, steal) = proc_stat_ticks();
        Stamp {
            wall: std::time::Instant::now(),
            busy,
            steal,
            cpu: cpu_seconds(),
        }
    }
}

impl Report {
    /// Records the phase since `start` on all three clocks and returns the
    /// share of its wall time the guest's vCPUs actually ran: 1 minus the
    /// hypervisor's stolen share of busy vCPU time. On a shared host that
    /// share swings from 3% to 35% between runs; the end-to-end times are
    /// multiplied by the returned factor so they measure the program, not
    /// the neighbours (on an unshared host the factor is 1).
    pub fn clocks(&mut self, phase: &str, start: &Stamp) -> f64 {
        let now = Stamp::now();
        let busy = now.busy.saturating_sub(start.busy);
        let steal = now.steal.saturating_sub(start.steal);
        let stolen = steal as f64 / (busy + steal).max(1) as f64;
        self.note(
            &format!("{phase}_clocks"),
            format!(
                "wall {:.3} s, CPU {:.3} s (+ workers {:.3} s), host steal {:.1}% of busy vCPU time",
                now.wall.duration_since(start.wall).as_secs_f64(),
                now.cpu.0 - start.cpu.0,
                now.cpu.1 - start.cpu.1,
                100.0 * stolen
            ),
        );
        1.0 - stolen
    }
}
